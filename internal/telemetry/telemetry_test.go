package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.events")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if r.Counter("test.events") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 || c.Name() != "" {
		t.Fatal("nil counter not inert")
	}
	var h *Histogram
	h.Observe(3)
	if h.Count() != 0 || h.Sum() != 0 || h.Name() != "" {
		t.Fatal("nil histogram not inert")
	}
	var s *Span
	s.SetWork(1)
	s.AddDegradations("x")
	s.SetRetries(1)
	s.End()
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.work", []int64{1, 10, 100})
	for _, v := range []int64{0, 1, 2, 10, 11, 100, 1000} {
		h.Observe(v)
	}
	s := h.snapshot()
	// v ≤ 1: {0, 1}; 1 < v ≤ 10: {2, 10}; 10 < v ≤ 100: {11, 100}; > 100: {1000}.
	want := []int64{2, 2, 2, 1}
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Buckets[i], w, s.Buckets)
		}
	}
	if s.Count != 7 || s.Sum != 1124 {
		t.Fatalf("count/sum = %d/%d, want 7/1124", s.Count, s.Sum)
	}
	if s.Min != 0 || s.Max != 1000 {
		t.Fatalf("min/max = %d/%d, want 0/1000", s.Min, s.Max)
	}
}

func TestHistogramConcurrentDeterministicSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.sum", WorkEdges)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}()
	}
	wg.Wait()
	n := int64(workers * per)
	if h.Count() != n || h.Sum() != n*(n-1)/2 {
		t.Fatalf("count/sum = %d/%d, want %d/%d", h.Count(), h.Sum(), n, n*(n-1)/2)
	}
}

func TestBadEdgesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending edges did not panic")
		}
	}()
	NewRegistry().Histogram("bad", []int64{10, 1})
}

// fakeClock is an injectable deterministic clock advancing a fixed step per
// reading.
func fakeClock(step time.Duration) func() time.Time {
	var mu sync.Mutex
	t0 := time.Unix(0, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t0 = t0.Add(step)
		return t0
	}
}

func TestSpansDeterministicWithInjectedClock(t *testing.T) {
	r := NewRegistry()
	r.SetClock(fakeClock(time.Millisecond))
	if sp := r.StartSpan("lp.solve", "x"); sp != nil {
		t.Fatal("tracing disabled but StartSpan returned a span")
	}
	r.EnableTracing(true)
	sp := r.StartSpan("lp.solve", "dispatch")
	sp.SetWork(42)
	sp.AddDegradations("bland-restart: test")
	sp.SetRetries(1)
	sp.End()
	got := r.Snapshot(SnapshotOptions{Spans: true})
	if len(got.Spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(got.Spans))
	}
	s := got.Spans[0]
	if s.Stage != "lp.solve" || s.Problem != "dispatch" || s.Work != 42 ||
		s.Retries != 1 || len(s.Degradations) != 1 {
		t.Fatalf("span = %+v", s)
	}
	// Start and End each read the clock once: exactly one step.
	if s.DurationNS != time.Millisecond.Nanoseconds() {
		t.Fatalf("duration = %dns, want %dns", s.DurationNS, time.Millisecond.Nanoseconds())
	}
}

func TestSpanRingBounded(t *testing.T) {
	r := NewRegistry()
	r.EnableTracing(true)
	for i := 0; i < spanCap+10; i++ {
		sp := r.StartSpan("s", "")
		sp.SetWork(int64(i))
		sp.End()
	}
	got := r.Snapshot(SnapshotOptions{Spans: true})
	if len(got.Spans) != spanCap {
		t.Fatalf("retained %d spans, want %d", len(got.Spans), spanCap)
	}
	if got.SpansDropped != 10 {
		t.Fatalf("dropped = %d, want 10", got.SpansDropped)
	}
	// Oldest-first: the first retained span is the 11th recorded.
	if got.Spans[0].Work != 10 || got.Spans[spanCap-1].Work != spanCap+9 {
		t.Fatalf("ring order wrong: first=%d last=%d", got.Spans[0].Work, got.Spans[spanCap-1].Work)
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	mk := func() *Registry {
		r := NewRegistry()
		r.Counter("b.second").Add(2)
		r.Counter("a.first").Add(1)
		r.Histogram("h.work", WorkEdges).Observe(7)
		r.Timing("t.ns").Observe(12345) // must NOT appear in default snapshot
		return r
	}
	s1, err1 := mk().Snapshot(SnapshotOptions{}).MarshalIndented()
	s2, err2 := mk().Snapshot(SnapshotOptions{}).MarshalIndented()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", s1, s2)
	}
	if bytes.Contains(s1, []byte("t.ns")) || bytes.Contains(s1, []byte("timings")) {
		t.Fatalf("default snapshot leaked timing data:\n%s", s1)
	}
	full := mk().Snapshot(SnapshotOptions{Timings: true})
	if full.Timings["t.ns"].Count != 1 {
		t.Fatalf("timings section missing: %+v", full.Timings)
	}
}

func TestResetZeroesEverything(t *testing.T) {
	r := NewRegistry()
	r.EnableTracing(true)
	c := r.Counter("c")
	h := r.Histogram("h", WorkEdges)
	c.Add(3)
	h.Observe(5)
	sp := r.StartSpan("s", "")
	sp.End()
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("reset left counter/histogram state")
	}
	if got := r.Snapshot(SnapshotOptions{Spans: true}); len(got.Spans) != 0 {
		t.Fatal("reset left spans")
	}
	// Instruments remain registered and usable after Reset.
	c.Inc()
	if r.Counter("c").Value() != 1 {
		t.Fatal("counter identity lost across Reset")
	}
}

func TestWriteSnapshotAtomic(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(9)
	path := filepath.Join(t.TempDir(), "sub", "metrics.json")
	if err := r.WriteSnapshot(path, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["x"] != 9 {
		t.Fatalf("counters = %v", snap.Counters)
	}
	if data[len(data)-1] != '\n' {
		t.Fatal("snapshot missing trailing newline")
	}
}

func TestServeDebugEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("served").Add(4)
	srv, addr, err := r.ServeDebugWith("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.Counters["served"] != 4 {
		t.Fatalf("/metrics counters = %v", snap.Counters)
	}
	if code, _ := get("/debug/vars"); code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
}

func TestDefaultRegistryHelpers(t *testing.T) {
	c := NewCounter("telemetry_test.default")
	h := NewHistogram("telemetry_test.hist", WorkEdges)
	tm := NewTiming("telemetry_test.timing")
	c.Inc()
	h.Observe(1)
	tm.Observe(1)
	snap := Default().Snapshot(SnapshotOptions{Timings: true})
	if snap.Counters["telemetry_test.default"] < 1 {
		t.Fatal("default counter not registered")
	}
	if snap.Histograms["telemetry_test.hist"].Count < 1 {
		t.Fatal("default histogram not registered")
	}
	if snap.Timings["telemetry_test.timing"].Count < 1 {
		t.Fatal("default timing not registered")
	}
}

func TestMergeHistogramSnapshots(t *testing.T) {
	mk := func(obs ...int64) HistogramSnapshot {
		r := NewRegistry()
		h := r.Histogram("h", []int64{10, 100})
		for _, v := range obs {
			h.Observe(v)
		}
		return r.Snapshot(SnapshotOptions{}).Histograms["h"]
	}
	m, ok := MergeHistogramSnapshots(mk(5, 50), mk(500, 7))
	if !ok {
		t.Fatal("same-layout merge refused")
	}
	if m.Count != 4 || m.Sum != 562 || m.Min != 5 || m.Max != 500 {
		t.Fatalf("merged = %+v", m)
	}
	if m.Buckets[0] != 2 || m.Buckets[1] != 1 || m.Buckets[2] != 1 {
		t.Fatalf("merged buckets = %v", m.Buckets)
	}

	// Min/Max from an empty side must not poison the merge (an empty
	// snapshot's Min/Max are zero values, not observations).
	m, ok = MergeHistogramSnapshots(mk(), mk(50))
	if !ok || m.Count != 1 || m.Min != 50 || m.Max != 50 {
		t.Fatalf("empty-left merge = %+v ok=%v", m, ok)
	}
	m, ok = MergeHistogramSnapshots(mk(50), mk())
	if !ok || m.Count != 1 || m.Min != 50 || m.Max != 50 {
		t.Fatalf("empty-right merge = %+v ok=%v", m, ok)
	}

	// Differing edge vectors refuse to merge.
	other := NewRegistry()
	other.Histogram("h", []int64{1, 2, 3}).Observe(1)
	if _, ok := MergeHistogramSnapshots(mk(5), other.Snapshot(SnapshotOptions{}).Histograms["h"]); ok {
		t.Fatal("cross-layout merge accepted")
	}
}
