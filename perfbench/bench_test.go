package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"cpsguard/internal/parallel"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// Two trials overlap under one point, as they do on a two-worker pool, and
// one child pokes out of its parent: self time must subtract the union of
// the children, clipped to the parent, exactly once.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanPoint, Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Name: spanTrial, Start: ms(1), End: ms(6)}, // worker 1
		{ID: 3, Parent: 1, Name: spanTrial, Start: ms(3), End: ms(9)}, // worker 2
		{ID: 4, Parent: 2, Name: spanSolve, Start: ms(2), End: ms(4)},
		{ID: 5, Parent: 2, Name: spanSolve, Start: ms(3), End: ms(5)},
		{ID: 6, Parent: 3, Name: spanSolve, Start: ms(8), End: ms(12)}, // clipped at 9
	}
	st := summarize(spans)
	want := map[string]spanStat{
		spanPoint: {Count: 1, Busy: ms(10), Self: ms(2)},                // 10 − |[1,9]|
		spanTrial: {Count: 2, Busy: ms(11), Self: ms(2) + ms(5)},        // (5 − |[2,5]|) + (6 − |[8,9]|)
		spanSolve: {Count: 3, Busy: ms(2) + ms(2) + ms(4), Self: ms(8)}, // leaves
	}
	for name, w := range want {
		if got := st[name]; got != w {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
		}
	}
	// Wall 10 ms, 11 ms of trial work over 2 workers: 4.5 ms waiting.
	if got := pointWait(spans, 2); got != ms(10)-ms(11)/2 {
		t.Errorf("pointWait = %v, want 4.5ms", got)
	}
}

// The tracer is written by every trial worker at once; spans must keep
// unique IDs and their parent links, and children must fit their parents.
func TestTracerConcurrentWorkers(t *testing.T) {
	tr := newTracer()
	root := tr.start(0, spanPoint, "p")
	_, errs, _ := parallel.MapSettle(8, parallel.Options{Workers: 2},
		func(_ context.Context, i int) (int, error) {
			sp := tr.start(root.id(), spanTrial, "")
			defer sp.end()
			_, err := traced(tr, sp.id(), spanSolve, func() (int, error) {
				time.Sleep(time.Millisecond)
				return i, nil
			})
			return i, err
		})
	root.end()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	ids := map[int]span{}
	for _, s := range tr.spans {
		if _, dup := ids[s.ID]; dup {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		ids[s.ID] = s
	}
	for _, s := range tr.spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := ids[s.Parent]
		if !ok || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d (%s) not inside its parent %d", s.ID, s.Name, s.Parent)
		}
	}
	st := summarize(tr.spans)
	if st[spanTrial].Count != 8 || st[spanSolve].Count != 8 {
		t.Fatalf("counts %+v", st)
	}
	if st[spanPoint].Self > st[spanPoint].Busy || st[spanTrial].Self > st[spanTrial].Busy {
		t.Errorf("self time exceeds busy time: %+v", st)
	}
}

func TestRatioReportsBase(t *testing.T) {
	if got := ratio(6, 3, "pivots/solve"); got != (metric{2, "pivots/solve"}) {
		t.Errorf("ratio(6,3) = %+v", got)
	}
	// A bypassed layer has no base: report 0, never NaN or Inf.
	if got := ratio(0, 0, "hit/lookup"); got != (metric{0, "hit/lookup"}) {
		t.Errorf("ratio(0,0) = %+v", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// manifest reads the metric names and units BENCHMARK.json declares.
func manifest(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, x := range m.EndToEnd {
		e2e[x.Name] = x.Unit
	}
	for _, x := range m.PerLayer {
		layer[x.Name] = x.Unit
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !contains(names, w.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
	return e2e, layer
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	var missing, extra []string
	for n, u := range want {
		if m, ok := got[n]; !ok || m.Unit != u {
			missing = append(missing, n)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			extra = append(extra, n)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		t.Errorf("%s: missing or wrong unit %v, undeclared %v", what, missing, extra)
	}
}

// A tiny-size run of every workload, untraced and traced: every check
// passes, the replay reproduces the figure byte for byte, and the metrics
// are exactly the ones BENCHMARK.json declares.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the figure pipelines")
	}
	e2e, layer := manifest(t)
	golden := filepath.Join("..", "testdata", "golden_fig5.csv")
	for _, w := range workloads {
		w.actors, w.sigmas, w.trials = []int{2}, []float64{0, 0.2}, 2
		t.Run(w.name, func(t *testing.T) {
			res, err := runUntraced(w, 3, time.Nanosecond, golden)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || !finite(res.Metrics) {
				t.Errorf("untraced: %+v", res)
			}
			sameMetrics(t, "untraced", res.Metrics, e2e)

			res, err = runTraced(w, 3, time.Nanosecond, golden, filepath.Join(t.TempDir(), "spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || !finite(res.Metrics) {
				t.Errorf("traced: %+v", res)
			}
			sameMetrics(t, "traced", res.Metrics, layer)
			for n, m := range res.Metrics {
				quotient := strings.Contains(n, "ratio") || strings.Contains(n, "_per_") ||
					strings.HasSuffix(n, "_frac") || strings.HasSuffix(n, "_us") || n == "parallel.utilization"
				if quotient && !strings.Contains(m.Unit, "/") {
					t.Errorf("%s is a ratio but its unit %q names no base", n, m.Unit)
				}
			}
			if res.Metrics["experiments.trials"].Value != 4 || res.Metrics["span.trial.count"].Value != 4 {
				t.Errorf("trials: %v counted, %v traced; want 4",
					res.Metrics["experiments.trials"].Value, res.Metrics["span.trial.count"].Value)
			}
		})
	}
}

// finite reports whether every value is a finite number, as JSON needs.
func finite(ms map[string]metric) bool {
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return false
		}
	}
	return true
}
