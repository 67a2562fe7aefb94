package telemetry

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cpsguard/internal/telemetry/promtest"
)

// populate fills a registry with one of every instrument kind, with a fixed
// observation sequence so two populated registries render identical bytes.
func populate(r *Registry) {
	r.Counter("lp.pivots").Add(42)
	r.Counter("servd.requests").Add(7)
	h := r.Histogram("lp.work_per_solve", WorkEdges)
	for _, v := range []int64{1, 3, 250, 1_000_000, 5_000_000} {
		h.Observe(v)
	}
	d := r.Histogram("checkpoint.retry_depth", DepthEdges)
	d.Observe(0)
	d.Observe(2)
	tm := r.Timing("servd.request_latency_ns")
	tm.Observe(1_500)
	tm.Observe(2_000_000)
}

func TestPromExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	populate(r)
	out := r.PrometheusText()
	fams, order, err := promtest.Parse(out)
	if err != nil {
		t.Fatalf("own exposition failed the strict parser: %v\n%s", err, out)
	}
	if len(fams) != 5 {
		t.Fatalf("families = %d (%v), want 5", len(fams), order)
	}
	c := fams["cpsguard_lp_pivots"]
	if c == nil || c.Type != "counter" || c.Samples[0].Value != 42 {
		t.Fatalf("lp.pivots family: %+v", c)
	}
	h := fams["cpsguard_lp_work_per_solve"]
	if h == nil || h.Type != "histogram" {
		t.Fatalf("work histogram: %+v", h)
	}
	// Spot-check cumulation: values 1,3,250,1e6,5e6 → le="500" holds 3,
	// +Inf holds 5.
	var le500, leInf, count, sum float64
	for _, s := range h.Samples {
		switch {
		case s.Name == "cpsguard_lp_work_per_solve_bucket" && s.Labels["le"] == "500":
			le500 = s.Value
		case s.Name == "cpsguard_lp_work_per_solve_bucket" && s.Labels["le"] == "+Inf":
			leInf = s.Value
		case s.Name == "cpsguard_lp_work_per_solve_count":
			count = s.Value
		case s.Name == "cpsguard_lp_work_per_solve_sum":
			sum = s.Value
		}
	}
	if le500 != 3 || leInf != 5 || count != 5 || sum != 6000254 {
		t.Fatalf("le500=%g leInf=%g count=%g sum=%g", le500, leInf, count, sum)
	}
	// Timings render as histogram families too.
	if tm := fams["cpsguard_servd_request_latency_ns"]; tm == nil || tm.Type != "histogram" {
		t.Fatalf("timing family: %+v", tm)
	}
}

func TestPromExpositionByteStable(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	populate(a)
	populate(b)
	if !bytes.Equal(a.PrometheusText(), b.PrometheusText()) {
		t.Fatal("identical registry states rendered different exposition bytes")
	}
	// And rendering the same registry twice is stable.
	if !bytes.Equal(a.PrometheusText(), a.PrometheusText()) {
		t.Fatal("re-rendering one registry produced different bytes")
	}
}

func TestPromExpositionSortedAndPrefixed(t *testing.T) {
	r := NewRegistry()
	populate(r)
	_, order, err := promtest.Parse(r.PrometheusText())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range order {
		if !strings.HasPrefix(n, "cpsguard_") {
			t.Fatalf("family %q missing namespace prefix", n)
		}
	}
	// Counters come first (sorted), then histograms, then timings.
	want := []string{
		"cpsguard_lp_pivots",
		"cpsguard_servd_requests",
		"cpsguard_checkpoint_retry_depth",
		"cpsguard_lp_work_per_solve",
		"cpsguard_servd_request_latency_ns",
	}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %q, want %q (full: %v)", i, order[i], want[i], order)
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"lp.pivots":                "cpsguard_lp_pivots",
		"servd.route.run.requests": "cpsguard_servd_route_run_requests",
		"parallel.queue_wait_ns":   "cpsguard_parallel_queue_wait_ns",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromHandlerOnDebugMux(t *testing.T) {
	r := NewRegistry()
	populate(r)
	srv := httptest.NewServer(r.DebugMux())
	defer srv.Close()
	get := func() ([]byte, string) {
		resp, err := http.Get(srv.URL + "/metrics/prom")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body, resp.Header.Get("Content-Type")
	}
	body, ctype := get()
	if !strings.Contains(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("content type = %q", ctype)
	}
	if _, _, err := promtest.Parse(body); err != nil {
		t.Fatalf("served exposition unparseable: %v", err)
	}
	// Byte-stable across scrapes of a settled registry.
	again, _ := get()
	if !bytes.Equal(body, again) {
		t.Fatal("two scrapes of a settled registry differ")
	}
}

func TestPromInfBucketAbsorbsOverflow(t *testing.T) {
	r := NewRegistry()
	h := r.Timing("x.latency_ns")
	h.Observe(time.Hour.Nanoseconds()) // beyond the last 10s edge
	fams, _, err := promtest.Parse(r.PrometheusText())
	if err != nil {
		t.Fatal(err)
	}
	f := fams["cpsguard_x_latency_ns"]
	for _, s := range f.Samples {
		if s.Name == "cpsguard_x_latency_ns_bucket" && s.Labels["le"] != "+Inf" && s.Value != 0 {
			t.Fatalf("finite bucket le=%s holds overflow observation", s.Labels["le"])
		}
		if s.Name == "cpsguard_x_latency_ns_bucket" && s.Labels["le"] == "+Inf" && s.Value != 1 {
			t.Fatalf("+Inf bucket = %g, want 1", s.Value)
		}
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	bad := map[string]string{
		"sample before TYPE":   "cpsguard_x 1\n",
		"unsupported type":     "# TYPE cpsguard_x gauge\ncpsguard_x 1\n",
		"duplicate family":     "# TYPE cpsguard_x counter\ncpsguard_x 1\n# TYPE cpsguard_x counter\ncpsguard_x 2\n",
		"duplicate sample":     "# TYPE cpsguard_x counter\ncpsguard_x 1\ncpsguard_x 2\n",
		"foreign sample":       "# TYPE cpsguard_x counter\ncpsguard_y 1\n",
		"uppercase name":       "# TYPE cpsguard_X counter\ncpsguard_X 1\n",
		"negative counter":     "# TYPE cpsguard_x counter\ncpsguard_x -1\n",
		"labeled counter":      "# TYPE cpsguard_x counter\ncpsguard_x{a=\"b\"} 1\n",
		"bad value":            "# TYPE cpsguard_x counter\ncpsguard_x banana\n",
		"stray comment":        "# smuggled\n",
		"histogram no buckets": "# TYPE cpsguard_h histogram\ncpsguard_h_sum 1\ncpsguard_h_count 1\n",
		"histogram no +Inf": "# TYPE cpsguard_h histogram\n" +
			"cpsguard_h_bucket{le=\"1\"} 1\ncpsguard_h_sum 1\ncpsguard_h_count 1\n",
		"histogram not cumulative": "# TYPE cpsguard_h histogram\n" +
			"cpsguard_h_bucket{le=\"1\"} 2\ncpsguard_h_bucket{le=\"+Inf\"} 1\n" +
			"cpsguard_h_sum 1\ncpsguard_h_count 1\n",
		"histogram count mismatch": "# TYPE cpsguard_h histogram\n" +
			"cpsguard_h_bucket{le=\"1\"} 1\ncpsguard_h_bucket{le=\"+Inf\"} 2\n" +
			"cpsguard_h_sum 1\ncpsguard_h_count 3\n",
		"histogram missing sum": "# TYPE cpsguard_h histogram\n" +
			"cpsguard_h_bucket{le=\"+Inf\"} 1\ncpsguard_h_count 1\n",
		"descending les": "# TYPE cpsguard_h histogram\n" +
			"cpsguard_h_bucket{le=\"2\"} 1\ncpsguard_h_bucket{le=\"1\"} 1\n" +
			"cpsguard_h_bucket{le=\"+Inf\"} 1\ncpsguard_h_sum 1\ncpsguard_h_count 1\n",
	}
	for name, text := range bad {
		if _, _, err := promtest.Parse([]byte(text)); err == nil {
			t.Errorf("%s: accepted\n%s", name, text)
		}
	}
	// HELP lines are tolerated (other emitters include them).
	ok := "# HELP cpsguard_x something\n# TYPE cpsguard_x counter\ncpsguard_x 1\n"
	if _, _, err := promtest.Parse([]byte(ok)); err != nil {
		t.Errorf("HELP line rejected: %v", err)
	}
}
