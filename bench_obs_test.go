// Observability-layer benchmarks: the Prometheus exposition render (the
// per-scrape cost every debug-mux scrape pays) and the fleet trace merge.
// TestBench (bench_micro_test.go) records them.
package cpsguard

import (
	"fmt"
	"testing"
	"time"

	"cpsguard/internal/telemetry"
)

// benchObsRegistry builds a registry shaped like a real sweep's: a few dozen
// counters and a handful of populated histograms/timings.
func benchObsRegistry() *telemetry.Registry {
	r := telemetry.NewRegistry()
	for i := 0; i < 40; i++ {
		r.Counter(fmt.Sprintf("bench.counter_%02d", i)).Add(int64(i * 17))
	}
	for i := 0; i < 4; i++ {
		h := r.Histogram(fmt.Sprintf("bench.hist_%d", i), telemetry.WorkEdges)
		tm := r.Timing(fmt.Sprintf("bench.timing_%d_ns", i))
		for v := int64(1); v < 1_000_000; v *= 3 {
			h.Observe(v)
			tm.Observe(v)
		}
	}
	return r
}

// BenchmarkPromExposition times one full exposition render — snapshot plus
// deterministic text encoding — of a sweep-sized registry.
func BenchmarkPromExposition(b *testing.B) {
	r := benchObsRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.PrometheusText()) == 0 {
			b.Fatal("empty exposition")
		}
	}
}

// benchFleetTraces builds an n-process fleet of linked Chrome traces, each
// with spansPer spans, for the merge benchmark.
func benchFleetTraces(tb testing.TB, n, spansPer int) []*telemetry.ChromeTrace {
	tb.Helper()
	tick := func(r *telemetry.Registry) {
		c := 0
		r.SetClock(func() time.Time {
			c++
			return time.Unix(0, int64(c)*int64(time.Millisecond))
		})
	}
	parent := telemetry.NewRegistry()
	tick(parent)
	parent.EnableTracing(true)
	parent.SetSpanCapacity(spansPer + 8)
	root := parent.StartSpan("shard.supervise", "bench")
	traces := make([]*telemetry.ChromeTrace, 0, n)
	for i := 1; i < n; i++ {
		launch := parent.StartSpan("shard.child", fmt.Sprintf("%d", i))
		tc, ok := parent.ChildTraceContext(launch)
		if !ok {
			tb.Fatal("no child trace context")
		}
		child := telemetry.NewRegistry()
		tick(child)
		child.SetTraceContext(tc)
		child.EnableTracing(true)
		child.SetSpanCapacity(spansPer + 8)
		for k := 0; k < spansPer; k++ {
			child.StartSpan("experiments.trial", fmt.Sprintf("t%d", k)).End()
		}
		launch.End()
		snap := child.Snapshot(telemetry.SnapshotOptions{Spans: true})
		snap.PID = 1000 + i
		traces = append(traces, snap.ChromeTrace())
	}
	root.End()
	snap := parent.Snapshot(telemetry.SnapshotOptions{Spans: true})
	snap.PID = 1000
	return append([]*telemetry.ChromeTrace{snap.ChromeTrace()}, traces...)
}

// BenchmarkTraceMerge times stitching an 8-process fleet (250 spans per
// child) into one timeline, including link validation.
func BenchmarkTraceMerge(b *testing.B) {
	traces := benchFleetTraces(b, 8, 250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := telemetry.MergeChromeTraces(traces)
		if err != nil {
			b.Fatal(err)
		}
		if stats.UnresolvedParents != 0 {
			b.Fatalf("%d unresolved parents", stats.UnresolvedParents)
		}
	}
}
