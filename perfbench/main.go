// Command perfbench times the paper's figure pipelines end to end and, in
// a separate traced run, splits their time and work by layer. See
// README.md in this directory for the workloads and metrics.
//
//	bash perfbench/run.sh --workload fig5_graph --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cpsguard/internal/core"
	"cpsguard/internal/flow"
	"cpsguard/internal/impact"
	"cpsguard/internal/stats"
)

// setupsPerSweep is how many set-ups a run times before each sweep (the
// last one feeds the sweep). Set-up takes under a millisecond, so one
// sample is noise; spreading the samples over the run keeps a short burst
// of load on the machine from moving the median.
const setupsPerSweep = 16

// goldenFig5 is the committed golden Fig. 5 fixture, relative to the
// repository root the benchmark runs from.
var goldenFig5 = filepath.Join("testdata", "golden_fig5.csv")

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fig5_graph, fig3_matrix or fig5_warm")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", *name, *trace, *seconds)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 1 {
		spanPath := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
		res, err = runTraced(w, *seed, budget, goldenFig5, spanPath)
	} else {
		res, err = runUntraced(w, *seed, budget, goldenFig5)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-44s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// sweep is one measured table regeneration.
type sweep struct {
	table *stats.Table
	err   error
	d     delta
	c     counters
}

// measure runs fn on a freshly collected heap and records its resource use
// and counter deltas.
func measure(fn func() (*stats.Table, error)) sweep {
	runtime.GC()
	u0, c0 := readUsage(), readCounters()
	tb, err := fn()
	u1, c1 := readUsage(), readCounters()
	return sweep{table: tb, err: err, d: since(u0, u1), c: c1.sub(c0)}
}

// runUntraced reports the end-to-end metrics: it regenerates the workload's
// table through the public figure entry point as often as the budget
// allows and reports medians over those sweeps.
func runUntraced(w workload, seed uint64, budget time.Duration, golden string) (*result, error) {
	workers := runtime.GOMAXPROCS(0) // one trial worker per schedulable CPU
	var ck checks
	ck.golden(golden, workers)

	var setups, walls, cpus, allocs []float64
	var trials, trialsFailed int64
	total := counters{}
	var first *stats.Table
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds()+median(walls) <= budget.Seconds() {
		var in *instance
		for i := 0; i < setupsPerSweep; i++ {
			t0 := time.Now()
			var err error
			if in, err = setup(w, seed, workers); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		sw := measure(in.figure)
		ck.expect(sw.err == nil, "%s: %v", w.name, sw.err)
		ck.table(w, sw.table)
		if first == nil {
			first = sw.table
		} else {
			ck.same(w.name+" repeat sweep", first, sw.table)
		}
		walls = append(walls, sw.d.wallS)
		cpus = append(cpus, sw.d.cpuS)
		allocs = append(allocs, sw.d.allocMB)
		trials += in.attempted.Load()
		trialsFailed += in.failed.Load()
		for n, v := range sw.c {
			total[n] += v
		}
	}
	peak := readUsage().maxRSSKB

	ck.expect(total["experiments.trials_excluded"] == 0, "%s: %v trials excluded", w.name, total["experiments.trials_excluded"])
	if w.warm {
		// The accelerators must not change a byte: replay the sweep cold.
		cold := w
		cold.warm = false
		in, err := setup(cold, seed, workers)
		if err != nil {
			return nil, err
		}
		tb, err := in.figure()
		ck.expect(err == nil, "cold reference: %v", err)
		ck.same(w.name+" vs cold", first, tb)
	}
	logNotes(ck)

	attempted := trials + int64(ck.attempted)
	failed := trialsFailed + int64(ck.failed)
	res := &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":     {median(setups), "s"},
			"wall_s":      {median(walls), "s"},
			"cpu_s":       {median(cpus), "s"},
			"alloc_mb":    {median(allocs), "MiB"},
			"peak_rss_mb": {float64(peak) / 1024, "MiB"},
			"ok_frac":     ratio(float64(attempted-failed), float64(attempted), "ok/attempt"),
		},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d workers, %d setups, sweep walls %.3f s\n",
		w.name, seed, workers, len(setups), walls)
	return res, nil
}

// runTraced reports the per-layer metrics. Each round runs the figure
// untraced, then replays the same sweep trial by trial through the public
// calls a trial makes, each wrapped in a span, then probes the dispatch
// layer on its own. Values are medians over the rounds the budget allows.
func runTraced(w workload, seed uint64, budget time.Duration, golden, spanPath string) (*result, error) {
	workers := runtime.GOMAXPROCS(0) // one trial worker per schedulable CPU
	var ck checks
	ck.golden(golden, workers)

	var rounds []map[string]metric
	var trials, trialsFailed int64
	var lastSpans []span
	start := time.Now()
	var roundS float64
	for len(rounds) == 0 || time.Since(start).Seconds()+roundS <= budget.Seconds() {
		r0 := time.Now()
		plain, err := setup(w, seed, workers)
		if err != nil {
			return nil, err
		}
		base := measure(plain.figure)
		ck.expect(base.err == nil, "%s: %v", w.name, base.err)
		ck.table(w, base.table)

		in, err := setup(w, seed, workers)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		rep := measure(func() (*stats.Table, error) { return in.replay(tr) })
		ck.expect(rep.err == nil, "%s replay: %v", w.name, rep.err)
		ck.same(w.name+" traced replay vs untraced", base.table, rep.table)
		ck.expect(base.c["experiments.trials_excluded"] == 0, "%s: trials excluded", w.name)

		probes, probeS, err := in.probeFlow()
		ck.expect(err == nil, "flow probe: %v", err)

		rounds = append(rounds, layerMetrics(in, base, rep, tr.spans, probes, probeS, workers))
		lastSpans = tr.spans
		trials += plain.attempted.Load() + in.attempted.Load()
		trialsFailed += plain.failed.Load() + in.failed.Load()
		roundS = time.Since(r0).Seconds()
	}
	if err := writeSpans(spanPath, lastSpans); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: spans not written: %v\n", err)
	}
	logNotes(ck)

	attempted := trials + int64(ck.attempted)
	failed := trialsFailed + int64(ck.failed)
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for name, m := range rounds[0] {
		vals := make([]float64, len(rounds))
		for i, r := range rounds {
			vals[i] = r[name].Value
		}
		res.Metrics[name] = metric{median(vals), m.Unit}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d traced rounds, %d workers, spans in %s\n",
		w.name, seed, len(rounds), workers, spanPath)
	return res, nil
}

func logNotes(ck checks) {
	for _, n := range ck.notes {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", n)
	}
}

// probeFlow times flow.DispatchOpts on every scenario's baseline graph and
// on each of its single-outage graphs, warm-started from the baseline
// basis when the workload warm-starts. It includes the LP solve, which
// flow's unexported LP construction does not let a caller separate.
func (in *instance) probeFlow() (n int, seconds float64, err error) {
	for _, actors := range in.w.actorGrid() {
		for _, s := range in.scens[actors] {
			var opts flow.Options
			opts.LP.Method = s.LPMethod
			t0 := time.Now()
			base, err := flow.DispatchOpts(s.Graph, opts)
			seconds += time.Since(t0).Seconds()
			n++
			if err != nil {
				return n, seconds, err
			}
			if s.WarmStart {
				opts.LP.WarmStart = base.Basis
			}
			for _, t := range s.Targets {
				g, err := impact.Apply(s.Graph, impact.Outage(t.ID))
				if err != nil {
					return n, seconds, err
				}
				t0 := time.Now()
				_, err = flow.DispatchOpts(g, opts)
				seconds += time.Since(t0).Seconds()
				n++
				if err != nil {
					return n, seconds, err
				}
			}
		}
	}
	return n, seconds, nil
}

// layerMetrics derives one traced round's per-layer metrics. Counters come
// from the traced replay (the flow probe runs after they are read); GC and
// CPU use come from the untraced sweep, which they describe without
// tracing cost.
func layerMetrics(in *instance, base, rep sweep, spans []span, probes int, probeS float64, workers int) map[string]metric {
	c := rep.c
	st := summarize(spans)
	busy := func(name string) metric { return metric{st[name].Busy.Seconds(), "s"} }
	scenarios := 0
	for _, ss := range in.scens {
		scenarios += len(ss)
	}
	matrices := scenarios              // every scenario computes its truth once
	if in.w.noise == core.GraphNoise { // every noisy view re-derives a matrix
		matrices += st[spanPerturb].Count
	}
	targets := len(in.scens[in.w.actorGrid()[0]][0].Targets)
	poolWorkers := min(workers, in.w.trials)
	m := map[string]metric{
		"lp.solves":              {c["lp.solves"], "count"},
		"lp.pivots":              {c["lp.pivots"], "count"},
		"lp.pivots_per_solve":    ratio(c["lp.pivots"], c["lp.solves"], "pivots/solve"),
		"lp.phase1_solves":       {c["lp.phase1_solves"], "count"},
		"lp.warm_attempts":       {c["lp.warm_attempts"], "count"},
		"lp.warm_fallbacks":      {c["lp.warm_fallbacks"], "count"},
		"lp.warm_fallback_ratio": ratio(c["lp.warm_fallbacks"], c["lp.warm_attempts"], "fallback/attempt"),

		"flow.dispatches":  {float64(probes), "count"},
		"flow.dispatch_s":  {probeS, "s"},
		"flow.dispatch_us": ratio(probeS*1e6, float64(probes), "us/dispatch"),

		"core.truth_s":    busy(spanTruth),
		"core.view_s":     busy(spanView),
		"impact.matrices": {float64(matrices), "count"},
		"impact.columns":  {float64(matrices * targets), "count"},

		"solvecache.hits":      {c["solvecache.hits"], "count"},
		"solvecache.misses":    {c["solvecache.misses"], "count"},
		"solvecache.hit_ratio": ratio(c["solvecache.hits"], c["solvecache.hits"]+c["solvecache.misses"], "hit/lookup"),

		"adversary.solves":          {c["adversary.solves"], "count"},
		"adversary.solve_s":         busy(spanSolve),
		"adversary.nodes":           {c["adversary.nodes"], "count"},
		"adversary.nodes_per_solve": ratio(c["adversary.nodes"], c["adversary.solves"], "nodes/solve"),
		"adversary.evaluations":     {c["adversary.evaluations"], "count"},
		"adversary.unproven_exits":  {c["adversary.unproven_exits"], "count"},
		"adversary.unproven_frac":   ratio(c["adversary.unproven_exits"], c["adversary.solves"], "unproven/solve"),
		"adversary.fallbacks":       {c["adversary.fallbacks"], "count"},

		"defense.pa_estimate_s": busy(spanPa),
		"defense.pa_samples":    {c["defense.pa_samples"], "count"},
		"defense.plan_s":        busy(spanPlan),
		"knapsack.solves":       {c["knapsack.solves"], "count"},
		"knapsack.nodes":        {c["knapsack.nodes"], "count"},

		"noise.view_s": busy(spanPerturb),

		"experiments.trials":       {base.c["experiments.trials"], "count"},
		"experiments.point_wait_s": {pointWait(spans, poolWorkers).Seconds(), "s"},
		"parallel.utilization":     ratio(base.d.cpuS, base.d.wallS*float64(workers), "cpu_s/core_s"),

		"gc.cycles":  {float64(base.d.gcCycles), "count"},
		"gc.pause_s": {base.d.gcPauseS, "s"},

		"trace.overhead_s": {rep.d.wallS - base.d.wallS, "s"},
	}
	for _, name := range spanNames {
		s := st[name]
		m["span."+name+".busy_s"] = metric{s.Busy.Seconds(), "s"}
		m["span."+name+".self_s"] = metric{s.Self.Seconds(), "s"}
		m["span."+name+".count"] = metric{float64(s.Count), "count"}
	}
	return m
}
