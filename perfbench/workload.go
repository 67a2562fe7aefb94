package main

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"cpsguard/internal/adversary"
	"cpsguard/internal/core"
	"cpsguard/internal/defense"
	"cpsguard/internal/experiments"
	"cpsguard/internal/graph"
	"cpsguard/internal/impact"
	"cpsguard/internal/noise"
	"cpsguard/internal/parallel"
	"cpsguard/internal/rng"
	"cpsguard/internal/solvecache"
	"cpsguard/internal/stats"
	"cpsguard/internal/westgrid"
)

// Defaults the figures fall back to when the config leaves them unset;
// the replay needs them spelled out to make the same public calls.
const (
	fig5ActorBudget  = 12.0 // experiments.Config.SystemDefenseBudget default
	fig5AttackBudget = 1.0  // Fig. 5's fixed single-asset attack
	fig3AttackBudget = 6.0  // experiments.Config.AttackBudget default
	paSamples        = 16   // core.GameConfig.PaSamples default
	solveCacheSize   = 8192 // the documented cpsexp -solve-cache size
)

// Span names recorded by the traced replay.
const (
	spanPoint    = "point"
	spanTrial    = "trial"
	spanTruth    = "core.Scenario.Truth"
	spanView     = "core.Scenario.View"
	spanScreen   = "core.Scenario.ScreenRanking"
	spanSolve    = "adversary.SolveResilient"
	spanEvaluate = "adversary.Evaluate"
	spanPa       = "defense.EstimateAttackProbOpts"
	spanPlan     = "defense.PlanAllIndependent"
	spanPerturb  = "noise.Perturb"
)

var spanNames = []string{spanPoint, spanTrial, spanTruth, spanView, spanScreen,
	spanSolve, spanEvaluate, spanPa, spanPlan, spanPerturb}

// workload is one figure pipeline at a fixed size.
type workload struct {
	name   string
	fig3   bool // Fig. 3 (SA profit vs her σ); otherwise Fig. 5
	noise  core.NoiseMode
	warm   bool // WarmStart plus a shared, initially empty solve cache
	trials int
	// actors and sigmas override the figure's default axes (tests only).
	actors []int
	sigmas []float64
}

var workloads = []workload{
	{name: "fig5_graph", noise: core.GraphNoise, trials: 2},
	{name: "fig3_matrix", fig3: true, noise: core.MatrixNoise, trials: 6},
	{name: "fig5_warm", noise: core.GraphNoise, warm: true, trials: 2},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) actorGrid() []int {
	if len(w.actors) > 0 {
		return w.actors
	}
	return []int{2, 4, 6, 12}
}

func (w workload) sigmaGrid() []float64 {
	if len(w.sigmas) > 0 {
		return w.sigmas
	}
	return []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
}

// instance is what set-up builds before a sweep: the grid, the figure
// config with a fresh cache, and the scenarios the replay plays. The
// untraced figure builds its own scenarios from the same seeds.
type instance struct {
	w     workload
	cfg   experiments.Config
	seed  uint64 // effective seed (the figures map 0 to 1)
	scens map[int][]*core.Scenario
	// attempted and failed count settled trials through OnSettle.
	attempted, failed atomic.Int64
}

// setup builds a sweep's inputs. Every call starts from an empty cache, as
// every cpsexp run does.
func setup(w workload, seed uint64, workers int) (*instance, error) {
	if seed == 0 {
		seed = 1
	}
	g := westgrid.Build(westgrid.Options{Stress: true})
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	in := &instance{w: w, seed: seed, scens: map[int][]*core.Scenario{}}
	in.cfg = experiments.Config{
		Graph:     g,
		Trials:    w.trials,
		Seed:      seed,
		NoiseMode: w.noise,
		ActorGrid: w.actors,
		SigmaGrid: w.sigmas,
		WarmStart: w.warm,
		Parallel: parallel.Options{Workers: workers, OnSettle: func(_ int, err error) {
			in.attempted.Add(1)
			if err != nil {
				in.failed.Add(1)
			}
		}},
	}
	if w.warm {
		in.cfg.Cache = solvecache.New(solveCacheSize)
	}
	for _, n := range w.actorGrid() {
		for trial := 0; trial < w.trials; trial++ {
			in.scens[n] = append(in.scens[n], in.scenario(g, n, trial))
		}
	}
	return in, nil
}

// scenario mirrors the figures' per-trial scenario construction.
func (in *instance) scenario(g *graph.Graph, n, trial int) *core.Scenario {
	s := core.NewScenario(g, n, in.seed^(uint64(n)<<32)^uint64(trial)*0x9E37)
	s.Parallel = parallel.Options{Workers: 1} // trials already parallel
	s.Cache = in.cfg.Cache
	s.WarmStart = in.cfg.WarmStart
	s.LPMethod = in.cfg.LPMethod
	return s
}

// figure regenerates the workload's table through the public entry point.
func (in *instance) figure() (*stats.Table, error) {
	if in.w.fig3 {
		return experiments.Fig3(in.cfg)
	}
	return experiments.Fig5(in.cfg)
}

// replay rebuilds the same table by issuing, trial by trial, the public
// calls the figure makes, each wrapped in a span. The table must come out
// byte-identical to figure's.
func (in *instance) replay(tr *tracer) (*stats.Table, error) {
	fig, t := "fig5", &stats.Table{
		Title:  "Fig 5: defense effectiveness vs defender noise",
		XLabel: "sigma",
		YLabel: "impact reduction ($k/day)",
	}
	if in.w.fig3 {
		fig, t = "fig3", &stats.Table{
			Title:  "Fig 3: SA profitability vs knowledge noise",
			XLabel: "sigma",
			YLabel: "SA realized profit ($k/day)",
		}
	}
	for _, n := range in.w.actorGrid() {
		series := t.AddSeries(fmt.Sprintf("%d actors", n))
		scens := in.scens[n]
		for _, sigma := range in.w.sigmaGrid() {
			mean, se, err := in.point(tr, fmt.Sprintf("%s n=%d σ=%v", fig, n, sigma),
				func(ctx context.Context, trial, parent int) (float64, error) {
					if in.w.fig3 {
						return in.fig3Trial(ctx, tr, parent, scens[trial], sigma, trial)
					}
					return in.fig5Trial(ctx, tr, parent, scens[trial], n, sigma, trial)
				})
			if err != nil {
				return nil, err
			}
			series.Add(sigma, mean, se)
		}
	}
	return t, nil
}

// point runs one figure point's trials on the figure's pool and aggregates
// them exactly as the figures do (strict fault policy: any failed trial
// fails the point).
func (in *instance) point(tr *tracer, label string,
	fn func(ctx context.Context, trial, parent int) (float64, error)) (mean, stderr float64, err error) {
	psp := tr.start(0, spanPoint, label)
	defer psp.end()
	vals, errs, ctxErr := parallel.MapSettle(in.w.trials, in.cfg.Parallel,
		func(ctx context.Context, trial int) (float64, error) {
			tsp := tr.start(psp.id(), spanTrial, fmt.Sprintf("%s t%d", label, trial))
			defer tsp.end()
			return fn(ctx, trial, tsp.id())
		})
	if ctxErr != nil {
		return 0, 0, ctxErr
	}
	for trial, e := range errs {
		if e != nil {
			return 0, 0, fmt.Errorf("%s trial %d: %w", label, trial, e)
		}
	}
	var sum, sumSq float64
	for _, v := range vals {
		sum += v
		sumSq += v * v
	}
	m := float64(len(vals))
	mean = sum / m
	if len(vals) > 1 {
		variance := (sumSq - sum*sum/m) / (m - 1)
		if variance < 0 {
			variance = 0
		}
		stderr = math.Sqrt(variance / m)
	}
	return mean, stderr, nil
}

// traced runs fn inside a span named name under parent.
func traced[T any](tr *tracer, parent int, name string, fn func() (T, error)) (T, error) {
	sp := tr.start(parent, name, "")
	defer sp.end()
	return fn()
}

// view wraps Scenario.View and, when the view is noisy, probes the
// perturbation it performs inside: the same noise call on an identical
// stream, timed on its own.
func (in *instance) view(tr *tracer, parent int, s *core.Scenario, sigma float64,
	seed, index uint64) (*impact.Matrix, error) {
	if sigma != 0 {
		sp := tr.start(parent, spanPerturb, "")
		if in.w.noise == core.GraphNoise {
			noise.Perturb(s.Graph, noise.Model{Sigma: sigma}, rng.Derive(seed, index))
		} else if truth, err := s.Truth(); err == nil {
			noise.PerturbMatrix(truth.IM, sigma, rng.Derive(seed, index))
		}
		sp.end()
	}
	return traced(tr, parent, spanView, func() (*impact.Matrix, error) {
		return s.View(sigma, in.w.noise, rng.Derive(seed, index))
	})
}

// fig5Trial replays core.PlayRound for one independent-defense trial of
// experiments.Fig5.
func (in *instance) fig5Trial(ctx context.Context, tr *tracer, parent int, s *core.Scenario,
	n int, sigma float64, trial int) (float64, error) {
	seed := in.seed ^ 0xF15 ^ uint64(trial)<<20 ^ uint64(sigma*1000)
	truth, err := traced(tr, parent, spanTruth, s.Truth)
	if err != nil {
		return 0, err
	}
	rank, err := traced(tr, parent, spanScreen, s.ScreenRanking)
	if err != nil {
		return 0, err
	}
	atkView, err := in.view(tr, parent, s, 0, seed, 1) // the attacker knows the truth
	if err != nil {
		return 0, err
	}
	plan, err := traced(tr, parent, spanSolve, func() (*adversary.Plan, error) {
		return adversary.SolveResilient(adversary.Config{
			Matrix: atkView, Targets: s.Targets, Budget: fig5AttackBudget,
			Ctx: ctx, LPMethod: s.LPMethod, Screen: rank,
		})
	})
	if err != nil {
		return 0, err
	}
	defView, err := in.view(tr, parent, s, sigma, seed, 2)
	if err != nil {
		return 0, err
	}
	pa, err := traced(tr, parent, spanPa, func() (map[string]float64, error) {
		par := s.Parallel
		par.Context = ctx
		return defense.EstimateAttackProbOpts(defView, s.Targets, fig5AttackBudget,
			sigma, paSamples, seed^0xD1FA, par, defense.PaOptions{Screen: rank})
	})
	if err != nil {
		return 0, err
	}
	ids := make([]string, len(s.Targets))
	for i, t := range s.Targets {
		ids[i] = t.ID
	}
	invs, err := traced(tr, parent, spanPlan, func() (map[string]*defense.Investment, error) {
		return defense.PlanAllIndependent(defView, s.Ownership, pa,
			defense.UniformCosts(ids, 1), fig5ActorBudget/float64(n))
	})
	if err != nil {
		return 0, err
	}
	defended := defense.Union(invs)
	undef, _ := traced(tr, parent, spanEvaluate, func() (float64, error) {
		return adversary.Evaluate(plan, truth, s.Targets, adversary.EvaluateOptions{}), nil
	})
	def, _ := traced(tr, parent, spanEvaluate, func() (float64, error) {
		return adversary.Evaluate(plan, truth, s.Targets, adversary.EvaluateOptions{Defended: defended}), nil
	})
	return undef - def, nil
}

// fig3Trial replays one trial of experiments.Fig3.
func (in *instance) fig3Trial(ctx context.Context, tr *tracer, parent int, s *core.Scenario,
	sigma float64, trial int) (float64, error) {
	truth, err := traced(tr, parent, spanTruth, s.Truth)
	if err != nil {
		return 0, err
	}
	view, err := in.view(tr, parent, s, sigma, in.seed^0xF13, uint64(trial)<<16|uint64(sigma*1000))
	if err != nil {
		return 0, err
	}
	rank, err := traced(tr, parent, spanScreen, s.ScreenRanking)
	if err != nil {
		return 0, err
	}
	plan, err := traced(tr, parent, spanSolve, func() (*adversary.Plan, error) {
		return adversary.SolveResilient(adversary.Config{
			Matrix: view, Targets: s.Targets, Budget: fig3AttackBudget,
			Ctx: ctx, LPMethod: s.LPMethod, Screen: rank,
		})
	})
	if err != nil {
		return 0, err
	}
	return traced(tr, parent, spanEvaluate, func() (float64, error) {
		return adversary.Evaluate(plan, truth, s.Targets, adversary.EvaluateOptions{}), nil
	})
}
