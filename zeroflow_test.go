package cpsguard

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/adversary"
	"cpsguard/internal/core"
	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/impact"
	"cpsguard/internal/noise"
	"cpsguard/internal/rng"
	"cpsguard/internal/solvecache"
	"cpsguard/internal/telemetry"
	"cpsguard/internal/westgrid"
)

// The zero-flow skip: impact answers a perturbation set made only of
// capacity cuts on edges that carry exactly zero flow in the baseline
// dispatch from that baseline dispatch, without an LP solve (DESIGN.md §12).
// These tests hold it against a cold oracle built here, from the public
// pieces a solve is made of.

var zeroFlowSkips = telemetry.Default().Counter("impact.zero_flow_skips")

// coldProfits is the oracle for one perturbation set: apply it, dispatch
// the perturbed graph from scratch, and divide the profits on it.
func coldProfits(t *testing.T, g *graph.Graph, o actors.Ownership, ps ...impact.Perturbation) (actors.Profits, float64) {
	t.Helper()
	gp, err := impact.Apply(g, ps...)
	if err != nil {
		t.Fatalf("cold oracle: %v", err)
	}
	r, err := flow.DispatchOpts(gp, flow.Options{})
	if err != nil {
		t.Fatalf("cold oracle: %v", err)
	}
	p, err := actors.LMPDivision{}.Divide(gp, r, o)
	if err != nil {
		t.Fatalf("cold oracle: %v", err)
	}
	return p, r.Welfare
}

// coldMatrix builds the single-outage impact matrix over targets from
// coldProfits, column by column.
func coldMatrix(t *testing.T, g *graph.Graph, o actors.Ownership, targets []string) *impact.Matrix {
	t.Helper()
	base, bw := coldProfits(t, g, o)
	m := &impact.Matrix{
		IM:              map[string]map[string]float64{},
		WelfareDelta:    map[string]float64{},
		Targets:         append([]string(nil), targets...),
		Actors:          o.Actors(),
		BaselineWelfare: bw,
	}
	for _, a := range m.Actors {
		m.IM[a] = map[string]float64{}
	}
	for _, id := range targets {
		p, w := coldProfits(t, g, o, impact.Outage(id))
		m.WelfareDelta[id] = w - bw
		for a, d := range profitDeltas(p, base) {
			if m.IM[a] == nil {
				m.IM[a] = map[string]float64{}
				m.Actors = append(m.Actors, a)
			}
			m.IM[a][id] = d
		}
	}
	sort.Strings(m.Actors)
	return m
}

// profitDeltas is p − base per actor, over the actors of either side.
func profitDeltas(p, base actors.Profits) actors.Profits {
	d := actors.Profits{}
	for a, v := range p {
		d[a] = v - base[a]
	}
	for a, v := range base {
		if _, ok := p[a]; !ok {
			d[a] = -v
		}
	}
	return d
}

// zeroFlowBattery is the stressed westgrid plus 24 graph-noise draws of it,
// σ cycling over the paper's 0.1–0.5 grid.
func zeroFlowBattery() []*graph.Graph {
	truth := westgrid.Build(westgrid.Options{Stress: true})
	gs := []*graph.Graph{truth}
	for i := 0; i < 24; i++ {
		sigma := 0.1 * float64(1+i%5)
		gs = append(gs, noise.Perturb(truth, noise.Model{Sigma: sigma}, rng.New(0x2E50+uint64(i))))
	}
	return gs
}

// thinFlowGraph is a duopoly whose cheap chain is capped at 1e-7, so the
// baseline sends a tiny but nonzero flow down it: the case the skip's
// exact-zero test exists for. Its "idle" edge costs more than any buyer
// pays and carries exactly zero.
func thinFlowGraph() *graph.Graph {
	g := graph.New("thin-flow")
	g.MustAddVertex(graph.Vertex{ID: "gen1", Supply: 100, SupplyCost: 2})
	g.MustAddVertex(graph.Vertex{ID: "gen2", Supply: 100, SupplyCost: 3})
	g.MustAddVertex(graph.Vertex{ID: "city", Demand: 50, Price: 10})
	g.MustAddEdge(graph.Edge{ID: "thin", From: "gen1", To: "city", Capacity: 1e-7})
	g.MustAddEdge(graph.Edge{ID: "wide", From: "gen2", To: "city", Capacity: 100})
	g.MustAddEdge(graph.Edge{ID: "idle", From: "gen2", To: "city", Capacity: 10, Cost: 100})
	return g
}

// zeroFlowSets lists the perturbation sets the differential test prices on
// one graph, given its baseline flows, each labelled with the expectation
// the test states itself: skip only when every perturbation is a capacity
// cut within [0, capacity] of an edge with exactly zero baseline flow.
func zeroFlowSets(g *graph.Graph, flows map[string]float64) (sets [][]impact.Perturbation, skip []bool) {
	add := func(want bool, ps ...impact.Perturbation) {
		sets = append(sets, ps)
		skip = append(skip, want)
	}
	var zero, flowing []graph.Edge
	for _, e := range g.Edges {
		if flows[e.ID] == 0 {
			zero = append(zero, e)
		} else {
			flowing = append(flowing, e)
		}
	}
	// Every single-edge outage: the paper's attack, on both kinds of edge.
	for _, e := range g.Edges {
		add(flows[e.ID] == 0, impact.Outage(e.ID))
	}
	for k, e := range zero {
		if k+2 < len(zero) {
			// Multi-edge zero-flow sets: a pair and a triple.
			add(true, impact.Outage(e.ID), impact.Outage(zero[k+1].ID))
			add(true, impact.Outage(e.ID), impact.Outage(zero[k+1].ID), impact.Outage(zero[k+2].ID))
		}
		// Cuts to a non-zero value: below capacity, and exactly at it.
		add(true, impact.Perturbation{EdgeID: e.ID, Field: impact.Capacity, Value: e.Capacity / 2})
		add(true, impact.Perturbation{EdgeID: e.ID, Field: impact.Capacity, Value: e.Capacity})
		// Sets that must solve: a capacity raise, a cost or loss change
		// on the same zero-flow edge, or a cut that also hits a flowing
		// edge.
		add(false, impact.Perturbation{EdgeID: e.ID, Field: impact.Capacity, Value: 2*e.Capacity + 1})
		add(false, impact.Perturbation{EdgeID: e.ID, Field: impact.Cost, Value: e.Cost / 2})
		add(false, impact.Perturbation{EdgeID: e.ID, Field: impact.Loss, Value: (e.Loss + 0.5) / 2})
		if len(flowing) > 0 {
			add(false, impact.Outage(e.ID), impact.Outage(flowing[k%len(flowing)].ID))
		}
	}
	return sets, skip
}

// TestZeroFlowSkipMatchesColdOracle prices every set of zeroFlowSets on the
// battery and on thinFlowGraph and compares it with the cold oracle. A set takes the skip
// exactly when the test's own predicate says so; a skipped set has
// Δwelfare exactly 0 and every actor's profit within 1e-9·max(1,|cold|) of
// the cold re-solve; a solved set is bit-identical to the oracle.
func TestZeroFlowSkipMatchesColdOracle(t *testing.T) {
	graphs := zeroFlowBattery()
	if testing.Short() {
		graphs = graphs[:3]
	}
	graphs = append(graphs, thinFlowGraph())
	var skipped, multi, partial int
	for gi, g := range graphs {
		o := actors.RandomOwnership(g, 2+gi%11, rng.New(uint64(gi)+1))
		base, bw := coldProfits(t, g, o)
		br, err := flow.DispatchOpts(g, flow.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := (&impact.Analysis{Graph: g, Ownership: o}).NewEvaluator()
		if err != nil {
			t.Fatal(err)
		}
		sets, want := zeroFlowSets(g, br.Flow)
		for si, ps := range sets {
			label := fmt.Sprintf("graph %d set %d %v", gi, si, ps)
			s0 := zeroFlowSkips.Value()
			got, dw, err := ev.Of(ps...)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			took := zeroFlowSkips.Value() - s0
			if took != 0 && took != 1 {
				t.Fatalf("%s: skip counter moved by %d", label, took)
			}
			if (took == 1) != want[si] {
				t.Errorf("%s: skip taken = %v, want %v", label, took == 1, want[si])
				continue
			}
			cp, cw := coldProfits(t, g, o, ps...)
			cold := profitDeltas(cp, base)
			if !want[si] {
				if dw != cw-bw {
					t.Errorf("%s: solved Δwelfare %v != oracle %v", label, dw, cw-bw)
				}
				profitsDiff(t, label, cold, got, 0)
				continue
			}
			skipped++
			if len(ps) > 1 {
				multi++
			}
			if ps[0].Value > 0 {
				partial++
			}
			if dw != 0 {
				t.Errorf("%s: skipped Δwelfare = %v, want exactly 0", label, dw)
			}
			if !agreeWithin(cw, bw, 1e-9) {
				t.Errorf("%s: cold welfare %v vs baseline %v: the skip is not exact here", label, cw, bw)
			}
			for _, a := range unionActors(cold, got) {
				if math.Abs(got[a]-cold[a]) > 1e-9*math.Max(1, math.Abs(cp[a])) {
					t.Errorf("%s: actor %s profit delta %v vs cold %v", label, a, got[a], cold[a])
				}
			}
		}
	}
	if skipped == 0 || multi == 0 || partial == 0 {
		t.Fatalf("battery exercised %d skips (%d multi-edge, %d partial cuts); want all > 0", skipped, multi, partial)
	}
	t.Logf("%d skipped sets checked (%d multi-edge, %d partial cuts) over %d graphs", skipped, multi, partial, len(graphs))
}

func unionActors(a, b actors.Profits) []string {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	out := make([]string, 0, len(keys))
	for k := range keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// matricesIdentical fails unless a and b agree bit for bit on every cell,
// every welfare delta and the baseline welfare.
func matricesIdentical(t *testing.T, label string, a, b *impact.Matrix) {
	t.Helper()
	if a.BaselineWelfare != b.BaselineWelfare {
		t.Errorf("%s: baseline welfare %v != %v", label, a.BaselineWelfare, b.BaselineWelfare)
	}
	for _, tg := range a.Targets {
		if a.WelfareDelta[tg] != b.WelfareDelta[tg] {
			t.Errorf("%s: target %s Δwelfare %v != %v", label, tg, a.WelfareDelta[tg], b.WelfareDelta[tg])
		}
		for _, ac := range unionActors(a.Column(tg), b.Column(tg)) {
			if a.Get(ac, tg) != b.Get(ac, tg) {
				t.Errorf("%s: IM[%s][%s] %v != %v", label, ac, tg, a.Get(ac, tg), b.Get(ac, tg))
			}
		}
	}
}

// TestZeroFlowSkipIndependentOfCache warms a solve cache with the baseline
// alone, then builds the impact matrix through it. The skip must fire on
// the same columns as without a cache, so the matrix is bit-identical to
// the uncached one: the solve cache stays a pure memo. It must hold with
// and without warm starting, and the skipped columns must be bit-identical
// between the two.
func TestZeroFlowSkipIndependentOfCache(t *testing.T) {
	for gi, g := range zeroFlowBattery()[:3] {
		o := actors.RandomOwnership(g, 6, rng.New(uint64(gi)+7))
		br, err := flow.DispatchOpts(g, flow.Options{})
		if err != nil {
			t.Fatal(err)
		}
		byWarm := map[bool]*impact.Matrix{}
		skipsByWarm := map[bool]int64{}
		for _, warm := range []bool{false, true} {
			label := fmt.Sprintf("graph %d warm=%v", gi, warm)
			s0 := zeroFlowSkips.Value()
			ref, err := (&impact.Analysis{Graph: g, Ownership: o, WarmStart: warm}).ComputeMatrix(nil)
			if err != nil {
				t.Fatal(err)
			}
			refSkips := zeroFlowSkips.Value() - s0

			cache := solvecache.New(4096)
			if _, err := (&impact.Analysis{Graph: g, Ownership: o, WarmStart: warm, Cache: cache}).NewEvaluator(); err != nil {
				t.Fatal(err)
			}
			if cache.Len() != 1 {
				t.Fatalf("%s: cache holds %d entries after the baseline, want 1", label, cache.Len())
			}
			s1 := zeroFlowSkips.Value()
			got, err := (&impact.Analysis{Graph: g, Ownership: o, WarmStart: warm, Cache: cache}).ComputeMatrix(nil)
			if err != nil {
				t.Fatal(err)
			}
			if gotSkips := zeroFlowSkips.Value() - s1; gotSkips != refSkips || refSkips == 0 {
				t.Errorf("%s: %d skips behind a cached baseline, %d without a cache (want equal, > 0)", label, gotSkips, refSkips)
			}
			matricesIdentical(t, label, ref, got)
			byWarm[warm], skipsByWarm[warm] = ref, refSkips
		}
		if skipsByWarm[false] != skipsByWarm[true] {
			t.Errorf("graph %d: %d skips cold, %d warm", gi, skipsByWarm[false], skipsByWarm[true])
		}
		cold, warm := byWarm[false], byWarm[true]
		for _, tg := range cold.Targets {
			if br.Flow[tg] != 0 {
				continue
			}
			if cold.WelfareDelta[tg] != 0 || warm.WelfareDelta[tg] != 0 {
				t.Errorf("graph %d: skipped column %s has Δwelfare %v cold, %v warm", gi, tg, cold.WelfareDelta[tg], warm.WelfareDelta[tg])
			}
			for _, ac := range cold.Actors {
				if cold.Get(ac, tg) != warm.Get(ac, tg) {
					t.Errorf("graph %d: skipped column IM[%s][%s] %v cold, %v warm", gi, ac, tg, cold.Get(ac, tg), warm.Get(ac, tg))
				}
			}
		}
	}
}

// TestZeroFlowSkipKeepsSAPlans solves the strategic adversary on matrices
// built with the skip and on the cold matrices coldMatrix builds, over
// reduced Fig. 3 (budget 6) and Fig. 5 (budget 1) configurations: the
// stressed westgrid's truth and graph-noise views of it, every paper actor
// count, two trials. The views are drawn from Fig. 3's own noise stream and
// from one stream the paper run never uses.
//
// Every plan must be identical, with one exception the test reports: an
// exact tie. Zero-flow columns differ between the two matrices by the
// cold solve's round-off, which can reorder the search and so pick another
// of several plans worth bit for bit the same. Such a plan must then score
// the cold optimum on the cold matrix too.
func TestZeroFlowSkipKeepsSAPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size matrices, built twice")
	}
	truth := westgrid.Build(westgrid.Options{Stress: true})
	ids := truth.AssetIDs()
	var plans, ties int
	s0 := zeroFlowSkips.Value()
	for _, stream := range []uint64{1 ^ 0xF13, 0xF13} {
		for _, n := range []int{2, 4, 6, 12} {
			for trial := 0; trial < 2; trial++ {
				s := core.NewScenario(truth, n, 1^uint64(n)<<32^uint64(trial)*0x9E37)
				for _, sigma := range []float64{0, 0.1, 0.3, 0.5} {
					if sigma == 0 && stream != 1^0xF13 {
						continue // the truth does not depend on the stream
					}
					g := noise.Perturb(truth, noise.Model{Sigma: sigma}, rng.Derive(stream, uint64(trial)<<16|uint64(sigma*1000)))
					skipped, err := (&impact.Analysis{Graph: g, Ownership: s.Ownership}).ComputeMatrix(ids)
					if err != nil {
						t.Fatal(err)
					}
					cold := coldMatrix(t, g, s.Ownership, ids)
					for _, budget := range []float64{6, 1} {
						label := fmt.Sprintf("stream %#x n=%d trial=%d σ=%v budget=%v", stream, n, trial, sigma, budget)
						want, err := adversary.Solve(adversary.Config{Matrix: cold, Targets: s.Targets, Budget: budget})
						if err != nil {
							t.Fatalf("%s: cold: %v", label, err)
						}
						got, err := adversary.Solve(adversary.Config{Matrix: skipped, Targets: s.Targets, Budget: budget})
						if err != nil {
							t.Fatalf("%s: skipped: %v", label, err)
						}
						plans++
						if !want.Proven || !got.Proven {
							t.Errorf("%s: plan unproven (cold %v, skipped %v)", label, want.Proven, got.Proven)
						}
						if fmt.Sprint(got.Targets, got.Actors) == fmt.Sprint(want.Targets, want.Actors) {
							if !agreeWithin(got.Anticipated, want.Anticipated, 1e-9) {
								t.Errorf("%s: anticipated %v, cold %v", label, got.Anticipated, want.Anticipated)
							}
							continue
						}
						onCold := adversary.Evaluate(got, cold, s.Targets, adversary.EvaluateOptions{})
						if got.Anticipated != want.Anticipated || !agreeWithin(onCold, want.Anticipated, 1e-9) {
							t.Errorf("%s: plan %v %v (%v, %v on the cold matrix), cold %v %v (%v)", label,
								got.Targets, got.Actors, got.Anticipated, onCold, want.Targets, want.Actors, want.Anticipated)
							continue
						}
						ties++
						t.Logf("%s: exact tie at %v: %v, cold %v", label, got.Anticipated, got.Targets, want.Targets)
					}
				}
			}
		}
	}
	if zeroFlowSkips.Value() == s0 {
		t.Fatal("no matrix column took the skip")
	}
	t.Logf("%d plans: %d identical, %d exact ties; %d skipped columns", plans, plans-ties, ties, zeroFlowSkips.Value()-s0)
}
