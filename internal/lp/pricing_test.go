// Incremental-pricing battery for the bounded simplex: the reduced-cost row
// carried through pivots must stay within tolerance of a fresh pricing on
// every pivot of the dispatch fixtures, the stressed westgrid outage sweep
// and seeded random LPs, and the pivot path itself is locked by count.
package lp_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/lp"
)

// pricingTol bounds the drift of a carried reduced cost from its fresh
// value, relative to the largest objective coefficient (at least 1).
const pricingTol = 1e-9

// westgridSweepIterations is the total simplex iteration count of the
// stressed westgrid baseline plus all 86 of its single-edge outages under
// the bounded method. Any change means the pivot path moved.
const westgridSweepIterations = 11560

func TestIncrementalPricingDrift(t *testing.T) {
	var (
		label   string // the solve in progress
		pivots  int
		worst   float64
		worstAt string
	)
	t.Cleanup(lp.SetPricingCheck(func(incremental, full, c []float64) {
		pivots++
		scale := 1.0
		for _, v := range c {
			scale = math.Max(scale, math.Abs(v))
		}
		for j := range full {
			if d := math.Abs(incremental[j]-full[j]) / scale; d > worst {
				worst = d
				worstAt = fmt.Sprintf("%s, pivot %d, column %d", label, pivots, j)
			}
		}
	}))
	opts := flow.Options{LP: lp.Options{Method: lp.MethodBounded}}

	grids := loadGrids(t)
	for _, name := range sortedNames(grids) {
		label = name
		if _, err := flow.DispatchOpts(grids[name], opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	base := grids["westgrid_stressed"]
	if base == nil {
		t.Fatal("testdata/grids/westgrid_stressed.json missing")
	}
	ids := base.AssetIDs()
	if len(ids) != 86 {
		t.Fatalf("stressed westgrid has %d assets, want 86", len(ids))
	}
	label = "westgrid_stressed"
	res, err := flow.DispatchOpts(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	iters := res.Iterations
	for _, id := range ids {
		out := base.Clone()
		out.Edge(id).Capacity = 0
		label = "westgrid_stressed/outage:" + id
		res, err := flow.DispatchOpts(out, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		iters += res.Iterations
	}
	if iters != westgridSweepIterations {
		t.Errorf("westgrid baseline + 86 outages took %d iterations, want %d (pivot path changed)",
			iters, westgridSweepIterations)
	}

	for seed := uint64(0); seed < 250; seed++ {
		label = fmt.Sprintf("random seed %d", seed)
		// Outcomes (including basis-dependent dual-extraction errors) are
		// the differential battery's concern; only the drift matters here.
		_, _ = lp.GenRandomProblem(seed).SolveOpts(lp.Options{Method: lp.MethodBounded})
	}

	if pivots < 1000 {
		t.Fatalf("only %d pivots checked; the battery is too weak", pivots)
	}
	if worst > pricingTol {
		t.Errorf("carried reduced cost drifted %.3g × scale from a fresh pricing at %s (tolerance %g)",
			worst, worstAt, pricingTol)
	}
	t.Logf("%d pivots checked, worst drift %.3g × scale", pivots, worst)
}

// westgridSweepLocks pin, for each way of running the stressed westgrid
// baseline plus its 86 single-edge outages, the pivot total, the number of
// outages solved on the warm path and an FNV-64a hash of the float bits of
// every solution's X, Duals and BoundDuals. The first row repeats
// westgridSweepIterations for the cold bounded path; the other three cover
// what no golden fixture does: the sparse solver, and warm re-entry from the
// baseline basis on each method. Any change means a pivot path or an
// extracted bit moved.
var westgridSweepLocks = []struct {
	method lp.Method
	warm   bool
	pivots int
	warmOK int
	hash   uint64
}{
	{lp.MethodBounded, false, westgridSweepIterations, 0, 0x53d7853fdfdd276f},
	{lp.MethodRevised, false, 11560, 0, 0x2b1ccce3305c6f7f},
	{lp.MethodBounded, true, 5506, 45, 0xc92f6e6b41d0a4e2},
	{lp.MethodRevised, true, 5506, 45, 0x3b5fca3d53296e5b},
}

func TestWestgridSweepLocks(t *testing.T) {
	base := loadGrids(t)["westgrid_stressed"]
	if base == nil {
		t.Fatal("testdata/grids/westgrid_stressed.json missing")
	}
	ids := base.AssetIDs()
	for _, lock := range westgridSweepLocks {
		name := fmt.Sprintf("%v/warm=%v", lock.method, lock.warm)
		h := fnv.New64a()
		var buf [8]byte
		hashFloats := func(vs []float64) {
			for _, v := range vs {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		solve := func(g *graph.Graph, warm *lp.Basis) *lp.Solution {
			sol, err := dispatchProblem(g).SolveOpts(lp.Options{Method: lock.method, WarmStart: warm})
			if err != nil || sol.Status != lp.Optimal {
				t.Fatalf("%s: status %v, err %v", name, statusOf(sol), err)
			}
			hashFloats(sol.X)
			hashFloats(sol.Duals)
			hashFloats(sol.BoundDuals)
			return sol
		}
		baseSol := solve(base, nil)
		pivots, warmOK := baseSol.Iterations, 0
		var warm *lp.Basis
		if lock.warm {
			warm = baseSol.Basis()
		}
		for _, id := range ids {
			out := base.Clone()
			out.Edge(id).Capacity = 0
			sol := solve(out, warm)
			pivots += sol.Iterations
			if sol.WarmStarted {
				warmOK++
			}
		}
		if pivots != lock.pivots || warmOK != lock.warmOK || h.Sum64() != lock.hash {
			t.Errorf("%s: %d pivots, %d warm, hash %#x; want %d, %d, %#x",
				name, pivots, warmOK, h.Sum64(), lock.pivots, lock.warmOK, lock.hash)
		}
	}
}

// dispatchProblem builds the dispatch LP flow.DispatchOpts solves for g
// (flow.go's builder: one flow, generation and load variable per edge,
// supplier and consumer, one conservation row per connected vertex), so the
// locks can read the raw solution vectors.
func dispatchProblem(g *graph.Graph) *lp.Problem {
	p := lp.NewProblem()
	fVar := make([]int, len(g.Edges))
	for i, e := range g.Edges {
		fVar[i] = p.AddVariable("f:"+e.ID, e.Cost, e.Capacity)
	}
	gVar := make([]int, len(g.Vertices))
	xVar := make([]int, len(g.Vertices))
	for i, v := range g.Vertices {
		gVar[i], xVar[i] = -1, -1
		if v.Supply > 0 {
			gVar[i] = p.AddVariable("g:"+v.ID, v.SupplyCost, v.Supply)
		}
		if v.Demand > 0 {
			xVar[i] = p.AddVariable("x:"+v.ID, -v.Price, v.Demand)
		}
	}
	for i, v := range g.Vertices {
		var coefs []lp.Coef
		for j, e := range g.Edges {
			if e.To == v.ID {
				coefs = append(coefs, lp.Coef{Var: fVar[j], Value: 1})
			}
			if e.From == v.ID {
				coefs = append(coefs, lp.Coef{Var: fVar[j], Value: -1 / (1 - e.Loss)})
			}
		}
		if gVar[i] >= 0 {
			coefs = append(coefs, lp.Coef{Var: gVar[i], Value: 1})
		}
		if xVar[i] >= 0 {
			coefs = append(coefs, lp.Coef{Var: xVar[i], Value: -1})
		}
		if len(coefs) > 0 {
			p.AddConstraint(lp.Constraint{Coefs: coefs, Sense: lp.EQ, RHS: 0})
		}
	}
	return p
}
