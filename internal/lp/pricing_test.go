// Incremental-pricing battery for the bounded simplex: the reduced-cost row
// carried through pivots must stay within tolerance of a fresh pricing on
// every pivot of the dispatch fixtures, the stressed westgrid outage sweep
// and seeded random LPs, and the pivot path itself is locked by count.
package lp_test

import (
	"fmt"
	"math"
	"testing"

	"cpsguard/internal/flow"
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
