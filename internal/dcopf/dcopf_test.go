package dcopf

import (
	"math"
	"testing"

	"cpsguard/internal/graph"
	"cpsguard/internal/lp"
	"cpsguard/internal/telemetry"
	"cpsguard/internal/westgrid"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// twoLine: one generator, one load, two parallel lossless lines of equal
// capacity but different susceptance.
func twoLine(b1, b2 float64) (*graph.Graph, Options) {
	g := graph.New("dc")
	g.MustAddVertex(graph.Vertex{ID: "gen", Supply: 100, SupplyCost: 2})
	g.MustAddVertex(graph.Vertex{ID: "load", Demand: 60, Price: 10})
	g.MustAddEdge(graph.Edge{ID: "l1", From: "gen", To: "load", Capacity: 100})
	g.MustAddEdge(graph.Edge{ID: "l2", From: "gen", To: "load", Capacity: 100})
	sus := map[string]float64{"l1": b1, "l2": b2}
	return g, Options{Susceptance: func(e *graph.Edge) float64 { return sus[e.ID] }}
}

func TestFlowsSplitBySusceptance(t *testing.T) {
	g, opts := twoLine(30, 10) // l1 is 3× stiffer → carries 3/4
	r, err := Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r.Load["load"], 60, 1e-6) {
		t.Fatalf("load = %v", r.Load["load"])
	}
	if !approx(r.Flow["l1"], 45, 1e-6) || !approx(r.Flow["l2"], 15, 1e-6) {
		t.Fatalf("flows = %v / %v, want 45 / 15 (susceptance split)", r.Flow["l1"], r.Flow["l2"])
	}
	// Angles consistent: f = B·Δθ.
	dth := r.Angle["gen"] - r.Angle["load"]
	if !approx(30*dth, 45, 1e-6) {
		t.Fatalf("Kirchhoff violated: B·Δθ = %v, f = 45", 30*dth)
	}
}

func TestKirchhoffCongestionCascades(t *testing.T) {
	// Physics makes congestion worse than transport routing: if the
	// stiff line is small, flow cannot simply be diverted to the big
	// one — the angle difference that pushes the big line also overloads
	// the small one.
	g := graph.New("cascade")
	g.MustAddVertex(graph.Vertex{ID: "gen", Supply: 100, SupplyCost: 2})
	g.MustAddVertex(graph.Vertex{ID: "load", Demand: 80, Price: 10})
	g.MustAddEdge(graph.Edge{ID: "stiff", From: "gen", To: "load", Capacity: 10})
	g.MustAddEdge(graph.Edge{ID: "slack", From: "gen", To: "load", Capacity: 100})
	sus := map[string]float64{"stiff": 30, "slack": 10}
	opts := Options{Susceptance: func(e *graph.Edge) float64 { return sus[e.ID] }}
	r, err := Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The stiff line saturates at 10; the slack line then carries
	// 10·(10/30) = 3.33 — total service is 13.33, not 80.
	if !approx(r.Flow["stiff"], 10, 1e-6) {
		t.Fatalf("stiff flow = %v, want 10 (binding)", r.Flow["stiff"])
	}
	if !approx(r.Flow["slack"], 10.0/3, 1e-6) {
		t.Fatalf("slack flow = %v, want 3.33 (angle-limited)", r.Flow["slack"])
	}
	if r.Load["load"] > 14 {
		t.Fatalf("DC service = %v, physics should cap it at 13.33", r.Load["load"])
	}
}

func TestTransportDominatesDC(t *testing.T) {
	// On the same (lossless) network, freely-routed transport welfare is
	// an upper bound on the Kirchhoff-constrained welfare.
	g := graph.New("cmp")
	g.MustAddVertex(graph.Vertex{ID: "gen", Supply: 100, SupplyCost: 2})
	g.MustAddVertex(graph.Vertex{ID: "mid"})
	g.MustAddVertex(graph.Vertex{ID: "load", Demand: 80, Price: 10})
	g.MustAddEdge(graph.Edge{ID: "a", From: "gen", To: "mid", Capacity: 50})
	g.MustAddEdge(graph.Edge{ID: "b", From: "mid", To: "load", Capacity: 50})
	g.MustAddEdge(graph.Edge{ID: "c", From: "gen", To: "load", Capacity: 40})
	tr, dc, gap, err := Compare(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gap < -1e-6 {
		t.Fatalf("DC welfare (%v) exceeded transport welfare (%v)", dc, tr)
	}
	if tr <= 0 || dc <= 0 {
		t.Fatalf("welfare degenerate: tr=%v dc=%v", tr, dc)
	}
}

func TestDeadLineCarriesNothing(t *testing.T) {
	g, opts := twoLine(30, 0) // l2 outaged (zero susceptance)
	r, err := Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Flow["l2"] != 0 {
		t.Fatalf("dead line flows: %v", r.Flow["l2"])
	}
	if !approx(r.Flow["l1"], 60, 1e-6) {
		t.Fatalf("live line = %v, want 60", r.Flow["l1"])
	}
}

func TestReferenceAngleZero(t *testing.T) {
	g, opts := twoLine(10, 10)
	r, err := Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	first := g.Vertices[0].ID
	if !approx(r.Angle[first], 0, 1e-9) {
		t.Fatalf("reference angle = %v", r.Angle[first])
	}
}

func TestDefaultSusceptance(t *testing.T) {
	e := &graph.Edge{Capacity: 50}
	if DefaultSusceptance(e) != 50 {
		t.Fatal("default susceptance should scale with capacity")
	}
	if DefaultSusceptance(&graph.Edge{}) != 0 {
		t.Fatal("zero-capacity line must have zero susceptance")
	}
}

func TestValidation(t *testing.T) {
	if _, err := Solve(nil, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g, _ := twoLine(1, 1)
	g.Edges[0].Loss = 2
	if _, err := Solve(g, Options{}); err == nil {
		t.Fatal("invalid graph accepted")
	}
}

func TestUnprofitableStaysDark(t *testing.T) {
	g := graph.New("dark")
	g.MustAddVertex(graph.Vertex{ID: "gen", Supply: 10, SupplyCost: 50})
	g.MustAddVertex(graph.Vertex{ID: "load", Demand: 10, Price: 5})
	g.MustAddEdge(graph.Edge{ID: "l", From: "gen", To: "load", Capacity: 10})
	r, err := Solve(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Welfare != 0 || r.Flow["l"] != 0 {
		t.Fatalf("uneconomic dispatch ran: %+v", r)
	}
}

// TestWestgridMatchesRevised solves the 143-row westgrid DC-OPF, plain and
// stressed, with the default solver and with the sparse revised simplex.
// The two welfares must agree and the default point must satisfy every
// Kirchhoff, capacity, nodal-balance and bound constraint. The dense
// tableau alone once returned an infeasible point here (plain) or hit its
// pivot cap (stressed); MethodAuto must catch both and re-solve.
func TestWestgridMatchesRevised(t *testing.T) {
	resolves := func() int64 {
		return telemetry.Default().Snapshot(telemetry.SnapshotOptions{}).Counters["lp.auto_resolves"]
	}
	before := resolves()
	for _, stress := range []bool{false, true} {
		g := westgrid.Build(westgrid.Options{Stress: stress})
		got, err := Solve(g, Options{})
		if err != nil {
			t.Fatalf("stress=%v: %v", stress, err)
		}
		want, err := Solve(g, Options{LP: lp.Options{Method: lp.MethodRevised}})
		if err != nil {
			t.Fatalf("stress=%v revised: %v", stress, err)
		}
		if !approx(got.Welfare, want.Welfare, 1e-6*(1+math.Abs(want.Welfare))) {
			t.Errorf("stress=%v: welfare %.6f, revised %.6f", stress, got.Welfare, want.Welfare)
		}
		checkFeasible(t, g, got, 1e-6)
	}
	if n := resolves() - before; n != 2 {
		t.Errorf("lp.auto_resolves rose by %d, want 2 (one re-solve per westgrid variant)", n)
	}
}

// checkFeasible verifies a DC-OPF result against the physics it models.
func checkFeasible(t *testing.T, g *graph.Graph, r *Result, tol float64) {
	t.Helper()
	net := map[string]float64{}
	for i := range g.Edges {
		e := &g.Edges[i]
		f := r.Flow[e.ID]
		if math.Abs(f) > e.Capacity+tol*(1+e.Capacity) {
			t.Errorf("%s: |flow| %.6f exceeds capacity %.6f", e.ID, f, e.Capacity)
		}
		b := DefaultSusceptance(e)
		if kirch := b * (r.Angle[e.From] - r.Angle[e.To]); !approx(f, kirch, tol*(1+math.Abs(f)+math.Abs(kirch))) {
			t.Errorf("%s: flow %.6f, B·Δθ %.6f", e.ID, f, kirch)
		}
		net[e.To] += f
		net[e.From] -= f
	}
	for _, v := range g.Vertices {
		gen, load := r.Gen[v.ID], r.Load[v.ID]
		if gen < -tol || gen > v.Supply+tol*(1+v.Supply) || load < -tol || load > v.Demand+tol*(1+v.Demand) {
			t.Errorf("%s: gen %.6f of %.6f, load %.6f of %.6f", v.ID, gen, v.Supply, load, v.Demand)
		}
		if bal := gen + net[v.ID] - load; math.Abs(bal) > tol*(1+gen+load) {
			t.Errorf("%s: nodal imbalance %.6f", v.ID, bal)
		}
	}
}
