package lp_test

import (
	"testing"

	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/lp"
	"cpsguard/internal/telemetry"
	"cpsguard/internal/westgrid"
)

// chainProblem is an LP with n constraint rows: n+1 boxed variables, each
// row capping the sum of two neighbours.
func chainProblem(n int) *lp.Problem {
	p := lp.NewProblem()
	for j := 0; j <= n; j++ {
		p.AddVariable("x", -1, 1)
	}
	for i := 0; i < n; i++ {
		p.AddConstraint(lp.Constraint{Coefs: []lp.Coef{{Var: i, Value: 1}, {Var: i + 1, Value: 1}}, Sense: lp.LE, RHS: 1})
	}
	return p
}

// milpRelaxation is the LP relaxation of the adversary's target-selection
// MILP (adversary.SolveMILP) for 4 targets and 3 actors with a full impact
// matrix: 19 boxed variables and 37 rows, so rows outnumber bounds.
func milpRelaxation() *lp.Problem {
	const nT, nA = 4, 3
	p := lp.NewProblem()
	tVar := make([]int, nT)
	for i := range tVar {
		tVar[i] = p.AddVariable("T", 1, 1)
	}
	aVar := make([]int, nA)
	for j := range aVar {
		aVar[j] = p.AddVariable("A", 0, 1)
	}
	budget := make([]lp.Coef, nT)
	for i := range tVar {
		for j := range aVar {
			y := p.AddVariable("y", -float64(1+i+j), 1)
			p.AddConstraint(lp.Constraint{Coefs: []lp.Coef{{Var: y, Value: 1}, {Var: tVar[i], Value: -1}}, Sense: lp.LE, RHS: 0})
			p.AddConstraint(lp.Constraint{Coefs: []lp.Coef{{Var: y, Value: 1}, {Var: aVar[j], Value: -1}}, Sense: lp.LE, RHS: 0})
			p.AddConstraint(lp.Constraint{Coefs: []lp.Coef{{Var: y, Value: 1}, {Var: tVar[i], Value: -1}, {Var: aVar[j], Value: -1}}, Sense: lp.GE, RHS: -1})
		}
		budget[i] = lp.Coef{Var: tVar[i], Value: 1}
	}
	p.AddConstraint(lp.Constraint{Coefs: budget, Sense: lp.LE, RHS: 2})
	return p
}

// threeVertexGrid is gen → hub → load, the smallest dispatch with a
// transmission leg (3 conservation rows).
func threeVertexGrid() *graph.Graph {
	g := graph.New("chain")
	g.MustAddVertex(graph.Vertex{ID: "gen", Supply: 100, SupplyCost: 2})
	g.MustAddVertex(graph.Vertex{ID: "hub"})
	g.MustAddVertex(graph.Vertex{ID: "load", Demand: 80, Price: 10})
	g.MustAddEdge(graph.Edge{ID: "g-h", From: "gen", To: "hub", Capacity: 100, Cost: 0.1})
	g.MustAddEdge(graph.Edge{ID: "h-l", From: "hub", To: "load", Capacity: 90, Loss: 0.05, Cost: 0.2})
	return g
}

// TestMethodAutoResolve pins MethodAuto's choice on the shapes the code
// actually solves: the dense bounded tableau up to 512 constraint rows,
// the sparse revised simplex above, and never the explicit-rows solver.
// Routing is read off the counters (one lp.solves per case; lp.revised.solves
// moves only on the sparse path) and off the exported basis, which the
// explicit-rows solver does not produce.
func TestMethodAutoResolve(t *testing.T) {
	national, err := gridgen.Build(gridgen.Config{
		Regions: 64, Seed: 3, Tier: gridgen.TierNational, Stress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	lpBasis := func(p *lp.Problem) func() (*lp.Basis, error) {
		return func() (*lp.Basis, error) {
			sol, err := p.Solve()
			if err != nil {
				return nil, err
			}
			return sol.Basis(), nil
		}
	}
	dispatchBasis := func(g *graph.Graph) func() (*lp.Basis, error) {
		return func() (*lp.Basis, error) {
			r, err := flow.Dispatch(g)
			if err != nil {
				return nil, err
			}
			return r.Basis, nil
		}
	}
	cases := []struct {
		name    string
		solve   func() (*lp.Basis, error)
		revised bool
	}{
		{"3-vertex dispatch", dispatchBasis(threeVertexGrid()), false},
		{"adversary MILP relaxation", lpBasis(milpRelaxation()), false},
		{"stressed westgrid", dispatchBasis(westgrid.Build(westgrid.Options{Stress: true})), false},
		{"512 rows", lpBasis(chainProblem(512)), false},
		{"513 rows", lpBasis(chainProblem(513)), true},
		{"64-region national dispatch", dispatchBasis(national), true},
	}
	solves := telemetry.Default().Counter("lp.solves")
	revised := telemetry.Default().Counter("lp.revised.solves")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s0, r0 := solves.Value(), revised.Value()
			basis, err := tc.solve()
			if err != nil {
				t.Fatal(err)
			}
			if d := solves.Value() - s0; d != 1 {
				t.Fatalf("lp.solves moved by %d, want 1", d)
			}
			want := int64(0)
			if tc.revised {
				want = 1
			}
			if d := revised.Value() - r0; d != want {
				t.Errorf("lp.revised.solves moved by %d, want %d", d, want)
			}
			if basis == nil {
				t.Error("no basis exported: MethodAuto ran the explicit-rows solver")
			}
		})
	}
}
