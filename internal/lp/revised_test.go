package lp

import (
	"errors"
	"math"
	"testing"

	"cpsguard/internal/rng"
)

// checkSparse fails t when m is MethodRevised and the lp.revised.solves
// counter has not moved since before: an explicit MethodRevised must run
// the sparse solver, so a revised-vs-dense comparison never degenerates
// into the dense tableau compared with itself.
func checkSparse(t *testing.T, m Method, before int64) {
	t.Helper()
	if m == MethodRevised && mRevSolves.Value() == before {
		t.Fatal("MethodRevised did not run the sparse solver")
	}
}

// TestWarmStartDegenerateArtificialBasis is the lp.warm_fallbacks
// regression: degenerate dispatch optima legitimately finish with an
// artificial basic at value zero (a redundant conservation row, say), and
// the warm path used to reject every such basis — so a structurally
// identical re-solve permanently fell back to the cold two-phase method
// (164 of 344 warm attempts in the warm-start benchmark report of the time). The tightened check
// accepts a basic artificial (its bound is clamped to zero and the primal
// feasibility check pins it there) and the re-solve must stay warm with a
// bit-identical optimum.
func TestWarmStartDegenerateArtificialBasis(t *testing.T) {
	// A redundant EQ pair: after phase 1 drives one artificial out, the
	// dependent row's artificial has no pivot to leave on and stays basic
	// at zero.
	build := func() *Problem {
		p := NewProblem()
		x := p.AddVariable("x", -1, 4)
		y := p.AddVariable("y", -2, 4)
		p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: EQ, RHS: 3})
		p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: EQ, RHS: 3})
		return p
	}
	for _, m := range []Method{MethodBounded, MethodRevised} {
		t.Run(m.String(), func(t *testing.T) {
			before := mRevSolves.Value()
			cold, err := build().SolveOpts(Options{Method: m})
			if err != nil {
				t.Fatal(err)
			}
			checkSparse(t, m, before)
			if cold.Status != Optimal {
				t.Fatalf("cold status %v", cold.Status)
			}
			b := cold.Basis()
			if b == nil {
				t.Fatal("no basis exported")
			}
			// The regression is only meaningful if the captured basis
			// really contains an artificial column.
			sf := newStandardForm(build())
			hasArt := false
			for _, col := range b.rows {
				if sf.art[col] {
					hasArt = true
				}
			}
			if !hasArt {
				t.Fatal("fixture no longer produces a basic artificial; regression test is vacuous")
			}
			before = mRevSolves.Value()
			warm, err := build().SolveOpts(Options{Method: m, WarmStart: b})
			if err != nil {
				t.Fatal(err)
			}
			checkSparse(t, m, before)
			if !warm.WarmStarted {
				t.Fatal("structurally identical re-solve fell back to the cold path")
			}
			if warm.Objective != cold.Objective {
				t.Fatalf("warm objective %v != cold %v (want bit-identical)", warm.Objective, cold.Objective)
			}
			for j := range cold.X {
				if warm.X[j] != cold.X[j] {
					t.Fatalf("warm X[%d]=%v != cold %v (want bit-identical)", j, warm.X[j], cold.X[j])
				}
			}
		})
	}
}

// TestWarmStartIdenticalResolveNeverFallsBack is the tightened stale-basis
// property: re-solving the exact same problem from its own optimal basis
// must take the warm path, for every problem in the seeded battery and for
// both bounded-layout methods.
func TestWarmStartIdenticalResolveNeverFallsBack(t *testing.T) {
	for _, m := range []Method{MethodBounded, MethodRevised} {
		t.Run(m.String(), func(t *testing.T) {
			fellBack := 0
			for seed := uint64(0); seed < 120; seed++ {
				p := GenRandomProblem(seed)
				before := mRevSolves.Value()
				cold, err := p.SolveOpts(Options{Method: m})
				checkSparse(t, m, before)
				if err != nil || cold.Status != Optimal || cold.Basis() == nil {
					continue
				}
				before = mRevSolves.Value()
				warm, err := GenRandomProblem(seed).SolveOpts(Options{Method: m, WarmStart: cold.Basis()})
				if err != nil {
					t.Fatalf("seed %d: warm re-solve error: %v", seed, err)
				}
				checkSparse(t, m, before)
				if !warm.WarmStarted {
					fellBack++
					t.Errorf("seed %d: identical re-solve fell back", seed)
				}
			}
			if fellBack > 0 {
				t.Fatalf("%d identical re-solves fell back", fellBack)
			}
		})
	}
}

// TestRevisedCyclingBland pins anti-cycling behavior on Beale's classic
// cycling example, which loops forever under naive Dantzig pivoting. Both
// the automatic no-progress Bland switch and ForceBland must terminate at
// the known optimum (−1/20), on the dense oracle and the revised method
// alike — including the revised method's sparse extraction path.
func TestRevisedCyclingBland(t *testing.T) {
	build := func() *Problem {
		p := NewProblem()
		x1 := p.AddVariable("x1", -0.75, math.Inf(1))
		x2 := p.AddVariable("x2", 150, math.Inf(1))
		x3 := p.AddVariable("x3", -0.02, 1)
		x4 := p.AddVariable("x4", 6, math.Inf(1))
		p.AddConstraint(Constraint{Coefs: []Coef{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, Sense: LE, RHS: 0})
		p.AddConstraint(Constraint{Coefs: []Coef{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, Sense: LE, RHS: 0})
		return p
	}
	for _, m := range []Method{MethodBounded, MethodRevised} {
		for _, bland := range []bool{false, true} {
			before := mRevSolves.Value()
			sol, err := build().SolveOpts(Options{Method: m, ForceBland: bland})
			if err != nil {
				t.Fatalf("%v bland=%v: %v", m, bland, err)
			}
			checkSparse(t, m, before)
			if sol.Status != Optimal {
				t.Fatalf("%v bland=%v: status %v", m, bland, sol.Status)
			}
			if math.Abs(sol.Objective-(-0.05)) > 1e-9 {
				t.Fatalf("%v bland=%v: objective %v, want -0.05", m, bland, sol.Objective)
			}
		}
	}
}

// TestRevisedDegeneratePivots drives the revised method through a heavily
// degenerate vertex (many ties at zero) and cross-checks the dense oracle.
func TestRevisedDegeneratePivots(t *testing.T) {
	p := func() *Problem {
		p := NewProblem()
		x := p.AddVariable("x", -1, 10)
		y := p.AddVariable("y", -1, 10)
		z := p.AddVariable("z", -1, 10)
		// All three constraints intersect at the origin-adjacent vertex.
		p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: LE, RHS: 0})
		p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {z, 1}}, Sense: LE, RHS: 0})
		p.AddConstraint(Constraint{Coefs: []Coef{{y, 1}, {z, 1}}, Sense: LE, RHS: 0})
		return p
	}
	dense, err := p().SolveOpts(Options{Method: MethodBounded})
	if err != nil {
		t.Fatal(err)
	}
	before := mRevSolves.Value()
	rev, err := p().SolveOpts(Options{Method: MethodRevised})
	if err != nil {
		t.Fatal(err)
	}
	checkSparse(t, MethodRevised, before)
	if dense.Status != rev.Status {
		t.Fatalf("status mismatch: dense %v revised %v", dense.Status, rev.Status)
	}
	if math.Abs(dense.Objective-rev.Objective) > 1e-9 {
		t.Fatalf("objective mismatch: dense %v revised %v", dense.Objective, rev.Objective)
	}
}

// FuzzRevisedSimplex cross-checks the revised method against the dense
// oracle on fuzzer-evolved random LPs, and verifies hostile NaN/Inf inputs are rejected with
// ErrBadProblem rather than panicking — the revised analogue of
// FuzzSolveAgreement + FuzzHostileInputs.
func FuzzRevisedSimplex(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(7), uint8(0b1010))
	f.Add(uint64(42), uint8(0xFF))
	f.Add(uint64(1234567), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, poison uint8) {
		p := GenRandomProblem(seed)
		if poison != 0 {
			// Corrupt one numeric field with NaN/±Inf; validation must
			// reject identically on both methods, without panicking.
			rs := rng.New(seed ^ uint64(poison))
			hostile := [3]float64{math.NaN(), math.Inf(1), math.Inf(-1)}
			v := hostile[rs.Intn(3)]
			q := NewProblem()
			field := rs.Intn(3)
			corrupted := false
			for j := range p.obj {
				c, u := p.obj[j], p.upper[j]
				if field == 0 && poison&1 != 0 {
					c = v
					corrupted = true
				}
				if field == 1 && poison&2 != 0 {
					u = v
					// +Inf is a legal (unbounded-above) upper bound.
					corrupted = corrupted || !math.IsInf(v, 1)
				}
				q.AddVariable("v", c, u)
			}
			for _, row := range p.rows {
				rhs := row.RHS
				if field == 2 && poison&4 != 0 && len(p.rows) > 0 {
					rhs = v
					corrupted = true
				}
				q.AddConstraint(Constraint{Coefs: row.Coefs, Sense: row.Sense, RHS: rhs})
			}
			if corrupted {
				_, errD := q.SolveOpts(Options{Method: MethodBounded})
				_, errR := q.SolveOpts(Options{Method: MethodRevised})
				if !errors.Is(errD, ErrBadProblem) || !errors.Is(errR, ErrBadProblem) {
					t.Fatalf("corrupted problem accepted: dense err=%v revised err=%v", errD, errR)
				}
				return
			}
			p = q
		}

		dense, errD := p.SolveOpts(Options{Method: MethodBounded})
		before := mRevSolves.Value()
		rev, errR := p.SolveOpts(Options{Method: MethodRevised})
		checkSparse(t, MethodRevised, before)
		if errD != nil || errR != nil {
			// Reported errors (e.g. singular dual extraction on degenerate
			// bases) are tolerated; panics are not, and the harness catches
			// those.
			return
		}
		if dense.Status != rev.Status {
			t.Fatalf("status mismatch: dense %v revised %v", dense.Status, rev.Status)
		}
		if dense.Status != Optimal {
			return
		}
		scale := 1 + math.Abs(dense.Objective)
		if math.Abs(dense.Objective-rev.Objective) > 1e-7*scale {
			t.Fatalf("objective mismatch: dense %v revised %v", dense.Objective, rev.Objective)
		}
	})
}
