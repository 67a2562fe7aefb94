// Test-only exports: hooks the external differential battery (package
// lp_test) uses to steer internals that ordinary callers never touch.
package lp

import (
	"math"

	"cpsguard/internal/rng"
)

// SetPricingCheck makes every pivot of the bounded simplex call f with the
// reduced-cost row the tableau carries, a fresh pricing of the same state,
// and the objective being minimized. It returns a function that restores
// the previous hook. Tests must not run in parallel while it is set.
func SetPricingCheck(f func(incremental, full, c []float64)) (restore func()) {
	old := afterPivotHook
	afterPivotHook = func(t *boundedTableau, c []float64) {
		full := make([]float64, t.nTotal)
		t.priceInto(full, c)
		f(t.rc[:t.nTotal], full, c[:t.nTotal])
	}
	return func() { afterPivotHook = old }
}

// GenRandomProblem builds seeded random LP #seed for the differential
// battery: 1–16 variables (a mix of boxed and free-above), 0–12 rows across
// all three senses with both RHS signs, occasional duplicate coefficients
// (exercising the builder's aggregation) and occasional zero upper bounds
// (exercising the fixed-at-zero pricing skip).
func GenRandomProblem(seed uint64) *Problem {
	rs := rng.New(seed)
	nv := 1 + rs.Intn(16)
	nc := rs.Intn(13)
	p := NewProblem()
	for j := 0; j < nv; j++ {
		u := math.Inf(1)
		switch rs.Intn(16) {
		case 0:
			// Unbounded above (rare: with a negative cost this makes the
			// whole LP unbounded unless a row caps it).
		case 1, 2:
			if rs.Intn(4) == 0 {
				u = 0 // fixed at zero
			} else {
				u = rs.Float64() * 3
			}
		default:
			u = rs.Float64() * 15
		}
		p.AddVariable("v", (rs.Float64()-0.5)*10, u)
	}
	for i := 0; i < nc; i++ {
		var coefs []Coef
		for j := 0; j < nv; j++ {
			if rs.Intn(3) == 0 {
				coefs = append(coefs, Coef{j, (rs.Float64() - 0.5) * 8})
				if rs.Intn(10) == 0 {
					// Duplicate (row, var) entry: must aggregate.
					coefs = append(coefs, Coef{j, (rs.Float64() - 0.5) * 2})
				}
			}
		}
		if len(coefs) == 0 {
			coefs = append(coefs, Coef{rs.Intn(nv), 1 + rs.Float64()})
		}
		// Senses drawn with a bias toward LE; the RHS is drawn inside the
		// row's individually-achievable range so most instances are
		// feasible and bounded — the interesting differential cases —
		// while joint conflicts still produce some infeasible ones and
		// rare unbounded-above variables some unbounded ones, keeping
		// taxonomy coverage.
		lo, hi := 0.0, 0.0
		for _, co := range coefs {
			reach := p.upper[co.Var]
			if math.IsInf(reach, 1) {
				reach = 15
			}
			if v := co.Value * reach; v > 0 {
				hi += v
			} else {
				lo += v
			}
		}
		var sense Sense
		switch r := rs.Intn(10); {
		case r < 6:
			sense = LE
		case r < 8:
			sense = GE
		default:
			sense = EQ
		}
		rhs := lo + (0.05+0.9*rs.Float64())*(hi-lo)
		p.AddConstraint(Constraint{Coefs: coefs, Sense: sense, RHS: rhs})
	}
	return p
}
