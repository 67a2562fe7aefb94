// Warm-start support for the bounded-variable simplex.
//
// The evaluation workloads of this repository solve thousands of dispatch
// LPs that differ from a baseline by a handful of edge perturbations
// (capacity outages, cost or loss tweaks). Structure — variables, rows,
// column layout — is identical across the family; only objective
// coefficients, bounds, and constraint entries move. Solution.Basis()
// exports the optimal basis of a solved problem, and Options.WarmStart
// re-enters phase 2 of a later solve directly from that basis:
//
//	base, _ := p.SolveOpts(lp.Options{})
//	perturbed.SolveOpts(lp.Options{WarmStart: base.Basis()})
//
// The warm path validates the basis, refactorizes it against the perturbed
// matrix (the backend's linalg.warm: Gauss-Jordan with partial pivoting on
// the dense tableau, a fresh LU on the sparse one), recomputes the basic
// values, and verifies primal feasibility under the perturbed bounds. When
// the stale basis is singular, dimensionally incompatible, or primal
// infeasible for the new problem, the solver falls back to the cold
// two-phase method, so a warm-started solve is never less correct than a
// cold one — only cheaper when the basis survives. Solution.WarmStarted
// reports which path produced the result, and the lp.warm_*/lp.cold_pivots
// counters attribute pivot work to each path.
//
// Both backends of the bounded simplex share the standard-form column
// layout, so a basis from either warm-starts the other. The rows method
// exports no basis (it lowers bounds onto rows, so its basis would not
// transfer across bound changes); a basis with mismatched dimensions is
// rejected into the cold path rather than erroring.
package lp

import "math"

// Basis is an exported simplex basis: which columns are basic and at which
// bound every nonbasic column rests. It is immutable after creation and
// safe to share across concurrent solves.
type Basis struct {
	n      int // structural variables
	m      int // constraint rows
	nTotal int // total columns incl. slack/artificial
	rows   []int
	status []int8
}

// Basis returns the optimal basis of a solved problem, or nil when the
// solve did not finish at an optimal basis or used a method that does not
// export one (MethodRows). The result is immutable; reuse it freely across
// concurrent warm-started solves.
func (s *Solution) Basis() *Basis { return s.basis }

// captureBasis snapshots the final basis for reuse.
func (s *boundedSimplex) captureBasis() *Basis {
	return &Basis{
		n:      s.sf.n,
		m:      s.sf.m,
		nTotal: s.sf.nTotal,
		rows:   append([]int(nil), s.basis...),
		status: append([]int8(nil), s.status...),
	}
}

// solveWarm attempts a phase-2-only solve from opts.WarmStart. The boolean
// reports whether the warm attempt produced a usable outcome; false sends
// the caller down the cold path (the state it mutated is discarded, so a
// failed warm attempt leaves no residue).
func solveWarm(p *Problem, opts Options, g *guard, method Method) (*Solution, error, bool) {
	mWarmAttempts.Inc()
	s := newBoundedSimplex(p, opts, g, method)
	defer s.la.flush()
	if !s.applyWarmBasis(opts.WarmStart) {
		return nil, nil, false
	}
	switch st := s.simplex(s.sf.cost); st {
	case statusAborted:
		return nil, p.solveErr("lp.pivot", Optimal, s.iters, g.err), true
	case Canceled, DeadlineExceeded:
		return &Solution{Status: st, Iterations: s.iters, WarmStarted: true}, nil, true
	case Optimal:
		// Proceed to extraction below.
	default:
		// Unbounded, IterationLimit or numerical failure from a stale
		// basis: distrust it and re-derive from a cold start (a genuinely
		// unbounded problem is unbounded from any start, so correctness is
		// unaffected).
		mWarmPivots.Add(int64(s.iters))
		return nil, nil, false
	}
	sol, err := s.extract()
	if err != nil {
		// e.g. a singular basis during dual extraction; the cold path may
		// land on a better-conditioned optimal basis.
		mWarmPivots.Add(int64(s.iters))
		return nil, nil, false
	}
	mWarmSolves.Inc()
	sol.WarmStarted = true
	return sol, nil, true
}

// applyWarmBasis reconstitutes the simplex at basis b: statuses are
// restored, the backend refactorizes the basis against the (possibly
// perturbed) matrix and recomputes the basic values, which are then checked
// for primal feasibility under the current bounds. Returns false when the
// basis cannot be applied; the state must then be discarded.
func (s *boundedSimplex) applyWarmBasis(b *Basis) bool {
	sf := s.sf
	if b.n != sf.n || b.m != sf.m || b.nTotal != sf.nTotal ||
		len(b.rows) != sf.m || len(b.status) != sf.nTotal {
		return false
	}
	inBasisCount := 0
	for j, st := range b.status {
		switch st {
		case inBasis:
			// A basic artificial is fine: degenerate dispatch optima
			// legitimately finish with an artificial basic at value zero,
			// and the upper clamp below plus the primal feasibility check
			// pin it there. Rejecting such bases made nearly half of all
			// structurally identical re-solves fall back to the cold path
			// (the lp.warm_fallbacks regression; see
			// TestWarmStartDegenerateArtificialBasis).
			inBasisCount++
		case atUpper:
			if math.IsInf(s.upper[j], 1) {
				return false // bound vanished; the status is meaningless
			}
		case atLower:
			// Always valid (lower bounds are fixed at zero).
		default:
			return false
		}
	}
	if inBasisCount != sf.m {
		return false
	}
	seen := make([]bool, sf.nTotal)
	for _, col := range b.rows {
		if col < 0 || col >= sf.nTotal || b.status[col] != inBasis || seen[col] {
			return false
		}
		seen[col] = true
	}
	copy(s.status, b.status)
	// Artificials never re-enter a warm phase 2.
	s.clampArtificials()
	if !s.la.warm(b.rows) {
		return false
	}

	// Primal feasibility under the perturbed bounds, with the same
	// scale-aware tolerance the cold phase 1 uses.
	scale := 1.0
	for _, v := range s.xb {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	eps := s.tol * scale * float64(sf.m+1) * 100
	for i, v := range s.xb {
		if v < -eps {
			return false
		}
		u := s.upper[s.basis[i]]
		if !math.IsInf(u, 1) && v > u+eps {
			return false
		}
		if v < 0 {
			s.xb[i] = 0
		} else if v > u {
			s.xb[i] = u
		}
	}
	return true
}
