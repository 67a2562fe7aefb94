// Bounded-variable primal simplex.
//
// The explicit-rows solver (lp.go, MethodRows) lowers every finite upper
// bound onto an explicit ≤ row, which keeps the pivot logic textbook-simple
// but grows the basis by one row per bound. Energy dispatch LPs are
// bound-dominated — every flow, generation and load variable is boxed — so
// this file provides the classic bounded-variable simplex in which
// nonbasic variables may sit at either bound and bound-to-bound "flips"
// avoid pivots entirely. On the six-state model it shrinks the basis from
// ~150 rows to ~50; BenchmarkLPMethodRows and BenchmarkLPMethodBounded
// measure the difference.
//
// MethodBounded and MethodRevised are one engine: the standard form
// (sparse.go), the two phases, the pivot loop with its ratio test, flips
// and anti-cycling switch, the warm re-entry (warmstart.go) and the
// solution assembly live here once. They differ only in the linear algebra
// behind the linalg interface: a dense B⁻¹A tableau carrying its reduced
// costs (dense.go), or a sparse LU of the basis priced by BTRAN (revised.go).
//
// MethodAuto runs the dense backend on every problem up to denseMaxRows
// constraint rows. Results (objective, primal values, row duals, bound
// duals) agree with MethodRows to solver tolerance; the cross-check is
// TestMethodsAgree in bounded_test.go.
package lp

import "math"

// Method selects the simplex implementation.
type Method int8

const (
	// MethodAuto (the zero value) picks MethodBounded up to
	// denseMaxRows constraint rows and MethodRevised above.
	MethodAuto Method = iota
	// MethodRows lowers upper bounds onto explicit rows. MethodAuto never
	// picks it; it is the independent reference the bounded solver is
	// tested against.
	MethodRows
	// MethodBounded keeps upper bounds implicit in the pivot rules
	// (smaller basis and incrementally updated reduced costs; ~30× faster
	// on the westgrid dispatch LP).
	MethodBounded
	// MethodRevised is the bounded engine on the sparse backend
	// (revised.go): CSC column storage, LU-factorized basis with
	// product-form eta updates, sparse FTRAN/BTRAN and partial pricing.
	// O(nnz) per pivot instead of O(m·nTotal) — the only method that
	// scales to the national gridgen tier.
	MethodRevised
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodRows:
		return "rows"
	case MethodBounded:
		return "bounded"
	case MethodRevised:
		return "revised"
	default:
		return "Method(?)"
	}
}

// denseMaxRows is the dense/sparse crossover: MethodAuto runs the dense
// bounded tableau at or below this many constraint rows and the sparse
// revised simplex above it, where the tableau's O(m·nTotal) pivots start
// to dominate. Every paper figure stays below it.
const denseMaxRows = 512

// resolve maps MethodAuto to a concrete method for problem p. It is the
// only place the solver is chosen by problem size.
func (m Method) resolve(p *Problem) Method {
	if m != MethodAuto {
		return m
	}
	if len(p.rows) > denseMaxRows {
		return MethodRevised
	}
	return MethodBounded
}

// autoResidualTol is the scaled primal residual above which an optimum the
// dense tableau reports under MethodAuto is distrusted and the problem is
// re-solved with MethodRevised. The tableau never reinverts, so error can
// build up over long pivot paths; paper dispatches stay below 1e-11.
const autoResidualTol = 1e-6

// scaledResidual is the largest primal violation of x in p: each row's
// violation over 1 + |rhs| + Σ|aᵢⱼxⱼ|, and each bound violation over
// 1 + |bound|.
func (p *Problem) scaledResidual(x []float64) float64 {
	worst := 0.0
	for j, v := range x {
		worst = max(worst, -v)
		if u := p.upper[j]; v > u {
			worst = max(worst, (v-u)/(1+u))
		}
	}
	for _, row := range p.rows {
		lhs, mag := 0.0, 0.0
		for _, c := range row.Coefs {
			t := c.Value * x[c.Var]
			lhs += t
			mag += math.Abs(t)
		}
		viol := math.Abs(lhs - row.RHS)
		switch row.Sense {
		case LE:
			viol = lhs - row.RHS
		case GE:
			viol = row.RHS - lhs
		}
		worst = max(worst, viol/(1+math.Abs(row.RHS)+mag))
	}
	return worst
}

// nonbasic status markers.
const (
	atLower int8 = iota
	atUpper
	inBasis
)

// statusNumerical is an internal status: the sparse backend's LU
// refactorization found the basis numerically singular mid-solve. The
// caller falls back to the dense backend, which pivots through
// near-singularity instead of factoring.
const statusNumerical Status = -2

// linalg is the linear algebra behind the bounded simplex: everything that
// depends on how B⁻¹ is represented. The engine calls it once per pivot,
// never once per matrix element.
type linalg interface {
	// begin starts a simplex phase minimizing c.
	begin(c []float64)
	// entering picks the column to enter the basis under objective c, and
	// the direction it moves (+1 up from its lower bound, −1 down from its
	// upper bound); −1 when the basis is optimal.
	entering(c []float64, bland bool) (int, float64)
	// column returns B⁻¹A_j in basis-slot order. The engine reads it until
	// the next pivot.
	column(j int) []float64
	// pivot absorbs the basis change the engine just made: column enter
	// became basic in slot leave. False means the new basis is numerically
	// singular.
	pivot(leave, enter int) bool
	// warm factorizes the basis whose columns are rows (in any slot
	// order), fills the engine's basis slots and sets its basic values
	// from the right-hand side and the nonbasic columns at their upper
	// bound. False means the basis is singular for this problem.
	warm(rows []int) bool
	// duals solves Bᵀy = c_B at the final basis with the phase-2 costs.
	duals() ([]float64, bool)
	// reducedCost is cost_j − yᵀA_j.
	reducedCost(y []float64, j int) float64
	// flush books the backend's work counters.
	flush()
}

// boundedSimplex is the state of the bounded-variable simplex: which
// column is basic in each slot, where every nonbasic column rests, and the
// basic values.
type boundedSimplex struct {
	tol        float64
	skipDuals  bool
	forceBland bool
	g          *guard
	p          *Problem
	// sf is owned by the solve: its rhs becomes xb and its upper the
	// per-column bounds, both mutated in place.
	sf *standardForm
	la linalg

	basis  []int     // slot → basic column
	status []int8    // per column
	upper  []float64 // per column (artificials clamped to 0 after phase 1)
	xb     []float64 // slot → basic value

	iters int
	max   int
}

// solveBounded solves p with the bounded simplex on the backend of method
// (MethodBounded or MethodRevised): warm from opts.WarmStart when it
// applies, otherwise cold from both phases.
func solveBounded(p *Problem, opts Options, g *guard, method Method) (*Solution, error) {
	if method == MethodRevised {
		mRevSolves.Inc()
	}
	if opts.WarmStart != nil {
		if sol, err, ok := solveWarm(p, opts, g, method); ok {
			return sol, err
		}
		mWarmFallbacks.Inc()
	}
	s := newBoundedSimplex(p, opts, g, method)
	defer s.la.flush()
	switch st := s.run(); st {
	case statusAborted:
		return nil, p.solveErr("lp.pivot", Optimal, s.iters, g.err)
	case statusNumerical:
		// Correctness is never affected by the hand-over — only cost —
		// and the event is counted.
		mRevDenseFallbacks.Inc()
		opts.WarmStart = nil
		sol, err := solveBounded(p, opts, g, MethodBounded)
		if sol != nil {
			sol.Iterations += s.iters
		}
		return sol, err
	case Infeasible, Unbounded, IterationLimit, Canceled, DeadlineExceeded:
		return &Solution{Status: st, Iterations: s.iters}, nil
	}
	return s.extract()
}

func newBoundedSimplex(p *Problem, opts Options, g *guard, method Method) *boundedSimplex {
	sf := newStandardForm(p)
	s := &boundedSimplex{
		tol:        opts.tol(),
		skipDuals:  opts.SkipDuals,
		forceBland: opts.ForceBland,
		g:          g,
		p:          p,
		sf:         sf,
		basis:      sf.startBasis,
		status:     make([]int8, sf.nTotal),
		upper:      sf.upper,
		xb:         sf.rhs,
		max:        opts.maxIter(sf.m, sf.nTotal),
	}
	for _, c := range s.basis {
		s.status[c] = inBasis
	}
	if method == MethodRevised {
		s.la = newSparseLU(s)
	} else {
		s.la = newDenseTableau(s)
	}
	return s
}

// run executes both phases. Returns Optimal on success.
func (s *boundedSimplex) run() Status {
	sf := s.sf
	hasArt := false
	for _, isArt := range sf.art {
		if isArt {
			hasArt = true
			break
		}
	}
	if hasArt {
		c1 := make([]float64, sf.nTotal)
		for j, isArt := range sf.art {
			if isArt {
				c1[j] = 1
			}
		}
		if st := s.simplex(c1); st != Optimal {
			return st
		}
		// Infeasible if any artificial remains positive.
		artSum := 0.0
		for i, bc := range s.basis {
			if sf.art[bc] {
				artSum += s.xb[i]
			}
		}
		scale := 1.0
		for _, v := range s.xb {
			if v > scale {
				scale = v
			}
		}
		if artSum > s.tol*scale*float64(sf.m+1)*100 {
			return Infeasible
		}
		// Clamp artificials to zero: cap their bounds so they cannot
		// re-enter at positive value in phase 2.
		s.clampArtificials()
	}
	return s.simplex(sf.cost)
}

func (s *boundedSimplex) clampArtificials() {
	for j, isArt := range s.sf.art {
		if isArt {
			s.upper[j] = 0
		}
	}
}

// simplex runs bounded-variable pivots minimizing c over the current state:
// Dantzig pricing with first-lowest-index ties (the backend's entering),
// a switch to Bland's rule after 2·(m+10) pivots without objective
// progress, and a ratio test whose ties go to the lower basic column.
func (s *boundedSimplex) simplex(c []float64) Status {
	m, nTotal := s.sf.m, s.sf.nTotal
	bland := s.forceBland
	noProgress := 0
	lastObj := math.Inf(1)
	s.la.begin(c)
	for s.iters < s.max {
		if s.g.due(s.iters) {
			if st, stop := s.g.at("lp.pivot"); stop {
				return st
			}
		}
		// Objective for progress tracking.
		obj := 0.0
		for j := 0; j < nTotal; j++ {
			if s.status[j] == atUpper {
				obj += c[j] * s.upper[j]
			}
		}
		for i, bc := range s.basis {
			obj += c[bc] * s.xb[i]
		}
		if obj < lastObj-s.tol {
			lastObj = obj
			noProgress = 0
		} else if noProgress++; noProgress > 2*(m+10) {
			if !bland {
				mBlandSwitch.Inc()
			}
			bland = true
		}

		enter, enterDir := s.la.entering(c, bland)
		if enter < 0 {
			return Optimal
		}
		w := s.la.column(enter)

		// Ratio test: moving x_enter by Δ·enterDir changes basic values
		// by −Δ·enterDir·w. Find the first limit among:
		//   (a) a basic variable reaching 0,
		//   (b) a basic variable reaching its upper bound,
		//   (c) x_enter reaching its own opposite bound.
		limit := math.Inf(1)
		if u := s.upper[enter]; !math.IsInf(u, 1) {
			limit = u // case (c): full flip distance
		}
		leave := -1
		leaveToUpper := false
		for i := 0; i < m; i++ {
			coef := enterDir * w[i]
			bc := s.basis[i]
			if coef > s.tol {
				// Basic value decreases toward 0.
				ratio := s.xb[i] / coef
				if ratio < limit-s.tol ||
					(ratio < limit+s.tol && leave >= 0 && bc < s.basis[leave]) {
					limit = ratio
					leave = i
					leaveToUpper = false
				}
			} else if coef < -s.tol {
				// Basic value increases toward its upper bound.
				if ub := s.upper[bc]; !math.IsInf(ub, 1) {
					ratio := (ub - s.xb[i]) / -coef
					if ratio < limit-s.tol ||
						(ratio < limit+s.tol && leave >= 0 && bc < s.basis[leave]) {
						limit = ratio
						leave = i
						leaveToUpper = true
					}
				}
			}
		}
		if math.IsInf(limit, 1) {
			return Unbounded
		}
		s.iters++
		s.move(w, enterDir, limit)
		if leave < 0 {
			// Bound flip: x_enter runs to its opposite bound.
			if enterDir > 0 {
				s.status[enter] = atUpper
			} else {
				s.status[enter] = atLower
			}
			continue
		}
		// Pivot: swap the basis; the entering value is its distance from
		// the bound it left.
		outCol := s.basis[leave]
		if leaveToUpper {
			s.status[outCol] = atUpper
		} else {
			s.status[outCol] = atLower
		}
		if enterDir > 0 {
			s.xb[leave] = limit // rose from its lower bound (0)
		} else {
			s.xb[leave] = s.upper[enter] - limit // fell from its upper bound
		}
		s.basis[leave] = enter
		s.status[enter] = inBasis
		if !s.la.pivot(leave, enter) {
			return statusNumerical
		}
	}
	return IterationLimit
}

// move shifts the entering column, whose image is w, by delta in direction
// dir and updates the basic values, clamping tiny negatives to zero.
func (s *boundedSimplex) move(w []float64, dir, delta float64) {
	if delta == 0 {
		return
	}
	xb := s.xb
	w = w[:len(xb)]
	for i := range xb {
		xb[i] -= dir * delta * w[i]
		if xb[i] < 0 && xb[i] > -1e-11 {
			xb[i] = 0
		}
	}
}

// extract assembles the optimal solution: primal values from the bounds and
// basic values, row duals from the backend's Bᵀy = c_B solve (sign-mapped
// back through the RHS normalization), and bound duals as the reduced costs
// of structural columns nonbasic at their upper bound (relaxing u_j by δ
// changes the optimum by r_j·δ ≤ 0).
func (s *boundedSimplex) extract() (*Solution, error) {
	sf := s.sf
	sol := &Solution{
		Status:     Optimal,
		X:          make([]float64, sf.n),
		Duals:      make([]float64, sf.m),
		BoundDuals: make([]float64, sf.n),
		Iterations: s.iters,
	}
	for j := range sol.X {
		if s.status[j] == atUpper {
			sol.X[j] = s.upper[j]
		}
	}
	for i, bc := range s.basis {
		if bc < sf.n {
			sol.X[bc] = s.xb[i]
		}
	}
	obj := 0.0
	for j, x := range sol.X {
		if math.Abs(x) < 1e-12 {
			x = 0
			sol.X[j] = 0
		}
		obj += s.p.obj[j] * x
	}
	sol.Objective = obj
	sol.basis = s.captureBasis()

	if s.skipDuals {
		return sol, nil
	}
	y, ok := s.la.duals()
	if !ok {
		return nil, s.p.solveErr("dual-extraction", Optimal, s.iters, ErrSingularBasis)
	}
	for i, row := range s.p.rows {
		d := y[i]
		if row.RHS < 0 {
			d = -d
		}
		sol.Duals[i] = d
	}
	for j := range sol.BoundDuals {
		if s.status[j] == atUpper {
			sol.BoundDuals[j] = s.la.reducedCost(y, j)
		}
	}
	return sol, nil
}
