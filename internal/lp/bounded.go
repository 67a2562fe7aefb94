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
// MethodAuto runs this solver on every problem up to denseMaxRows
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
	// MethodRevised is the sparse revised simplex (revised.go): CSC column
	// storage, LU-factorized basis with product-form eta updates, sparse
	// FTRAN/BTRAN and partial pricing. Same standard form and pivot rules
	// as MethodBounded, O(nnz) per pivot instead of O(m·nTotal) — the only
	// method that scales to the national gridgen tier.
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

// boundedTableau is the working state of the bounded-variable simplex in
// dense tableau form: a holds B⁻¹A for all columns, rhs holds the basic
// variable *values* (already adjusted for nonbasic-at-upper offsets), and rc
// holds the reduced costs of the objective the running simplex call
// minimizes.
type boundedTableau struct {
	tol        float64
	skipDuals  bool
	forceBland bool
	g          *guard
	p          *Problem

	n      int // structural variables
	m      int // rows (user constraints only)
	nTotal int // structural + slack/artificial columns

	a     [][]float64
	rc    []float64 // reduced-cost row: one more row of a's backing array
	rhs   []float64
	upper []float64 // per column (slacks: +Inf, artificials: 0 after phase 1)
	cost  []float64 // phase-2 cost per column

	basis  []int  // column basic in each row
	status []int8 // per column
	art    []bool // per column: is artificial

	iters int
	max   int
}

// solveBounded is the entry point used by Problem.SolveOpts for
// MethodBounded.
func solveBounded(p *Problem, opts Options, g *guard) (*Solution, error) {
	if opts.WarmStart != nil {
		if sol, err, ok := solveBoundedWarm(p, opts, g); ok {
			return sol, err
		}
		mWarmFallbacks.Inc()
	}
	t := newBoundedTableau(p, opts)
	t.g = g
	st := t.run()
	switch st {
	case statusAborted:
		return nil, p.solveErr("lp.pivot", Optimal, t.iters, g.err)
	case Infeasible, Unbounded, IterationLimit, Canceled, DeadlineExceeded:
		return &Solution{Status: st, Iterations: t.iters}, nil
	}
	return t.extract(p)
}

func newBoundedTableau(p *Problem, opts Options) *boundedTableau {
	t := &boundedTableau{tol: opts.tol(), skipDuals: opts.SkipDuals, forceBland: opts.ForceBland, p: p}
	t.n = len(p.obj)
	t.m = len(p.rows)

	maxCols := t.n + 2*t.m
	t.a = make([][]float64, t.m)
	backing := make([]float64, (t.m+1)*maxCols)
	for i := range t.a {
		t.a[i] = backing[i*maxCols : (i+1)*maxCols]
	}
	t.rc = backing[t.m*maxCols:]
	t.rhs = make([]float64, t.m)
	t.upper = make([]float64, 0, maxCols)
	t.cost = make([]float64, 0, maxCols)
	t.basis = make([]int, t.m)
	t.status = make([]int8, 0, maxCols)
	t.art = make([]bool, 0, maxCols)

	for j := 0; j < t.n; j++ {
		t.upper = append(t.upper, p.upper[j])
		t.cost = append(t.cost, p.obj[j])
		t.status = append(t.status, atLower)
		t.art = append(t.art, false)
	}

	// Normalize rows to b ≥ 0 and add slack/artificial columns.
	t.nTotal = loadStandardForm(t.a, p)
	addCol := func(isArt bool) int {
		t.upper = append(t.upper, math.Inf(1))
		t.cost = append(t.cost, 0)
		t.status = append(t.status, atLower)
		t.art = append(t.art, isArt)
		return len(t.art) - 1
	}
	for i, row := range p.rows {
		s, flip := normalizedSense(row)
		t.rhs[i] = row.RHS
		if flip {
			t.rhs[i] = -row.RHS
		}
		var c int
		switch s {
		case LE:
			c = addCol(false)
		case GE:
			addCol(false) // surplus
			c = addCol(true)
		case EQ:
			c = addCol(true)
		default:
			continue
		}
		t.basis[i] = c
		t.status[c] = inBasis
	}
	t.max = opts.maxIter(t.m, t.nTotal)
	return t
}

// run executes both phases. Returns Optimal on success.
func (t *boundedTableau) run() Status {
	hasArt := false
	for _, isArt := range t.art {
		if isArt {
			hasArt = true
			break
		}
	}
	if hasArt {
		c1 := make([]float64, t.nTotal)
		for j, isArt := range t.art {
			if isArt {
				c1[j] = 1
			}
		}
		if st := t.simplex(c1); st != Optimal {
			return st
		}
		// Infeasible if any artificial remains positive.
		artSum := 0.0
		for i, bc := range t.basis {
			if t.art[bc] {
				artSum += t.rhs[i]
			}
		}
		scale := 1.0
		for _, v := range t.rhs {
			if v > scale {
				scale = v
			}
		}
		if artSum > t.tol*scale*float64(t.m+1)*100 {
			return Infeasible
		}
		// Clamp artificials to zero: cap their bounds so they cannot
		// re-enter at positive value in phase 2.
		for j, isArt := range t.art {
			if isArt {
				t.upper[j] = 0
			}
		}
	}
	return t.simplex(t.cost)
}

// value returns the current value of column j.
func (t *boundedTableau) value(j int) float64 {
	switch t.status[j] {
	case atUpper:
		return t.upper[j]
	case inBasis:
		for i, bc := range t.basis {
			if bc == j {
				return t.rhs[i]
			}
		}
	}
	return 0
}

// simplex runs bounded-variable pivots minimizing c over the current state.
//
// Pricing is incremental: the reduced-cost row is computed once on entry and
// then carried through each pivot as one more elimination step (bound flips
// leave it unchanged), so choosing the entering column costs O(nTotal)
// instead of O(m·nTotal). Because the carried row accumulates rounding that
// a fresh pricing would not, optimality is only declared after re-pricing
// from scratch; if that reveals an improving column, pivoting continues.
func (t *boundedTableau) simplex(c []float64) Status {
	bland := t.forceBland
	noProgress := 0
	lastObj := math.Inf(1)
	t.price(c)
	fresh := true
	for t.iters < t.max {
		if t.g.due(t.iters) {
			if st, stop := t.g.at("lp.pivot"); stop {
				return st
			}
		}
		// Objective for progress tracking.
		obj := 0.0
		for j := 0; j < t.nTotal; j++ {
			if t.status[j] == atUpper {
				obj += c[j] * t.upper[j]
			}
		}
		for i, bc := range t.basis {
			obj += c[bc] * t.rhs[i]
		}
		if obj < lastObj-t.tol {
			lastObj = obj
			noProgress = 0
		} else if noProgress++; noProgress > 2*(t.m+10) {
			if !bland {
				mBlandSwitch.Inc()
			}
			bland = true
		}

		enter, enterDir := t.entering(bland)
		if enter < 0 {
			if fresh {
				return Optimal
			}
			t.price(c)
			fresh = true
			if enter, enterDir = t.entering(bland); enter < 0 {
				return Optimal
			}
		}

		// Ratio test: moving x_enter by Δ·enterDir changes basic values
		// by −Δ·enterDir·column. Find the first limit among:
		//   (a) a basic variable reaching 0,
		//   (b) a basic variable reaching its upper bound,
		//   (c) x_enter reaching its own opposite bound.
		limit := math.Inf(1)
		if u := t.upper[enter]; !math.IsInf(u, 1) {
			limit = u // case (c): full flip distance
		}
		leave := -1
		leaveToUpper := false
		for i := 0; i < t.m; i++ {
			coef := enterDir * t.a[i][enter]
			bc := t.basis[i]
			if coef > t.tol {
				// Basic value decreases toward 0.
				ratio := t.rhs[i] / coef
				if ratio < limit-t.tol ||
					(ratio < limit+t.tol && leave >= 0 && bc < t.basis[leave]) {
					limit = ratio
					leave = i
					leaveToUpper = false
				}
			} else if coef < -t.tol {
				// Basic value increases toward its upper bound.
				if ub := t.upper[bc]; !math.IsInf(ub, 1) {
					ratio := (ub - t.rhs[i]) / -coef
					if ratio < limit-t.tol ||
						(ratio < limit+t.tol && leave >= 0 && bc < t.basis[leave]) {
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
		t.iters++
		if leave < 0 {
			// Bound flip: x_enter runs to its opposite bound.
			t.flip(enter, enterDir, limit)
			continue
		}
		// Pivot: shift basic values for the move, then swap basis.
		t.move(enter, enterDir, limit)
		var enterValue float64
		if enterDir > 0 {
			enterValue = limit // rose from its lower bound (0)
		} else {
			enterValue = t.upper[enter] - limit // fell from its upper bound
		}
		outCol := t.basis[leave]
		if leaveToUpper {
			t.status[outCol] = atUpper
		} else {
			t.status[outCol] = atLower
		}
		t.pivot(leave, enter, enterValue)
		t.status[enter] = inBasis
		fresh = false
		if afterPivotHook != nil {
			afterPivotHook(t, c)
		}
	}
	return IterationLimit
}

// afterPivotHook, when non-nil, runs after every pivot of simplex with the
// objective being minimized. It is nil outside tests (export_test.go sets it
// to compare the carried reduced-cost row against a fresh pricing).
var afterPivotHook func(t *boundedTableau, c []float64)

// price recomputes the reduced-cost row from scratch:
// r_j = c_j − Σ_i c_B[i]·(B⁻¹A)[i][j]. It accumulates row by row in basis
// order, which gives every r_j the same sequence of operations — and so the
// same bits — as summing column by column.
func (t *boundedTableau) price(c []float64) {
	t.priceInto(t.rc[:t.nTotal], c)
	mPricingFull.Inc()
}

func (t *boundedTableau) priceInto(rc, c []float64) {
	copy(rc, c[:len(rc)])
	for i, bc := range t.basis {
		cb := c[bc]
		if cb == 0 {
			continue
		}
		ai := t.a[i][:len(rc)]
		for j, v := range ai {
			rc[j] -= cb * v
		}
	}
}

// entering picks the entering column from the reduced-cost row: a column at
// its lower bound with r < −tol (increase) or at its upper bound with
// r > tol (decrease), largest improvement first (Dantzig), or the first
// such column under Bland's rule. It returns −1 when none qualifies.
func (t *boundedTableau) entering(bland bool) (enter int, dir float64) {
	enter, dir = -1, 1
	best := t.tol
	for j, r := range t.rc[:t.nTotal] {
		var imp, d float64
		switch t.status[j] {
		case atLower:
			if r >= 0 || t.upper[j] == 0 {
				continue // not improving, or fixed at zero (clamped artificials)
			}
			imp, d = -r, 1
		case atUpper:
			if r <= 0 {
				continue
			}
			imp, d = r, -1
		default:
			continue
		}
		if imp > best {
			best, enter, dir = imp, j, d
			if bland {
				break
			}
		}
	}
	return enter, dir
}

// flip moves a nonbasic column across to its other bound, adjusting basic
// values.
func (t *boundedTableau) flip(j int, dir, delta float64) {
	t.move(j, dir, delta)
	if dir > 0 {
		t.status[j] = atUpper
	} else {
		t.status[j] = atLower
	}
}

// move shifts nonbasic column j by delta in direction dir and updates the
// basic variable values accordingly.
func (t *boundedTableau) move(j int, dir, delta float64) {
	if delta == 0 {
		return
	}
	for i := 0; i < t.m; i++ {
		t.rhs[i] -= dir * delta * t.a[i][j]
		if t.rhs[i] < 0 && t.rhs[i] > -1e-11 {
			t.rhs[i] = 0
		}
	}
}

// pivot performs the Gauss-Jordan elimination making column col basic in
// row `row`. Unlike the rows-method tableau, rhs stores basic-variable
// *values*, which are unchanged for rows other than `row` by a basis swap;
// only row `row` is rewritten to the entering variable's value (enterValue,
// computed by the caller from the ratio-test limit). The reduced-cost row is
// eliminated like any other row, and its entering entry set to exactly 0.
func (t *boundedTableau) pivot(row, col int, enterValue float64) {
	piv := t.a[row][col]
	inv := 1 / piv
	ar := t.a[row][:t.nTotal]
	for j := range ar {
		ar[j] *= inv
	}
	t.rhs[row] = enterValue
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		ai := t.a[i][:len(ar)]
		for j, v := range ar {
			ai[j] -= f * v
		}
	}
	if f := t.rc[col]; f != 0 {
		rc := t.rc[:len(ar)]
		for j, v := range ar {
			rc[j] -= f * v
		}
	}
	t.rc[col] = 0
	t.basis[row] = col
}

// extract reads out the solution and recovers duals by solving Bᵀy = c_B
// against the original (pre-pivot) standard-form matrix.
func (t *boundedTableau) extract(p *Problem) (*Solution, error) {
	sol := &Solution{
		Status:     Optimal,
		X:          make([]float64, t.n),
		Duals:      make([]float64, t.m),
		BoundDuals: make([]float64, t.n),
		Iterations: t.iters,
	}
	for j := 0; j < t.n; j++ {
		v := t.value(j)
		if math.Abs(v) < 1e-12 {
			v = 0
		}
		sol.X[j] = v
	}
	obj := 0.0
	for j, x := range sol.X {
		obj += p.obj[j] * x
	}
	sol.Objective = obj
	sol.basis = t.captureBasis()

	if t.skipDuals {
		return sol, nil
	}
	// Rebuild original standard-form columns.
	orig := t.originalMatrix(p)
	bt := make([][]float64, t.m)
	for i := range bt {
		bt[i] = make([]float64, t.m+1)
	}
	for k, bc := range t.basis {
		for i := 0; i < t.m; i++ {
			bt[k][i] = orig[i][bc]
		}
		bt[k][t.m] = t.cost[bc]
	}
	y, ok := solveDense(bt)
	if !ok {
		return nil, p.solveErr("dual-extraction", Optimal, t.iters, ErrSingularBasis)
	}
	for i, row := range p.rows {
		d := y[i]
		if row.RHS < 0 {
			d = -d
		}
		sol.Duals[i] = d
	}
	// Bound duals: reduced cost of structural variables nonbasic at their
	// upper bound (relaxing u_j by δ changes the optimum by r_j·δ ≤ 0).
	for j := 0; j < t.n; j++ {
		if t.status[j] != atUpper {
			continue
		}
		r := t.cost[j]
		for i := 0; i < t.m; i++ {
			r -= y[i] * orig[i][j]
		}
		sol.BoundDuals[j] = r
	}
	return sol, nil
}

// originalMatrix reconstructs the pre-pivot standard-form matrix for dual
// extraction. The pivoted tableau is dead once extraction starts, so the
// matrix is rebuilt in its rows rather than in a fresh allocation.
func (t *boundedTableau) originalMatrix(p *Problem) [][]float64 {
	for _, row := range t.a {
		clear(row)
	}
	loadStandardForm(t.a, p)
	return t.a
}

// normalizedSense returns the sense of row once it is negated to a
// nonnegative right-hand side, and whether it was negated.
func normalizedSense(row Constraint) (s Sense, flip bool) {
	if row.RHS < 0 {
		switch row.Sense {
		case LE:
			return GE, true
		case GE:
			return LE, true
		}
		return row.Sense, true
	}
	return row.Sense, false
}

// loadStandardForm writes the standard-form matrix of p into the zeroed rows
// of a: each row's structural coefficients (negated with a negative RHS),
// then, from column n on and in row order, one slack column per ≤ row, a
// surplus and an artificial column per ≥ row and an artificial column per
// = row. It returns the total column count.
func loadStandardForm(a [][]float64, p *Problem) int {
	for i, row := range p.rows {
		_, flip := normalizedSense(row)
		for _, co := range row.Coefs {
			v := co.Value
			if flip {
				v = -v
			}
			a[i][co.Var] += v
		}
	}
	col := len(p.obj)
	for i, row := range p.rows {
		switch s, _ := normalizedSense(row); s {
		case LE, EQ:
			a[i][col] = 1
			col++
		case GE:
			a[i][col] = -1 // surplus
			a[i][col+1] = 1
			col += 2
		}
	}
	return col
}
