// Package lp implements a dense two-phase primal simplex solver for small to
// medium linear programs, with dual-value extraction.
//
// The solver targets the problem sizes that arise in energy-dispatch models
// (hundreds of variables and constraints). It favors numerical robustness
// and auditability over asymptotic speed: the tableau is dense, pivoting is
// Dantzig-rule with an automatic switch to Bland's rule to break cycling,
// and dual values are recovered by solving Bᵀy = c_B against the original
// constraint matrix rather than read out of the (sign-fragile) tableau.
//
// Problems are stated as
//
//	minimize  cᵀx
//	subject to aᵢᵀx {≤,=,≥} bᵢ   for each constraint i
//	           0 ≤ xⱼ ≤ uⱼ       for each variable j (uⱼ may be +Inf)
//
// Three methods share this interface (Options.Method). MethodBounded and
// MethodRevised are one bounded-variable engine (bounded.go) on two
// linear-algebra backends: a dense tableau (dense.go) and a sparse LU
// (revised.go). By default (Method.resolve) problems with up to a few
// hundred constraint rows run the dense backend and larger ones the sparse
// one. MethodRows, in this file, lowers upper bounds onto explicit ≤ rows,
// which keeps the pivot logic to the textbook standard form; it is separate
// code, the reference the bounded engine is tested against.
// Every method reports bound duals (the reduced-cost rents used by the
// marginal-cost profit division in package actors) alongside the row duals.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cpsguard/internal/telemetry"
)

// Sense is the direction of a linear constraint.
type Sense int8

const (
	// LE is aᵀx ≤ b.
	LE Sense = iota
	// EQ is aᵀx = b.
	EQ
	// GE is aᵀx ≥ b.
	GE
)

// String returns the conventional symbol for the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	default:
		return fmt.Sprintf("Sense(%d)", int8(s))
	}
}

// Status describes the outcome of a Solve call.
type Status int8

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies all constraints.
	Infeasible
	// Unbounded means the objective can decrease without limit.
	Unbounded
	// IterationLimit means the pivot limit was exhausted before optimality.
	IterationLimit
	// Canceled means Options.Ctx was canceled mid-solve.
	Canceled
	// DeadlineExceeded means Options.Ctx's deadline expired mid-solve.
	DeadlineExceeded
	// NodeLimit means a branch-and-bound node budget was exhausted before
	// any integer-feasible incumbent was found (MILP only).
	NodeLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	case Canceled:
		return "canceled"
	case DeadlineExceeded:
		return "deadline-exceeded"
	case NodeLimit:
		return "node-limit"
	default:
		return fmt.Sprintf("Status(%d)", int8(s))
	}
}

// ErrBadProblem reports a structurally invalid problem (e.g. a coefficient
// referencing an unknown variable, or a NaN entry).
var ErrBadProblem = errors.New("lp: invalid problem")

// Coef is one nonzero entry of a constraint row.
type Coef struct {
	Var   int     // variable index
	Value float64 // coefficient
}

// Constraint is one linear constraint in a Problem.
type Constraint struct {
	Coefs []Coef
	Sense Sense
	RHS   float64
	// Name is an optional label used in error messages and debugging dumps.
	Name string
}

// Problem is a linear program under construction. The zero value is an empty
// minimization problem; add variables first, then constraints.
type Problem struct {
	name   string    // problem label for error attribution
	obj    []float64 // cost per variable
	upper  []float64 // upper bound per variable (may be +Inf)
	names  []string  // variable names (debugging)
	rows   []Constraint
	bounds int // number of finite upper bounds (for sizing)
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// SetName labels the problem; the label is carried on every *SolveError so
// failures in multi-actor runs are attributable to a specific solve.
func (p *Problem) SetName(name string) { p.name = name }

// Name returns the label set by SetName (empty by default).
func (p *Problem) Name() string { return p.name }

// AddVariable appends a variable with the given objective cost and upper
// bound (use math.Inf(1) for none) and returns its index. Lower bounds are
// always zero; shift the variable at modeling time if a different lower
// bound is needed.
func (p *Problem) AddVariable(name string, cost, upper float64) int {
	p.obj = append(p.obj, cost)
	p.upper = append(p.upper, upper)
	p.names = append(p.names, name)
	if !math.IsInf(upper, 1) {
		p.bounds++
	}
	return len(p.obj) - 1
}

// SetCost replaces the objective coefficient of variable v.
func (p *Problem) SetCost(v int, cost float64) { p.obj[v] = cost }

// SetUpper replaces the upper bound of variable v.
func (p *Problem) SetUpper(v int, upper float64) {
	if math.IsInf(p.upper[v], 1) != math.IsInf(upper, 1) {
		if math.IsInf(upper, 1) {
			p.bounds--
		} else {
			p.bounds++
		}
	}
	p.upper[v] = upper
}

// NumVariables reports the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.obj) }

// NumConstraints reports the number of constraint rows added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// AddConstraint appends a constraint row and returns its index. The index
// identifies the row's dual value in Solution.Duals.
func (p *Problem) AddConstraint(c Constraint) int {
	p.rows = append(p.rows, c)
	return len(p.rows) - 1
}

// VariableName returns the name given to variable v at AddVariable time.
func (p *Problem) VariableName(v int) string { return p.names[v] }

// Cost returns the objective coefficient of variable v.
func (p *Problem) Cost(v int) float64 { return p.obj[v] }

// Upper returns the upper bound of variable v (possibly +Inf).
func (p *Problem) Upper(v int) float64 { return p.upper[v] }

// ConstraintAt returns a copy of constraint row i. The coefficient slice is
// copied so callers cannot alias the problem's internals.
func (p *Problem) ConstraintAt(i int) Constraint {
	c := p.rows[i]
	c.Coefs = append([]Coef(nil), c.Coefs...)
	return c
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	Objective float64
	// X holds the primal values, indexed by variable.
	X []float64
	// Duals holds one dual value per constraint row (by AddConstraint
	// index). Sign convention: for the minimization primal, a dual y_i
	// satisfies c ≥ Aᵀy on all variables, so a binding ≤ row has y ≤ 0
	// impact on cost reduction... concretely: relaxing b_i by +δ changes
	// the optimal objective by approximately y_i·δ.
	Duals []float64
	// BoundDuals holds the dual of each variable's upper-bound row
	// (zero when the bound is infinite or slack). Relaxing the bound u_j
	// by +δ changes the objective by approximately BoundDuals[j]·δ.
	BoundDuals []float64
	// Iterations is the total number of simplex pivots performed.
	Iterations int
	// Fallbacks records resilience degradations applied by SolveResilient
	// ("bland-restart: ...", ...). Empty for a clean first-attempt solve.
	Fallbacks []string
	// WarmStarted reports that this solution was produced by the warm path
	// (phase 2 re-entered from Options.WarmStart). False when no basis was
	// supplied or the basis was rejected and the solver fell back to cold.
	WarmStarted bool

	// basis is the optimal basis (bounded method only); see Basis().
	basis *Basis
}

// Options tunes the solver. The zero value selects defaults.
type Options struct {
	// Tol is the feasibility/optimality tolerance (default 1e-9).
	Tol float64
	// MaxIter caps total pivots (default 50·(m+n), at least 10_000).
	MaxIter int
	// Method selects the simplex implementation (default MethodAuto, which
	// picks by problem size; see Method.resolve).
	Method Method
	// SkipDuals skips dual extraction. Use for formulations with split
	// free variables (x = x⁺ − x⁻), where both halves can legitimately
	// end up basic and the basis matrix is singular even though the
	// primal optimum is exact.
	SkipDuals bool
	// Ctx, when non-nil, is checked on entry and every CheckEvery pivots;
	// cancellation stops the solve with status Canceled or
	// DeadlineExceeded (an already-expired context returns before any
	// pivoting).
	Ctx context.Context
	// CheckEvery is the pivot interval between Ctx/Hook checkpoints
	// (default 64).
	CheckEvery int
	// ForceBland starts pivoting under Bland's rule immediately instead
	// of Dantzig's rule — slower but cycling-proof; used by the
	// SolveResilient fallback chain.
	ForceBland bool
	// Hook is an optional fault-injection / instrumentation checkpoint;
	// see the Hook type.
	Hook Hook
	// WarmStart, when non-nil, re-enters phase 2 from the supplied basis
	// (typically Solution.Basis() of a structurally identical problem),
	// skipping phase 1. A basis that is stale — wrong dimensions, singular
	// or primal infeasible for this problem — is rejected and the solve
	// falls back to the cold two-phase path, so results are never
	// affected, only cost. See warmstart.go.
	WarmStart *Basis
}

func (o Options) tol() float64 {
	if o.Tol > 0 {
		return o.Tol
	}
	return 1e-9
}

func (o Options) maxIter(m, n int) int {
	if o.MaxIter > 0 {
		return o.MaxIter
	}
	it := 50 * (m + n)
	if it < 10000 {
		it = 10000
	}
	return it
}

func (o Options) checkEvery() int {
	if o.CheckEvery > 0 {
		return o.CheckEvery
	}
	return 64
}

// Solve solves the problem with default options.
func (p *Problem) Solve() (*Solution, error) { return p.SolveOpts(Options{}) }

// SolveOpts solves the problem with explicit options. Panics inside the
// pivot loops are recovered and returned as a *SolveError; an expired
// Options.Ctx returns a Canceled/DeadlineExceeded solution without pivoting.
func (p *Problem) SolveOpts(opts Options) (sol *Solution, err error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	sp, _ := telemetry.Default().StartSpanCtx(opts.Ctx, "lp.solve", p.name)
	defer func() { recordSolve(sp, sol, err) }()
	g := newGuard(opts)
	if st, stop := g.at("lp.enter"); stop {
		if st == statusAborted {
			return nil, p.solveErr("lp.enter", Optimal, 0, g.err)
		}
		return &Solution{Status: st}, nil
	}
	defer func() {
		if r := recover(); r != nil {
			sol, err = nil, p.solveErr("pivot-loop", Optimal, 0, fmt.Errorf("recovered panic: %v", r))
		}
	}()
	switch opts.Method.resolve(p) {
	case MethodBounded:
		sol, err = solveBounded(p, opts, g, MethodBounded)
		// Under MethodAuto a dense answer that hit the pivot cap or
		// violates a row is handed to the sparse solver, which
		// refactorizes its basis. An explicit MethodBounded stays
		// unchecked: it is the differential oracle.
		if opts.Method == MethodAuto && err == nil && (sol.Status == IterationLimit ||
			sol.Status == Optimal && p.scaledResidual(sol.X) > autoResidualTol) {
			mAutoResolves.Inc()
			wasted := sol.Iterations
			opts.WarmStart = nil
			sol, err = solveBounded(p, opts, g, MethodRevised)
			if sol != nil {
				sol.Iterations += wasted
			}
		}
		return sol, err
	case MethodRevised:
		return solveBounded(p, opts, g, MethodRevised)
	}
	t, err := newTableau(p, opts)
	if err != nil {
		return nil, err
	}
	t.g = g
	return t.run()
}

// solveErr builds the structured error for a failed solve of p.
func (p *Problem) solveErr(stage string, st Status, iters int, cause error) error {
	return &SolveError{Problem: p.name, Stage: stage, Status: st, Iterations: iters, Err: cause}
}

func (p *Problem) validate() error {
	n := len(p.obj)
	for j, c := range p.obj {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("%w: objective coefficient of %q is %v", ErrBadProblem, p.names[j], c)
		}
	}
	for j, u := range p.upper {
		if math.IsNaN(u) || u < 0 {
			return fmt.Errorf("%w: upper bound of %q is %v", ErrBadProblem, p.names[j], u)
		}
	}
	for i, row := range p.rows {
		if math.IsNaN(row.RHS) || math.IsInf(row.RHS, 0) {
			return fmt.Errorf("%w: RHS of row %d (%s) is %v", ErrBadProblem, i, row.Name, row.RHS)
		}
		for _, co := range row.Coefs {
			if co.Var < 0 || co.Var >= n {
				return fmt.Errorf("%w: row %d (%s) references variable %d of %d", ErrBadProblem, i, row.Name, co.Var, n)
			}
			if math.IsNaN(co.Value) || math.IsInf(co.Value, 0) {
				return fmt.Errorf("%w: row %d (%s) has coefficient %v", ErrBadProblem, i, row.Name, co.Value)
			}
		}
	}
	return nil
}

// tableau is the working state of the two-phase simplex.
type tableau struct {
	p    *Problem
	opts Options
	tol  float64

	n      int // structural variables
	mUser  int // user constraint rows
	mBound int // bound rows
	m      int // total rows = mUser + mBound

	// a is the m×(n+extra) dense constraint matrix in standard form with
	// slack/surplus/artificial columns appended; b is the (nonnegative)
	// RHS. rowSense records the original sense after RHS normalization.
	a [][]float64
	b []float64

	nTotal  int   // columns in a
	basis   []int // basic variable (column) per row
	artCols []int // artificial column index per row, or -1
	// slackCols[i] is the slack/surplus column of row i, or -1 for EQ rows.
	slackCols []int

	cost  []float64 // phase-2 cost per column (0 for slack/art)
	iters int
	max   int
	g     *guard
}

func newTableau(p *Problem, opts Options) (*tableau, error) {
	t := &tableau{p: p, opts: opts, tol: opts.tol()}
	t.n = len(p.obj)
	t.mUser = len(p.rows)
	t.mBound = p.bounds
	t.m = t.mUser + t.mBound

	// Column layout: [structural | one slack/surplus per non-EQ row |
	// one artificial per row that needs one]. We allocate generously and
	// trim by tracking nTotal.
	maxCols := t.n + t.m /*slack*/ + t.m /*artificial*/
	t.a = make([][]float64, t.m)
	rowsBacking := make([]float64, t.m*maxCols)
	for i := range t.a {
		t.a[i] = rowsBacking[i*maxCols : (i+1)*maxCols]
	}
	t.b = make([]float64, t.m)
	t.basis = make([]int, t.m)
	t.artCols = make([]int, t.m)
	t.slackCols = make([]int, t.m)

	// Fill user rows. Normalize so b ≥ 0 (flip sense when negating).
	senses := make([]Sense, t.m)
	for i, row := range p.rows {
		s := row.Sense
		rhs := row.RHS
		flip := rhs < 0
		if flip {
			rhs = -rhs
			switch s {
			case LE:
				s = GE
			case GE:
				s = LE
			}
		}
		for _, co := range row.Coefs {
			v := co.Value
			if flip {
				v = -v
			}
			t.a[i][co.Var] += v
		}
		t.b[i] = rhs
		senses[i] = s
	}
	// Bound rows: x_j ≤ u_j.
	bi := t.mUser
	for j, u := range p.upper {
		if math.IsInf(u, 1) {
			continue
		}
		t.a[bi][j] = 1
		t.b[bi] = u
		senses[bi] = LE
		bi++
	}

	// Slack / surplus columns.
	col := t.n
	for i := 0; i < t.m; i++ {
		switch senses[i] {
		case LE:
			t.a[i][col] = 1
			t.slackCols[i] = col
			col++
		case GE:
			t.a[i][col] = -1
			t.slackCols[i] = col
			col++
		default:
			t.slackCols[i] = -1
		}
	}
	// Artificial columns: needed for GE and EQ rows; LE rows start with
	// their slack basic (b ≥ 0 already).
	for i := 0; i < t.m; i++ {
		switch senses[i] {
		case LE:
			t.basis[i] = t.slackCols[i]
			t.artCols[i] = -1
		default:
			t.a[i][col] = 1
			t.basis[i] = col
			t.artCols[i] = col
			col++
		}
	}
	t.nTotal = col

	// Phase-2 costs.
	t.cost = make([]float64, t.nTotal)
	copy(t.cost, p.obj)

	t.max = opts.maxIter(t.m, t.nTotal)
	return t, nil
}

// run executes phase 1 (if artificials exist) and phase 2, then extracts the
// solution and dual values.
func (t *tableau) run() (*Solution, error) {
	hasArt := false
	for _, c := range t.artCols {
		if c >= 0 {
			hasArt = true
			break
		}
	}
	if hasArt {
		mPhase1.Inc()
		// Phase-1 cost: sum of artificials.
		c1 := make([]float64, t.nTotal)
		for _, c := range t.artCols {
			if c >= 0 {
				c1[c] = 1
			}
		}
		st := t.simplex(c1, true)
		if st != Optimal {
			return t.stopped("lp.phase1", st)
		}
		// Feasible iff artificial sum is ~0.
		sum := 0.0
		for i, bc := range t.basis {
			if c1[bc] != 0 {
				sum += t.b[i]
			}
		}
		if sum > t.feasTol() {
			return &Solution{Status: Infeasible, Iterations: t.iters}, nil
		}
		t.evictArtificials()
	}
	st := t.simplex(t.cost, false)
	if st != Optimal {
		return t.stopped("lp.phase2", st)
	}
	return t.extract()
}

// stopped converts a non-optimal simplex exit status into the caller-facing
// (Solution, error) pair: degradation statuses travel on the Solution,
// hook-abort errors travel as a *SolveError.
func (t *tableau) stopped(stage string, st Status) (*Solution, error) {
	if st == statusAborted {
		return nil, t.p.solveErr(stage, Optimal, t.iters, t.g.err)
	}
	return &Solution{Status: st, Iterations: t.iters}, nil
}

// feasTol is the (scale-aware) phase-1 feasibility threshold.
func (t *tableau) feasTol() float64 {
	scale := 1.0
	for _, v := range t.b {
		if v > scale {
			scale = v
		}
	}
	return t.tol * scale * float64(t.m+1) * 100
}

// evictArtificials pivots basic artificial variables out of the basis (or
// leaves them at zero in degenerate redundant rows, where every structural
// coefficient is zero).
func (t *tableau) evictArtificials() {
	for i := 0; i < t.m; i++ {
		bc := t.basis[i]
		if t.artCols[i] != bc && !t.isArtificial(bc) {
			continue
		}
		if !t.isArtificial(bc) {
			continue
		}
		// Find any non-artificial column with a nonzero entry in row i.
		pivotCol := -1
		for j := 0; j < t.nTotal; j++ {
			if t.isArtificial(j) {
				continue
			}
			if math.Abs(t.a[i][j]) > t.tol {
				pivotCol = j
				break
			}
		}
		if pivotCol >= 0 {
			t.pivot(i, pivotCol)
		}
		// Otherwise the row is redundant; the artificial stays basic at
		// value ~0 and never re-enters because phase 2 ignores it (see
		// simplex: artificial columns are barred from entering).
	}
}

func (t *tableau) isArtificial(col int) bool {
	for _, c := range t.artCols {
		if c == col {
			return true
		}
	}
	return false
}

// simplex runs primal simplex pivots minimizing cᵀx over the current
// tableau. When phase1 is false, artificial columns may not enter the basis.
func (t *tableau) simplex(c []float64, phase1 bool) Status {
	// Reduced costs are computed on demand: r_j = c_j − c_Bᵀ(B⁻¹A)_j,
	// where the tableau columns already store B⁻¹A.
	bland := t.opts.ForceBland
	noProgress := 0
	lastObj := math.Inf(1)
	for t.iters < t.max {
		if t.g.due(t.iters) {
			if st, stop := t.g.at("lp.pivot"); stop {
				return st
			}
		}
		// Current basic costs.
		obj := 0.0
		for i, bc := range t.basis {
			obj += c[bc] * t.b[i]
		}
		if obj < lastObj-t.tol {
			lastObj = obj
			noProgress = 0
		} else {
			noProgress++
			if noProgress > 2*(t.m+10) {
				if !bland {
					mBlandSwitch.Inc()
				}
				bland = true // suspected cycling: switch to Bland's rule
			}
		}

		enter := -1
		best := -t.tol
		for j := 0; j < t.nTotal; j++ {
			if !phase1 && t.isArtificial(j) {
				continue
			}
			r := c[j]
			for i, bc := range t.basis {
				if cb := c[bc]; cb != 0 {
					r -= cb * t.a[i][j]
				}
			}
			if r < best {
				if bland {
					enter = j
					break
				}
				best = r
				enter = j
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.a[i][enter]
			if aij > t.tol {
				ratio := t.b[i] / aij
				if ratio < bestRatio-t.tol ||
					(ratio < bestRatio+t.tol && (leave < 0 || t.basis[i] < t.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		t.pivot(leave, enter)
		t.iters++
	}
	return IterationLimit
}

// pivot performs a Gauss-Jordan pivot making column `col` basic in row `row`.
func (t *tableau) pivot(row, col int) {
	piv := t.a[row][col]
	inv := 1 / piv
	ar := t.a[row]
	for j := 0; j < t.nTotal; j++ {
		ar[j] *= inv
	}
	t.b[row] *= inv
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		ai := t.a[i]
		for j := 0; j < t.nTotal; j++ {
			ai[j] -= f * ar[j]
		}
		t.b[i] -= f * t.b[row]
		if math.Abs(t.b[i]) < 1e-13 {
			t.b[i] = 0
		}
	}
	t.basis[row] = col
}

// extract reads the primal solution off the tableau and recovers duals by
// solving Bᵀy = c_B against the *original* standard-form matrix.
func (t *tableau) extract() (*Solution, error) {
	sol := &Solution{
		Status:     Optimal,
		X:          make([]float64, t.n),
		Duals:      make([]float64, t.mUser),
		BoundDuals: make([]float64, t.n),
		Iterations: t.iters,
	}
	for i, bc := range t.basis {
		if bc < t.n {
			sol.X[bc] = t.b[i]
		}
	}
	for j := range sol.X {
		if math.Abs(sol.X[j]) < 1e-12 {
			sol.X[j] = 0
		}
	}
	obj := 0.0
	for j, x := range sol.X {
		obj += t.p.obj[j] * x
	}
	sol.Objective = obj

	if t.opts.SkipDuals {
		return sol, nil
	}
	if st, stop := t.g.at("lp.extract"); stop {
		if st == statusAborted {
			return nil, t.p.solveErr("lp.extract", Optimal, t.iters, t.g.err)
		}
		return &Solution{Status: st, Iterations: t.iters}, nil
	}
	y, err := t.duals()
	if err != nil {
		// Attribute the failure: multi-actor runs solve hundreds of
		// near-identical LPs, and an unlabeled singular basis is
		// undiagnosable.
		return nil, t.p.solveErr("dual-extraction", Optimal, t.iters, err)
	}
	// Map standard-form duals back to user rows, undoing RHS normalization
	// (rows whose RHS was negated have negated duals).
	for i, row := range t.p.rows {
		d := y[i]
		if row.RHS < 0 {
			d = -d
		}
		sol.Duals[i] = d
	}
	bi := t.mUser
	for j, u := range t.p.upper {
		if math.IsInf(u, 1) {
			continue
		}
		sol.BoundDuals[j] = y[bi]
		bi++
	}
	return sol, nil
}

// duals rebuilds the original standard-form matrix (pre-pivoting) and solves
// Bᵀy = c_B with partial-pivot Gaussian elimination.
func (t *tableau) duals() ([]float64, error) {
	m := t.m
	// Rebuild original columns for the basis.
	orig := t.originalMatrix()
	bt := make([][]float64, m) // Bᵀ
	for i := range bt {
		bt[i] = make([]float64, m+1)
	}
	for k, bc := range t.basis { // column k of B is orig column basis[k]
		for i := 0; i < m; i++ {
			bt[k][i] = orig[i][bc] // (Bᵀ)[k][i] = B[i][k]
		}
		cb := 0.0
		if bc < len(t.cost) {
			cb = t.cost[bc]
		}
		bt[k][m] = cb
	}
	y, ok := solveDense(bt)
	if !ok {
		return nil, ErrSingularBasis
	}
	return y, nil
}

// originalMatrix reconstructs the standard-form constraint matrix as it was
// before any pivoting.
func (t *tableau) originalMatrix() [][]float64 {
	m := t.m
	orig := make([][]float64, m)
	backing := make([]float64, m*t.nTotal)
	for i := range orig {
		orig[i] = backing[i*t.nTotal : (i+1)*t.nTotal]
	}
	for i, row := range t.p.rows {
		flip := row.RHS < 0
		for _, co := range row.Coefs {
			v := co.Value
			if flip {
				v = -v
			}
			orig[i][co.Var] += v
		}
	}
	bi := t.mUser
	for j, u := range t.p.upper {
		if math.IsInf(u, 1) {
			continue
		}
		orig[bi][j] = 1
		bi++
	}
	for i := 0; i < m; i++ {
		if sc := t.slackCols[i]; sc >= 0 {
			// Sense after normalization decides the sign; recover it
			// from the stored slack sign convention: we must re-derive.
			orig[i][sc] = t.slackSign(i)
		}
		if ac := t.artCols[i]; ac >= 0 {
			orig[i][ac] = 1
		}
	}
	return orig
}

// slackSign reports +1 for a LE row's slack and −1 for a GE row's surplus,
// using the normalized sense.
func (t *tableau) slackSign(i int) float64 {
	if i >= t.mUser {
		return 1 // bound rows are always ≤
	}
	row := t.p.rows[i]
	s := row.Sense
	if row.RHS < 0 { // normalization flipped the sense
		switch s {
		case LE:
			s = GE
		case GE:
			s = LE
		}
	}
	if s == GE {
		return -1
	}
	return 1
}

// solveDense solves the square augmented system rows[i] = [A | b] in place
// via Gaussian elimination with partial pivoting. Returns the solution and
// whether the matrix was nonsingular.
func solveDense(rows [][]float64) ([]float64, bool) {
	n := len(rows)
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(rows[r][col]) > math.Abs(rows[p][col]) {
				p = r
			}
		}
		if math.Abs(rows[p][col]) < 1e-12 {
			return nil, false
		}
		rows[col], rows[p] = rows[p], rows[col]
		pivRow := rows[col]
		inv := 1 / pivRow[col]
		for j := col; j <= n; j++ {
			pivRow[j] *= inv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := rows[r][col]
			if f == 0 {
				continue
			}
			for j := col; j <= n; j++ {
				rows[r][j] -= f * pivRow[j]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = rows[i][n]
	}
	return x, true
}
