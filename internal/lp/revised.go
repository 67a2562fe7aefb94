// Sparse revised backend of the bounded simplex (MethodRevised).
//
// The backend never materializes the dense B⁻¹A tableau. It keeps the
// standard form's CSC matrix (sparse.go), represents B⁻¹ as a sparse LU
// factorization plus product-form eta updates (lu.go), prices with a BTRAN
// solve per iteration (partial pricing above a size threshold), and hands
// the engine the FTRAN image of the entering column. Per pivot the work is
// O(nnz) instead of O(m·nTotal), which is what makes the national-scale
// gridgen tier tractable (BenchmarkRevisedNationalGrid).
//
// The pivot rules are the engine's (bounded.go), so both backends walk the
// same vertex path as long as they pick the same entering columns; only
// the floating-point route to each number differs (reduced costs come from
// y = B⁻ᵀc_B instead of the carried tableau row). Sparse arithmetic
// therefore agrees with the dense backend to 1e-9 but not to the last ulp
// (DESIGN.md §15). MethodAuto only picks this backend above the dense
// crossover (Method.resolve), so the paper figures stay on the dense path;
// an explicit MethodRevised runs it at every size, and
// TestRevisedVsDenseDifferential proves the 1e-9 agreement.
package lp

const (
	// revisedPartialPricingMin is the column count above which pricing
	// scans cyclic blocks instead of every column per iteration.
	revisedPartialPricingMin = 4096
	// revisedPricingBlock is the partial-pricing block width.
	revisedPricingBlock = 1024
)

// sparseLU is the sparse linalg backend.
type sparseLU struct {
	s  *boundedSimplex
	lu *luState

	priceCursor int

	// Counter deltas, flushed to the lp.revised.* telemetry at solver exit.
	cFactor, cEta, cRefactor, cFtran, cBtran int64

	cb     []float64 // slot space: costs of basic columns
	w      []float64 // slot space: FTRAN image of the entering column
	y      []float64 // row space: pricing duals
	colBuf []float64 // row space scatter buffer, kept all-zero between uses
}

func newSparseLU(s *boundedSimplex) *sparseLU {
	m := s.sf.m
	r := &sparseLU{
		s:      s,
		lu:     newLUState(m),
		cb:     make([]float64, m),
		w:      make([]float64, m),
		y:      make([]float64, m),
		colBuf: make([]float64, m),
	}
	// The starting basis is all slack/artificial unit columns — never
	// singular.
	r.refactor()
	return r
}

func (r *sparseLU) flush() {
	mRevFactorizations.Add(r.cFactor)
	mRevEtaUpdates.Add(r.cEta)
	mRevRefactorTriggers.Add(r.cRefactor)
	mRevFtranSolves.Add(r.cFtran)
	mRevBtranSolves.Add(r.cBtran)
}

func (r *sparseLU) refactor() bool {
	if !r.lu.refactor(r.s.sf, r.s.basis) {
		return false
	}
	r.cFactor++
	return true
}

// btran sets y = B⁻ᵀc_B.
func (r *sparseLU) btran(c []float64) {
	for i, bc := range r.s.basis {
		r.cb[i] = c[bc]
	}
	r.lu.btranInto(r.y, r.cb)
	r.cBtran++
}

func (r *sparseLU) begin([]float64) {}

// entering prices every column against fresh duals y = B⁻ᵀc_B: Dantzig
// with first-lowest-index ties (first candidate under Bland), over all
// columns or — above the partial pricing threshold — cyclic blocks
// starting at the pricing cursor.
func (r *sparseLU) entering(c []float64, bland bool) (int, float64) {
	r.btran(c)
	nTotal := r.s.sf.nTotal
	if bland || nTotal < revisedPartialPricingMin {
		return r.priceRange(c, 0, nTotal, bland)
	}
	start := r.priceCursor % nTotal
	for scanned := 0; scanned < nTotal; {
		hi := min(start+revisedPricingBlock, nTotal)
		if j, dir := r.priceRange(c, start, hi, false); j >= 0 {
			r.priceCursor = hi % nTotal
			return j, dir
		}
		scanned += hi - start
		start = hi % nTotal
	}
	return -1, 0
}

func (r *sparseLU) priceRange(c []float64, lo, hi int, bland bool) (int, float64) {
	s := r.s
	enter := -1
	enterDir := 1.0
	best := s.tol
	for j := lo; j < hi; j++ {
		if s.status[j] == inBasis {
			continue
		}
		if s.upper[j] == 0 && s.status[j] == atLower {
			continue // fixed at zero (clamped artificials)
		}
		rc := c[j] - r.dot(r.y, j)
		var imp, dir float64
		if s.status[j] == atLower && rc < 0 {
			imp, dir = -rc, 1
		} else if s.status[j] == atUpper && rc > 0 {
			imp, dir = rc, -1
		} else {
			continue
		}
		if imp > best {
			best = imp
			enter = j
			enterDir = dir
			if bland {
				break
			}
		}
	}
	return enter, enterDir
}

// dot is yᵀA_j over the sparse column.
func (r *sparseLU) dot(y []float64, j int) float64 {
	rows, vals := r.s.sf.a.col(j)
	sum := 0.0
	for k, i := range rows {
		sum += y[i] * vals[k]
	}
	return sum
}

// column computes w = B⁻¹A_j via the scatter buffer (restored to zero
// before returning).
func (r *sparseLU) column(j int) []float64 {
	rows, vals := r.s.sf.a.col(j)
	for k, i := range rows {
		r.colBuf[i] = vals[k]
	}
	r.lu.ftranInto(r.w, r.colBuf)
	r.cFtran++
	for _, i := range rows {
		r.colBuf[i] = 0
	}
	return r.w
}

// pivot absorbs the basis change as an eta, refactoring on the
// update-count trigger or when the pivot element is too small to absorb
// stably.
func (r *sparseLU) pivot(leave, _ int) bool {
	if r.lu.update(leave, r.w) {
		r.cEta++
		if !r.lu.needsRefactor() {
			return true
		}
	}
	r.cRefactor++
	return r.refactor()
}

// warm factorizes the basis in the given slot order and computes the basic
// values as xb = B⁻¹(b − Σ u_j A_j over nonbasic-at-upper columns): the
// at-upper offsets accumulate in row space, then one FTRAN.
func (r *sparseLU) warm(rows []int) bool {
	s := r.s
	copy(s.basis, rows)
	if !r.refactor() {
		return false
	}
	// r.y doubles as the row-space scratch here (pricing overwrites it
	// before first use). xb still holds the standard form's b.
	copy(r.y, s.xb)
	for j, st := range s.status {
		if u := s.upper[j]; st == atUpper && u != 0 {
			rows, vals := s.sf.a.col(j)
			for k, i := range rows {
				r.y[i] -= u * vals[k]
			}
		}
	}
	r.lu.ftranInto(s.xb, r.y)
	r.cFtran++
	return true
}

// duals refactorizes the final basis (dropping eta round-off), then solves
// for y with one BTRAN.
func (r *sparseLU) duals() ([]float64, bool) {
	if !r.refactor() {
		return nil, false
	}
	r.btran(r.s.sf.cost)
	return r.y, true
}

func (r *sparseLU) reducedCost(y []float64, j int) float64 {
	return r.s.sf.cost[j] - r.dot(y, j)
}
