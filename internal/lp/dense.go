// Dense tableau backend of the bounded simplex (MethodBounded).
//
// The tableau holds B⁻¹A for every column, scattered from the standard
// form's CSC matrix, and carries the reduced-cost row of the running phase
// through each pivot as one more elimination row. Each pivot is one
// Gauss-Jordan step over the whole tableau, O(m·nTotal), which is the
// fastest route below a few hundred rows; the tableau is never reinverted.
package lp

import "math"

// denseTableau is the dense linalg backend.
type denseTableau struct {
	s *boundedSimplex
	a [][]float64 // B⁻¹A, one row per basis slot
	// rc is the reduced-cost row of c: one more row of a's backing array.
	rc    []float64
	c     []float64 // objective of the running phase
	fresh bool      // rc was priced from scratch since the last pivot
	w     []float64 // the entering column, gathered from a
}

func newDenseTableau(s *boundedSimplex) *denseTableau {
	sf := s.sf
	d := &denseTableau{s: s, a: make([][]float64, sf.m), w: make([]float64, sf.m)}
	backing := make([]float64, (sf.m+1)*sf.nTotal)
	for i := range d.a {
		d.a[i] = backing[i*sf.nTotal : (i+1)*sf.nTotal]
	}
	d.rc = backing[sf.m*sf.nTotal:]
	// Entries are added onto zero, not assigned, here and in duals and
	// reducedCost: a −0 coefficient then reads as +0 everywhere, so the
	// three agree on every sign of zero.
	for j := 0; j < sf.nTotal; j++ {
		rows, vals := sf.a.col(j)
		for k, r := range rows {
			d.a[r][j] += vals[k]
		}
	}
	return d
}

// begin prices c from scratch.
//
// Pricing is incremental: the reduced-cost row is computed once on entry
// and then carried through each pivot as one more elimination step (bound
// flips leave it unchanged), so choosing the entering column costs
// O(nTotal) instead of O(m·nTotal). Because the carried row accumulates
// rounding that a fresh pricing would not, optimality is only declared
// after re-pricing from scratch; if that reveals an improving column,
// pivoting continues.
func (d *denseTableau) begin(c []float64) {
	d.c = c
	d.price()
}

// price recomputes the reduced-cost row from scratch.
func (d *denseTableau) price() {
	d.priceInto(d.rc, d.c)
	d.fresh = true
	mPricingFull.Inc()
}

// priceInto writes r_j = c_j − Σ_i c_B[i]·(B⁻¹A)[i][j] into rc. It
// accumulates row by row in basis order, which gives every r_j the same
// sequence of operations — and so the same bits — as summing column by
// column.
func (d *denseTableau) priceInto(rc, c []float64) {
	copy(rc, c[:len(rc)])
	for i, bc := range d.s.basis {
		cb := c[bc]
		if cb == 0 {
			continue
		}
		for j, v := range d.a[i][:len(rc)] {
			rc[j] -= cb * v
		}
	}
}

func (d *denseTableau) entering(_ []float64, bland bool) (int, float64) {
	enter, dir := d.scan(bland)
	if enter < 0 && !d.fresh {
		d.price()
		enter, dir = d.scan(bland)
	}
	return enter, dir
}

// scan picks the entering column from the carried reduced-cost row: a
// column at its lower bound with r < −tol (increase) or at its upper bound
// with r > tol (decrease), largest improvement first (Dantzig), or the
// first such column under Bland's rule. It returns −1 when none qualifies.
func (d *denseTableau) scan(bland bool) (enter int, dir float64) {
	s := d.s
	enter, dir = -1, 1
	best := s.tol
	for j, r := range d.rc {
		var imp, dj float64
		switch s.status[j] {
		case atLower:
			if r >= 0 || s.upper[j] == 0 {
				continue // not improving, or fixed at zero (clamped artificials)
			}
			imp, dj = -r, 1
		case atUpper:
			if r <= 0 {
				continue
			}
			imp, dj = r, -1
		default:
			continue
		}
		if imp > best {
			best, enter, dir = imp, j, dj
			if bland {
				break
			}
		}
	}
	return enter, dir
}

func (d *denseTableau) column(j int) []float64 {
	for i, ai := range d.a {
		d.w[i] = ai[j]
	}
	return d.w
}

// pivot performs the Gauss-Jordan elimination making column col basic in
// slot row. The reduced-cost row is eliminated like any other row, and its
// entering entry set to exactly 0.
func (d *denseTableau) pivot(row, col int) bool {
	ar := d.a[row]
	inv := 1 / ar[col]
	for j := range ar {
		ar[j] *= inv
	}
	for i, ai := range d.a {
		if i == row {
			continue
		}
		if f := ai[col]; f != 0 {
			ai = ai[:len(ar)] // lets the compiler drop the bounds checks
			for j, v := range ar {
				ai[j] -= f * v
			}
		}
	}
	if f := d.rc[col]; f != 0 {
		rc := d.rc[:len(ar)]
		for j, v := range ar {
			rc[j] -= f * v
		}
	}
	d.rc[col] = 0
	d.fresh = false
	if afterPivotHook != nil {
		afterPivotHook(d)
	}
	return true
}

// afterPivotHook, when non-nil, runs after every pivot of the dense
// backend. It is nil outside tests (export_test.go sets it to compare the
// carried reduced-cost row against a fresh pricing).
var afterPivotHook func(d *denseTableau)

// warm Gauss-Jordans the basis columns to unit vectors with partial
// (largest-entry) pivoting over the not-yet-assigned rows, carrying the
// right-hand side along, so that a = B⁻¹A and xb = B⁻¹b; a pivot smaller
// than tolerance means the basis is singular for this problem. Nonbasic
// columns at their upper bound then contribute their bound value.
func (d *denseTableau) warm(rows []int) bool {
	s := d.s
	assigned := make([]bool, len(d.a))
	for _, col := range rows {
		row, rowAbs := -1, s.tol
		for i, ai := range d.a {
			if ab := math.Abs(ai[col]); !assigned[i] && ab > rowAbs {
				row, rowAbs = i, ab
			}
		}
		if row < 0 {
			return false
		}
		ar := d.a[row]
		inv := 1 / ar[col]
		for j := range ar {
			ar[j] *= inv
		}
		s.xb[row] *= inv
		for i, ai := range d.a {
			if i == row {
				continue
			}
			if f := ai[col]; f != 0 {
				ai = ai[:len(ar)]
				for j, v := range ar {
					ai[j] -= f * v
				}
				s.xb[i] -= f * s.xb[row]
			}
		}
		s.basis[row] = col
		assigned[row] = true
	}
	for j, st := range s.status {
		if u := s.upper[j]; st == atUpper && u != 0 {
			for i, ai := range d.a {
				s.xb[i] -= ai[j] * u
			}
		}
	}
	return true
}

// duals solves Bᵀy = c_B by Gaussian elimination on the basic columns of
// the original standard-form matrix, gathered from the CSC.
func (d *denseTableau) duals() ([]float64, bool) {
	sf := d.s.sf
	m := sf.m
	bt := make([][]float64, m)
	backing := make([]float64, m*(m+1))
	for k, bc := range d.s.basis {
		bt[k] = backing[k*(m+1) : (k+1)*(m+1)]
		rows, vals := sf.a.col(bc)
		for i, r := range rows {
			bt[k][r] += vals[i]
		}
		bt[k][m] = sf.cost[bc]
	}
	return solveDense(bt)
}

// reducedCost subtracts y_i·a_ij from cost_j row by row over every row,
// zero entries included.
func (d *denseTableau) reducedCost(y []float64, j int) float64 {
	rows, vals := d.s.sf.a.col(j)
	r := d.s.sf.cost[j]
	k := 0
	for i, yi := range y {
		a := 0.0
		if k < len(rows) && int(rows[k]) == i {
			a += vals[k]
			k++
		}
		r -= yi * a
	}
	return r
}

func (d *denseTableau) flush() {}
