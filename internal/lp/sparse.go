// Standard form of the bounded simplex, in sparse column storage.
//
// Both backends of the bounded simplex (bounded.go) start from the one
// lowering here: the dense tableau scatters its CSC matrix, the revised
// backend factors and prices straight from it. The column layout is
// structural variables first, then per constraint row a slack (LE),
// surplus+artificial (GE), or artificial (EQ) column, with rows of negative
// RHS negated. A Basis captured by either backend therefore indexes the
// same columns, which is what lets warm starts and the solve cache cross
// the method boundary.
package lp

import "math"

// cscMatrix is an m-row sparse matrix in compressed sparse column form.
// Row indices within each column are strictly ascending.
type cscMatrix struct {
	m      int
	colPtr []int32 // len = cols+1
	rowIdx []int32 // len = nnz
	val    []float64
}

// cols reports the number of columns.
func (a *cscMatrix) cols() int { return len(a.colPtr) - 1 }

// col returns the row indices and values of column j.
func (a *cscMatrix) col(j int) ([]int32, []float64) {
	lo, hi := a.colPtr[j], a.colPtr[j+1]
	return a.rowIdx[lo:hi], a.val[lo:hi]
}

// colNNZ reports the number of stored entries in column j.
func (a *cscMatrix) colNNZ(j int) int { return int(a.colPtr[j+1] - a.colPtr[j]) }

// standardForm is the bounded-variable standard form of a Problem in sparse
// column storage: minimize cost·x subject to A·x = rhs, 0 ≤ x ≤ upper, with
// slack/surplus/artificial columns appended after the structural ones.
type standardForm struct {
	n      int // structural variables
	m      int // constraint rows
	nTotal int // total columns

	a     *cscMatrix
	rhs   []float64 // normalized b ≥ 0
	upper []float64 // per column
	cost  []float64 // phase-2 cost per column
	art   []bool    // per column: is artificial
	// startBasis[i] is the column initially basic in row i (its slack or
	// artificial).
	startBasis []int
}

// newStandardForm lowers p into sparse standard form: rows with a negative
// RHS are negated (a ≤ row becomes ≥ and vice versa), and duplicate
// (row, variable) coefficients aggregate in encounter order.
func newStandardForm(p *Problem) *standardForm {
	s := &standardForm{n: len(p.obj), m: len(p.rows)}

	// Pass 1: structural column counts (duplicate (row, var) coefficients
	// aggregate, so count distinct slots conservatively by occurrences —
	// duplicates are merged in pass 2).
	counts := make([]int32, s.n)
	for _, row := range p.rows {
		for _, co := range row.Coefs {
			counts[co.Var]++
		}
	}
	// Extra columns: one slack or surplus per non-EQ row plus one
	// artificial per GE/EQ row. Sized exactly below; allocate the column
	// pointer for the worst case (2 per row) and trim.
	maxCols := s.n + 2*s.m
	colPtr := make([]int32, maxCols+1)
	nnzStruct := int32(0)
	for j := 0; j < s.n; j++ {
		colPtr[j] = nnzStruct
		nnzStruct += counts[j]
	}
	rowIdx := make([]int32, nnzStruct, nnzStruct+int32(2*s.m))
	val := make([]float64, nnzStruct, nnzStruct+int32(2*s.m))

	// Pass 2: fill structural entries row-by-row; within each column,
	// entries arrive in ascending row order because rows are visited in
	// order. Duplicate (row, var) pairs within one row aggregate in place.
	fill := make([]int32, s.n)
	copy(fill, colPtr[:s.n])
	s.rhs = make([]float64, s.m)
	senses := make([]Sense, s.m)
	for i, row := range p.rows {
		sense, rhs := row.Sense, row.RHS
		flip := rhs < 0
		if flip {
			rhs = -rhs
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		for _, co := range row.Coefs {
			v := co.Value
			if flip {
				v = -v
			}
			j := co.Var
			// Aggregate a duplicate of the same row within this column.
			if fill[j] > colPtr[j] && rowIdx[fill[j]-1] == int32(i) {
				val[fill[j]-1] += v
				continue
			}
			rowIdx[fill[j]] = int32(i)
			val[fill[j]] = v
			fill[j]++
		}
		s.rhs[i] = rhs
		senses[i] = sense
	}
	// Compact out the slots freed by duplicate aggregation.
	w := int32(0)
	for j := 0; j < s.n; j++ {
		lo := colPtr[j]
		colPtr[j] = w
		for k := lo; k < fill[j]; k++ {
			rowIdx[w] = rowIdx[k]
			val[w] = val[k]
			w++
		}
	}
	rowIdx = rowIdx[:w]
	val = val[:w]

	// Column metadata for structural variables.
	s.upper = make([]float64, 0, maxCols)
	s.cost = make([]float64, 0, maxCols)
	s.art = make([]bool, 0, maxCols)
	for j := 0; j < s.n; j++ {
		s.upper = append(s.upper, p.upper[j])
		s.cost = append(s.cost, p.obj[j])
		s.art = append(s.art, false)
	}

	// Slack / surplus / artificial columns in row order.
	s.startBasis = make([]int, s.m)
	col := s.n
	addUnit := func(rowI int, coef float64, isArt bool) int {
		colPtr[col] = int32(len(rowIdx))
		rowIdx = append(rowIdx, int32(rowI))
		val = append(val, coef)
		s.upper = append(s.upper, math.Inf(1))
		s.cost = append(s.cost, 0)
		s.art = append(s.art, isArt)
		col++
		return col - 1
	}
	for i := 0; i < s.m; i++ {
		switch senses[i] {
		case LE:
			s.startBasis[i] = addUnit(i, 1, false)
		case GE:
			addUnit(i, -1, false) // surplus
			s.startBasis[i] = addUnit(i, 1, true)
		case EQ:
			s.startBasis[i] = addUnit(i, 1, true)
		}
	}
	s.nTotal = col
	colPtr[col] = int32(len(rowIdx))
	s.a = &cscMatrix{m: s.m, colPtr: colPtr[:col+1], rowIdx: rowIdx, val: val}
	return s
}
