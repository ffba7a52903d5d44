// Package matrix provides the sparse-matrix substrate for Copernicus:
// a triplet builder, a canonical compressed-sparse-row (CSR) storage type,
// partition tiles stored as compact per-tile CSR, the non-zero partition
// extractor described in §4.1 of the paper, and the per-partition
// statistics of Fig. 3.
//
// CSR is used as the canonical in-memory representation from which every
// compression format under study encodes its streams; it plays the role of
// the paper's MATLAB preprocessing output.
package matrix

import (
	"fmt"
	"math"
	"sort"
)

// Element sizes on the modelled accelerator. The paper streams 32-bit
// values and 32-bit indices/offsets over AXI; Go computes in float64 but
// all byte accounting uses these widths.
const (
	BytesPerValue  = 4 // float32 on the accelerator
	BytesPerIndex  = 4 // 32-bit row/column indices
	BytesPerOffset = 4 // 32-bit offset/pointer entries
)

// CSR is a sparse matrix in compressed-sparse-row form with sorted,
// duplicate-free column indices within each row and no explicitly stored
// zeros. Construct one with a Builder (or gen/workloads helpers); the
// invariants above are relied upon by every format encoder.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1; RowPtr[i]..RowPtr[i+1] slices Col/Val
	Col        []int // column index per non-zero, sorted within a row
	Val        []float64
}

// NNZ returns the number of stored non-zero entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// Density returns NNZ / (Rows*Cols), the fraction of non-zero entries.
func (m *CSR) Density() float64 {
	if m.Rows == 0 || m.Cols == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.Rows) * float64(m.Cols))
}

// RowNNZ returns the number of non-zeros in row i.
func (m *CSR) RowNNZ(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// At returns the value at (i, j), or 0 if absent. It is O(log nnz(i)) and
// intended for tests and small matrices, not inner loops.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	k := lo + sort.SearchInts(m.Col[lo:hi], j)
	if k < hi && m.Col[k] == j {
		return m.Val[k]
	}
	return 0
}

// Bandwidth returns the matrix bandwidth: the maximum |i-j| over stored
// non-zeros. A diagonal matrix has bandwidth 0.
func (m *CSR) Bandwidth() int {
	bw := 0
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if d := abs(i - m.Col[k]); d > bw {
				bw = d
			}
		}
	}
	return bw
}

// MulVec computes y = A·x with a software reference SpMV. It is the golden
// model every hardware-simulated SpMV result is verified against.
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("matrix: MulVec dimension mismatch: %d cols vs %d vector", m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.Col[k]]
		}
		y[i] = s
	}
	return y
}

// Transpose returns Aᵀ in CSR form (equivalently, A viewed as CSC). The
// CSC encoder uses it to produce column-ordered streams.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int, m.Cols+1),
		Col:    make([]int, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
	}
	// Count entries per column, prefix-sum, then scatter.
	for _, c := range m.Col {
		t.RowPtr[c+1]++
	}
	for i := 0; i < m.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := make([]int, m.Cols)
	copy(next, t.RowPtr[:m.Cols])
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := m.Col[k]
			t.Col[next[c]] = i
			t.Val[next[c]] = m.Val[k]
			next[c]++
		}
	}
	return t
}

// Equal reports whether two matrices have identical dimensions and stored
// entries within tolerance tol.
func Equal(a, b *CSR, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i <= a.Rows; i++ {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.Col {
		if a.Col[k] != b.Col[k] || math.Abs(a.Val[k]-b.Val[k]) > tol {
			return false
		}
	}
	return true
}

// Validate checks the CSR invariants and returns a descriptive error for
// the first violation. It is used by tests and by decoders that rebuild
// matrices from untrusted streams.
func (m *CSR) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("matrix: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("matrix: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("matrix: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if len(m.Col) != len(m.Val) {
		return fmt.Errorf("matrix: Col length %d != Val length %d", len(m.Col), len(m.Val))
	}
	if m.RowPtr[m.Rows] != len(m.Val) {
		return fmt.Errorf("matrix: RowPtr[last] = %d, want nnz %d", m.RowPtr[m.Rows], len(m.Val))
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i+1] < m.RowPtr[i] {
			return fmt.Errorf("matrix: RowPtr decreases at row %d", i)
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.Col[k] < 0 || m.Col[k] >= m.Cols {
				return fmt.Errorf("matrix: column %d out of range at row %d", m.Col[k], i)
			}
			if k > m.RowPtr[i] && m.Col[k] <= m.Col[k-1] {
				return fmt.Errorf("matrix: columns not strictly increasing at row %d", i)
			}
			if m.Val[k] == 0 {
				return fmt.Errorf("matrix: explicit zero stored at (%d,%d)", i, m.Col[k])
			}
		}
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
