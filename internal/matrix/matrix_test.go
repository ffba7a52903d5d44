package matrix

import (
	"math"
	"testing"
	"testing/quick"

	"copernicus/internal/xrand"
)

// randomCSR builds a random rows×cols matrix with approximately the given
// density, for use across the matrix tests.
func randomCSR(seed uint64, rows, cols int, density float64) *CSR {
	r := xrand.New(seed)
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < density {
				b.Add(i, j, r.ValueIn(-2, 2))
			}
		}
	}
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4, 4)
	b.Add(0, 3, 1)
	b.Add(2, 1, -2.5)
	b.Add(3, 3, 4)
	m := b.Build()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	if got := m.At(2, 1); got != -2.5 {
		t.Fatalf("At(2,1) = %v, want -2.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestBuilderSumsDuplicates(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(1, 1, 2)
	b.Add(1, 1, 3)
	m := b.Build()
	if m.NNZ() != 1 || m.At(1, 1) != 5 {
		t.Fatalf("duplicate entries not summed: nnz=%d at=%v", m.NNZ(), m.At(1, 1))
	}
}

func TestBuilderDropsCancellingDuplicates(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 1, 7)
	b.Add(0, 1, -7)
	m := b.Build()
	if m.NNZ() != 0 {
		t.Fatalf("cancelling duplicates kept: nnz=%d", m.NNZ())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderDropsExplicitZeros(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 0)
	if b.Len() != 0 {
		t.Fatal("explicit zero was recorded")
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Add did not panic")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}

func TestAddSym(t *testing.T) {
	b := NewBuilder(3, 3)
	b.AddSym(0, 2, 5)
	b.AddSym(1, 1, 3)
	m := b.Build()
	if m.At(0, 2) != 5 || m.At(2, 0) != 5 {
		t.Fatal("AddSym did not mirror off-diagonal entry")
	}
	if m.At(1, 1) != 3 || m.NNZ() != 3 {
		t.Fatalf("AddSym mishandled diagonal: nnz=%d", m.NNZ())
	}
}

func TestFromDenseToDenseRoundTrip(t *testing.T) {
	check := func(seed uint64) bool {
		r := xrand.New(seed)
		rows, cols := 1+r.Intn(12), 1+r.Intn(12)
		d := make([]float64, rows*cols)
		for i := range d {
			if r.Float64() < 0.4 {
				d[i] = r.ValueIn(-3, 3)
			}
		}
		m := FromDense(rows, cols, d)
		if err := m.Validate(); err != nil {
			return false
		}
		back := toDense(m)
		for i := range d {
			if back[i] != d[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecReference(t *testing.T) {
	// | 1 0 2 |   |1|   | 7 |
	// | 0 0 0 | · |2| = | 0 |
	// | 3 4 0 |   |3|   |11 |
	m := FromDense(3, 3, []float64{1, 0, 2, 0, 0, 0, 3, 4, 0})
	y := m.MulVec([]float64{1, 2, 3})
	want := []float64{7, 0, 11}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestMulVecDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	FromDense(2, 2, []float64{1, 0, 0, 1}).MulVec([]float64{1})
}

func TestTransposeInvolution(t *testing.T) {
	check := func(seed uint64) bool {
		m := randomCSR(seed, 9, 13, 0.3)
		tt := m.Transpose().Transpose()
		return Equal(m, tt, 0)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeValues(t *testing.T) {
	m := randomCSR(7, 8, 8, 0.25)
	tr := m.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestBandwidth(t *testing.T) {
	m := FromDense(4, 4, []float64{
		1, 0, 0, 0,
		1, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	})
	if bw := m.Bandwidth(); bw != 1 {
		t.Fatalf("bandwidth = %d, want 1", bw)
	}
	diag := FromDense(3, 3, []float64{1, 0, 0, 0, 2, 0, 0, 0, 3})
	if bw := diag.Bandwidth(); bw != 0 {
		t.Fatalf("diagonal bandwidth = %d, want 0", bw)
	}
}

func TestDensity(t *testing.T) {
	m := FromDense(2, 2, []float64{1, 0, 0, 1})
	if d := m.Density(); d != 0.5 {
		t.Fatalf("density = %v, want 0.5", d)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := randomCSR(1, 6, 6, 0.4)
	cases := []struct {
		name    string
		corrupt func(*CSR)
	}{
		{"rowptr first", func(m *CSR) { m.RowPtr[0] = 1 }},
		{"rowptr decreasing", func(m *CSR) { m.RowPtr[2] = m.RowPtr[1] - 1 }},
		{"col out of range", func(m *CSR) { m.Col[0] = m.Cols }},
		{"explicit zero", func(m *CSR) { m.Val[0] = 0 }},
		{"rowptr last", func(m *CSR) { m.RowPtr[m.Rows] = len(m.Val) + 1 }},
	}
	for _, c := range cases {
		cp := &CSR{Rows: m.Rows, Cols: m.Cols,
			RowPtr: append([]int(nil), m.RowPtr...),
			Col:    append([]int(nil), m.Col...),
			Val:    append([]float64(nil), m.Val...)}
		c.corrupt(cp)
		if err := cp.Validate(); err == nil {
			t.Errorf("%s: corruption not detected", c.name)
		}
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	check := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(16)
		m := randomCSR(seed, n, n, 0.3)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.ValueIn(-1, 1)
		}
		y := m.MulVec(x)
		d := toDense(m)
		for i := 0; i < n; i++ {
			want := 0.0
			for j := 0; j < n; j++ {
				want += d[i*n+j] * x[j]
			}
			if math.Abs(y[i]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// toDense expands m to a row-major dense slice, FromDense's inverse.
func toDense(m *CSR) []float64 {
	d := make([]float64, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d[i*m.Cols+m.Col[k]] = m.Val[k]
		}
	}
	return d
}

// Len returns the number of recorded triplets (before deduplication).
func (b *Builder) Len() int { return len(b.entries) }
