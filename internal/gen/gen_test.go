package gen

import (
	"math"
	"testing"
	"testing/quick"

	"copernicus/internal/matrix"
)

func TestRandomDensity(t *testing.T) {
	for _, d := range []float64{0.001, 0.01, 0.1, 0.5} {
		m := Random(200, d, 1)
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		got := m.Density()
		if math.Abs(got-d) > 0.15*d+0.002 {
			t.Errorf("Random density %v produced %v", d, got)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(100, 0.05, 7)
	b := Random(100, 0.05, 7)
	if !matrix.Equal(a, b, 0) {
		t.Fatal("Random not deterministic in seed")
	}
	c := Random(100, 0.05, 8)
	if matrix.Equal(a, c, 0) {
		t.Fatal("different seeds produced identical matrices")
	}
}

func TestRandomEdgeCases(t *testing.T) {
	if m := Random(50, 0, 1); m.NNZ() != 0 {
		t.Fatal("density 0 produced non-zeros")
	}
	if m := Random(20, 1, 1); m.NNZ() != 400 {
		t.Fatalf("density 1 produced %d non-zeros, want 400", m.NNZ())
	}
	if m := Random(0, 0.5, 1); m.NNZ() != 0 {
		t.Fatal("n=0 produced non-zeros")
	}
}

func TestBandWidthContract(t *testing.T) {
	// Paper definition: a[i][j] = 0 if |i-j| > k/2.
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64} {
		m := Band(128, k, 3)
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		if bw := m.Bandwidth(); bw != k/2 {
			t.Errorf("Band width %d: bandwidth = %d, want %d", k, bw, k/2)
		}
		// Every admissible position is filled.
		wantNNZ := 0
		for i := 0; i < 128; i++ {
			lo, hi := max(0, i-k/2), min(127, i+k/2)
			wantNNZ += hi - lo + 1
		}
		if m.NNZ() != wantNNZ {
			t.Errorf("Band width %d: nnz = %d, want %d", k, m.NNZ(), wantNNZ)
		}
	}
}

func TestDiagonal(t *testing.T) {
	m := Diagonal(64, 5)
	if m.NNZ() != 64 || m.Bandwidth() != 0 {
		t.Fatalf("Diagonal: nnz=%d bandwidth=%d", m.NNZ(), m.Bandwidth())
	}
}

func TestRMATProperties(t *testing.T) {
	m := Graph500RMAT(8, 8, 11)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Rows != 256 {
		t.Fatalf("RMAT rows = %d, want 256", m.Rows)
	}
	// Duplicates collapse, so nnz <= edges; but should retain most edges.
	if m.NNZ() < 256*4 || m.NNZ() > 256*8 {
		t.Fatalf("RMAT nnz = %d outside sane range", m.NNZ())
	}
	// Skew: the max-degree vertex should far exceed the average degree.
	maxDeg := 0
	for i := 0; i < m.Rows; i++ {
		if d := m.RowNNZ(i); d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(m.NNZ()) / float64(m.Rows)
	if float64(maxDeg) < 3*avg {
		t.Fatalf("RMAT not skewed: max degree %d vs average %.1f", maxDeg, avg)
	}
}

func TestPreferentialAttachmentSkew(t *testing.T) {
	m := PreferentialAttachment(1000, 4, 13)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// In-degree (column) distribution must be heavy-tailed.
	tr := m.Transpose()
	maxIn := 0
	for i := 0; i < tr.Rows; i++ {
		if d := tr.RowNNZ(i); d > maxIn {
			maxIn = d
		}
	}
	avg := float64(m.NNZ()) / float64(m.Rows)
	if float64(maxIn) < 5*avg {
		t.Fatalf("preferential attachment not skewed: max in-degree %d vs average %.1f", maxIn, avg)
	}
}

func TestRoadMeshDegree(t *testing.T) {
	m := RoadMesh(30, 30, 0.1, 17)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := float64(m.NNZ()) / float64(m.Rows)
	if avg < 2 || avg > 5 {
		t.Fatalf("road mesh average degree %.2f outside [2,5]", avg)
	}
}

func TestTriangulatedMeshDegree(t *testing.T) {
	m := TriangulatedMesh(30, 30, 19)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := float64(m.NNZ()) / float64(m.Rows)
	if avg < 4 || avg > 7 {
		t.Fatalf("triangulated mesh average degree %.2f outside [4,7]", avg)
	}
}

func TestStencil2DStructure(t *testing.T) {
	m := Stencil2D(10, 10, 23)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Pentadiagonal: bandwidth equals the grid column count.
	if bw := m.Bandwidth(); bw != 10 {
		t.Fatalf("stencil2d bandwidth = %d, want 10", bw)
	}
	// Symmetric.
	if !matrix.Equal(m, m.Transpose(), 1e-12) {
		t.Fatal("stencil2d not symmetric")
	}
	// Diagonally dominant (SPD-friendly).
	for i := 0; i < m.Rows; i++ {
		diag, off := 0.0, 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.Col[k] == i {
				diag = m.Val[k]
			} else {
				off += math.Abs(m.Val[k])
			}
		}
		if diag < off {
			t.Fatalf("row %d not diagonally dominant", i)
		}
	}
}

func TestStencil3DStructure(t *testing.T) {
	m := Stencil3D(5, 5, 5, 29)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Rows != 125 {
		t.Fatalf("stencil3d rows = %d, want 125", m.Rows)
	}
	if bw := m.Bandwidth(); bw != 25 {
		t.Fatalf("stencil3d bandwidth = %d, want 25 (nx*ny)", bw)
	}
	if !matrix.Equal(m, m.Transpose(), 1e-12) {
		t.Fatal("stencil3d not symmetric")
	}
}

func TestCircuitStructure(t *testing.T) {
	m := Circuit(1000, 31)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Full diagonal.
	for i := 0; i < m.Rows; i++ {
		if m.At(i, i) == 0 {
			t.Fatalf("circuit missing diagonal at %d", i)
		}
	}
	// Sparse overall but with at least one high-degree global net.
	if d := m.Density(); d > 0.02 {
		t.Fatalf("circuit density %.4f too high", d)
	}
	maxDeg := 0
	for i := 0; i < m.Rows; i++ {
		if d := m.RowNNZ(i); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 8 {
		t.Fatalf("circuit max degree %d; expected a global net", maxDeg)
	}
}

func TestPrunedWeightsDensity(t *testing.T) {
	m := PrunedWeights(100, 100, 0.3, 37)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := m.Density(); math.Abs(d-0.3) > 0.08 {
		t.Fatalf("pruned weights density %.3f, want ~0.3", d)
	}
}

func TestBandWidthExceedingMatrix(t *testing.T) {
	// Width far beyond 2n degenerates to a fully dense matrix without
	// panicking.
	m := Band(8, 64, 1)
	if m.NNZ() != 64 {
		t.Fatalf("oversized band nnz = %d, want 64 (dense)", m.NNZ())
	}
}

func TestBandInvalidWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("width 0 accepted")
		}
	}()
	Band(8, 0, 1)
}

func TestRMATInvalidProbabilitiesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a+b+c >= 1 accepted")
		}
	}()
	rmat(4, 2, 0.5, 0.3, 0.3, 1)
}

func TestGeneratorsDeterministicProperty(t *testing.T) {
	check := func(seed uint64) bool {
		a := Circuit(200, seed)
		b := Circuit(200, seed)
		return matrix.Equal(a, b, 0)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
