package kernels

import (
	"math"
	"slices"
	"testing"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/hlsim"
	"copernicus/internal/matrix"
	"copernicus/internal/scenario"
	"copernicus/internal/workloads"
	"copernicus/internal/xrand"
)

func residual(m *matrix.CSR, x, b []float64) float64 {
	ax := m.MulVec(x)
	s := 0.0
	for i := range ax {
		d := ax[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func rhs(n int, seed uint64) []float64 {
	r := xrand.New(seed)
	b := make([]float64, n)
	for i := range b {
		b[i] = r.ValueIn(-1, 1)
	}
	return b
}

func TestCGSolvesStencil(t *testing.T) {
	m := gen.Stencil2D(12, 12, 1)
	b := rhs(m.Rows, 2)
	x, st, err := CG(Software(m), b, 1e-10, 2*m.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("CG did not converge: %+v", st)
	}
	if r := residual(m, x, b); r > 1e-8 {
		t.Fatalf("residual %v", r)
	}
}

func TestCGThroughAccelerator(t *testing.T) {
	m := gen.Stencil2D(8, 8, 3)
	b := rhs(m.Rows, 4)
	for _, k := range []formats.Kind{formats.DIA, formats.ELL, formats.COO} {
		mul, cycles, err := Accelerator(hlsim.Default(), m, k, 16)
		if err != nil {
			t.Fatal(err)
		}
		if cycles == 0 {
			t.Fatal("zero cycle cost")
		}
		x, st, err := CG(mul, b, 1e-10, 2*m.Rows)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged {
			t.Fatalf("%v: CG did not converge", k)
		}
		if r := residual(m, x, b); r > 1e-8 {
			t.Fatalf("%v: residual %v", k, r)
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	m := gen.Stencil2D(5, 5, 5)
	x, st, err := CG(Software(m), make([]float64, m.Rows), 1e-12, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Iterations != 0 {
		t.Fatalf("zero rhs should converge immediately: %+v", st)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("nonzero solution for zero rhs")
		}
	}
}

func TestJacobiConverges(t *testing.T) {
	m := gen.Stencil2D(10, 10, 7)
	b := rhs(m.Rows, 8)
	diag := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		diag[i] = m.At(i, i)
	}
	x, st, err := Jacobi(Software(m), diag, b, 1e-9, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("Jacobi did not converge in %d iterations (residual %v)", st.Iterations, st.Residual)
	}
	if r := residual(m, x, b); r > 1e-7 {
		t.Fatalf("residual %v", r)
	}
}

func TestJacobiRejectsZeroDiagonal(t *testing.T) {
	if _, _, err := Jacobi(Software(gen.Stencil2D(4, 4, 1)), make([]float64, 16), make([]float64, 16), 1e-6, 10); err == nil {
		t.Fatal("zero diagonal accepted")
	}
}

func TestSymGaussSeidelReducesResidual(t *testing.T) {
	m := gen.Stencil2D(10, 10, 9)
	b := rhs(m.Rows, 10)
	x1, st1, err := SymGaussSeidel(m, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	x20, st20, err := SymGaussSeidel(m, b, 20)
	if err != nil {
		t.Fatal(err)
	}
	if st20.Residual >= st1.Residual {
		t.Fatalf("more sweeps did not help: %v vs %v", st20.Residual, st1.Residual)
	}
	_ = x1
	if r := residual(m, x20, b); math.Abs(r-st20.Residual) > 1e-9 {
		t.Fatal("reported residual inconsistent")
	}
}

func TestPageRankProperties(t *testing.T) {
	adj := gen.PreferentialAttachment(200, 4, 11)
	op := PageRankOperator(adj)
	ranks, st, err := PageRank(Software(op), adj.Rows, 0.85, 1e-10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("PageRank did not converge")
	}
	sum := 0.0
	for _, r := range ranks {
		if r <= 0 {
			t.Fatal("non-positive rank")
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %v, want 1", sum)
	}
}

func TestPageRankAcceleratorMatchesSoftware(t *testing.T) {
	adj := gen.PreferentialAttachment(128, 3, 13)
	op := PageRankOperator(adj)
	soft, _, err := PageRank(Software(op), adj.Rows, 0.85, 1e-12, 300)
	if err != nil {
		t.Fatal(err)
	}
	mul, _, err := Accelerator(hlsim.Default(), op, formats.COO, 16)
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := PageRank(mul, adj.Rows, 0.85, 1e-12, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := range soft {
		if math.Abs(soft[i]-hard[i]) > 1e-9 {
			t.Fatalf("rank[%d] differs: %v vs %v", i, soft[i], hard[i])
		}
	}
}

func TestPageRankRejectsBadInput(t *testing.T) {
	if _, _, err := PageRank(Software(gen.Random(4, 0.5, 1)), 0, 0.85, 1e-6, 10); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, _, err := PageRank(Software(gen.Random(4, 0.5, 1)), 4, 1.0, 1e-6, 10); err == nil {
		t.Fatal("damping 1.0 accepted")
	}
}

// referenceBFS is a plain queue BFS for cross-checking.
func referenceBFS(adj *matrix.CSR, source int) []int {
	level := make([]int, adj.Rows)
	for i := range level {
		level[i] = -1
	}
	level[source] = 0
	queue := []int{source}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for k := adj.RowPtr[v]; k < adj.RowPtr[v+1]; k++ {
			if w := adj.Col[k]; level[w] == -1 {
				level[w] = level[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return level
}

func TestBFSMatchesReference(t *testing.T) {
	adj := gen.RoadMesh(12, 12, 0.1, 15)
	// Frontier expansion needs Aᵀ·frontier; road meshes are symmetric so
	// A itself serves.
	levels, err := BFSLevels(adj, 0, Software(adj.Transpose()))
	if err != nil {
		t.Fatal(err)
	}
	want := referenceBFS(adj, 0)
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("level[%d] = %d, want %d", i, levels[i], want[i])
		}
	}
}

func TestBFSThroughAccelerator(t *testing.T) {
	adj := gen.RoadMesh(8, 8, 0, 17)
	tr := adj.Transpose()
	mul, _, err := Accelerator(hlsim.Default(), tr, formats.CSR, 8)
	if err != nil {
		t.Fatal(err)
	}
	levels, err := BFSLevels(adj, 3, mul)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceBFS(adj, 3)
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("level[%d] = %d, want %d", i, levels[i], want[i])
		}
	}
}

// TestBFSRejectsNegativeWeights: with edges 0→1, 0→2, 1→3 of weight 1
// and 2→3 of weight −1, vertex 3's two frontier products cancel, so the
// frontier test could not see it reached. Such adjacency is rejected.
func TestBFSRejectsNegativeWeights(t *testing.T) {
	b := matrix.NewBuilder(4, 4)
	b.Add(0, 1, 1)
	b.Add(0, 2, 1)
	b.Add(1, 3, 1)
	b.Add(2, 3, -1)
	adj := b.Build()
	if levels, err := BFSLevels(adj, 0, Software(adj.Transpose())); err == nil {
		t.Fatalf("negative edge weight accepted, levels %v", levels)
	}
}

// TestBFSLevelCountMatchesScenario pins the two BFS level counts to each
// other: on the all-ones pattern of every SuiteSparse surrogate, the cost
// model's scenario.BFSLevels is one more than the deepest level the SpMV
// traversal from vertex 0 reaches.
func TestBFSLevelCountMatchesScenario(t *testing.T) {
	for _, w := range workloads.SuiteSparse(workloads.Config{Scale: 256}) {
		m := *w.M
		m.Val = make([]float64, len(w.M.Val))
		for i := range m.Val {
			m.Val[i] = 1
		}
		levels, err := BFSLevels(&m, 0, Software(m.Transpose()))
		if err != nil {
			t.Fatalf("%s: %v", w.ID, err)
		}
		if got, want := scenario.BFSLevels(&m), 1+slices.Max(levels); got != want {
			t.Errorf("%s: scenario.BFSLevels = %d, 1 + deepest SpMV level = %d", w.ID, got, want)
		}
	}
}

func TestBFSRejectsBadSource(t *testing.T) {
	adj := gen.RoadMesh(4, 4, 0, 1)
	if _, err := BFSLevels(adj, -1, Software(adj)); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := BFSLevels(adj, 99, Software(adj)); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestSoftwareBackendDimensionCheck(t *testing.T) {
	mul := Software(gen.Random(8, 0.5, 1))
	if _, err := mul(make([]float64, 5)); err == nil {
		t.Fatal("short vector accepted")
	}
}

func TestDot(t *testing.T) {
	if d := dot([]float64{1, 2, 3}, []float64{4, 5, 6}); d != 32 {
		t.Fatalf("dot = %v", d)
	}
}

// TestAcceleratorWarmIterationsZeroAllocs: after the probe, every backend
// call must run allocation-free — the plan's RunIntoContext path reuses the
// backend's double-buffered Results, so solver loops generate no GC
// traffic.
func TestAcceleratorWarmIterationsZeroAllocs(t *testing.T) {
	m := gen.Stencil2D(8, 8, 3)
	mul, _, err := Accelerator(hlsim.Default(), m, formats.CSR, 16)
	if err != nil {
		t.Fatal(err)
	}
	x := rhs(m.Rows, 4)
	if _, err := mul(x); err != nil {
		t.Fatal(err) // fill both buffers
	}
	if _, err := mul(x); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := mul(x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm accelerator iteration allocates %v allocs/op, want 0", allocs)
	}
}

// TestAcceleratorDoubleBuffering: a returned vector must stay intact
// across the next call (kernels like PageRank keep the previous iterate
// while computing the next one from it).
func TestAcceleratorDoubleBuffering(t *testing.T) {
	m := gen.Stencil2D(8, 8, 3)
	mul, _, err := Accelerator(hlsim.Default(), m, formats.CSR, 16)
	if err != nil {
		t.Fatal(err)
	}
	x := rhs(m.Rows, 4)
	y1, err := mul(x)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), y1...)
	y2, err := mul(y1) // consumes y1 while writing the other buffer
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if y1[i] != want[i] {
			t.Fatalf("previous result clobbered at %d during next call", i)
		}
	}
	wantY2 := m.MulVec(want)
	for i := range wantY2 {
		if diff := y2[i] - wantY2[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("aliased-input result wrong at %d: %v vs %v", i, y2[i], wantY2[i])
		}
	}
}
