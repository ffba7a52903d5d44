package kernels

import (
	"fmt"
	"math"

	"copernicus/internal/matrix"
)

// PageRankOperator builds the PageRank transition matrix from a directed
// adjacency matrix: Aᵀ with each column scaled by its out-degree, and a
// self-loop for dangling vertices so probability mass is conserved.
// §3.3's vertex-centric formulation reduces each iteration to one SpMV
// with this operator.
func PageRankOperator(adj *matrix.CSR) *matrix.CSR {
	b := matrix.NewBuilder(adj.Rows, adj.Cols)
	for i := 0; i < adj.Rows; i++ {
		deg := adj.RowNNZ(i)
		if deg == 0 {
			b.Add(i, i, 1)
			continue
		}
		for k := adj.RowPtr[i]; k < adj.RowPtr[i+1]; k++ {
			b.Add(adj.Col[k], i, 1.0/float64(deg))
		}
	}
	return b.Build()
}

// PageRank iterates x' = damping·M·x + (1−damping)/n with the given SpMV
// backend over the PageRank operator until the L1 delta drops below tol.
func PageRank(mul SpMV, n int, damping, tol float64, maxIter int) ([]float64, Stats, error) {
	if n <= 0 {
		return nil, Stats{}, fmt.Errorf("kernels: PageRank over %d vertices", n)
	}
	if damping < 0 || damping >= 1 {
		return nil, Stats{}, fmt.Errorf("kernels: damping %v out of [0,1)", damping)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 1.0 / float64(n)
	}
	var st Stats
	for st.Iterations = 0; st.Iterations < maxIter; st.Iterations++ {
		y, err := mul(x)
		if err != nil {
			return nil, st, err
		}
		delta := 0.0
		for i := range y {
			y[i] = damping*y[i] + (1-damping)/float64(n)
			delta += math.Abs(y[i] - x[i])
		}
		x = y
		st.Residual = delta
		if delta < tol {
			st.Converged = true
			st.Iterations++
			break
		}
	}
	// x may alias a buffer the backend reuses (Accelerator double-buffers
	// its outputs); return a uniquely owned copy so later backend calls
	// cannot clobber the caller's ranks.
	return append([]float64(nil), x...), st, nil
}

// BFSLevels computes breadth-first levels from source over the directed
// adjacency matrix using repeated frontier SpMVs — the §3.3 vertex-
// centric formulation where one traversal step is a sparse operator
// applied to the frontier vector. Unreachable vertices get level -1.
//
// A vertex counts as reached when its frontier product is non-zero, so
// the edge weights must not be negative: a positive and a negative
// product could cancel and hide a reached vertex. The mulT backend is
// opaque here, so such adjacency is rejected up front.
func BFSLevels(adj *matrix.CSR, source int, mulT SpMV) ([]int, error) {
	if source < 0 || source >= adj.Rows {
		return nil, fmt.Errorf("kernels: BFS source %d out of range", source)
	}
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("kernels: BFS needs a square adjacency matrix")
	}
	for _, v := range adj.Val {
		if v < 0 {
			return nil, fmt.Errorf("kernels: BFS adjacency has a negative edge weight %g", v)
		}
	}
	n := adj.Rows
	level := make([]int, n)
	for i := range level {
		level[i] = -1
	}
	level[source] = 0
	frontier := make([]float64, n)
	frontier[source] = 1
	for depth := 1; depth <= n; depth++ {
		// next = Aᵀ·frontier: vertex j is reached if any frontier vertex
		// has an edge to it.
		next, err := mulT(frontier)
		if err != nil {
			return nil, err
		}
		clear(frontier)
		advanced := false
		for j := 0; j < n; j++ {
			if next[j] != 0 && level[j] == -1 {
				level[j] = depth
				frontier[j] = 1
				advanced = true
			}
		}
		if !advanced {
			break
		}
	}
	return level, nil
}
