// Package gen produces the synthetic sparse workloads of §3: uniformly
// random matrices across the density range 1e-4 … 0.5, structured band and
// diagonal matrices, and structure-preserving surrogates for the
// SuiteSparse kinds in Table 1 (graphs via R-MAT and preferential
// attachment, PDE discretizations via 2-D/3-D stencils, road networks via
// perturbed meshes, circuit matrices via diagonal-plus-coupling patterns).
//
// All generators are deterministic in their seed.
package gen

import (
	"fmt"

	"copernicus/internal/matrix"
	"copernicus/internal/xrand"
)

// Random returns an n×n matrix where every entry is non-zero independently
// with probability density. It runs in O(nnz) using geometric skips, so
// extremely sparse large matrices are cheap. Denser instances (0.1–0.5)
// model pruned neural-network weights; sparser ones (1e-4–0.01) model
// unstructured scientific and graph matrices (§3.2).
func Random(n int, density float64, seed uint64) *matrix.CSR {
	if density < 0 || density > 1 {
		panic(fmt.Sprintf("gen: Random density %v out of [0,1]", density))
	}
	b := matrix.NewBuilder(n, n)
	if density == 0 || n == 0 {
		return b.Build()
	}
	r := xrand.NewStream(seed, 0x5261)
	total := uint64(n) * uint64(n)
	// Walk the flattened index space, skipping geometric gaps between
	// successive non-zeros.
	pos := uint64(r.Geometric(density))
	for pos < total {
		i, j := int(pos/uint64(n)), int(pos%uint64(n))
		b.Add(i, j, r.ValueIn(-1, 1))
		pos += 1 + uint64(r.Geometric(density))
	}
	return b.Build()
}

// Band returns an n×n band matrix of width k following the paper's
// definition: a[i][j] = 0 if |i-j| > k/2. Width 1 yields a pure diagonal
// matrix. Every admissible position inside the band is filled, giving the
// fully dense band that numerical PDE discretizations produce.
func Band(n, width int, seed uint64) *matrix.CSR {
	if width < 1 {
		panic(fmt.Sprintf("gen: Band width %d < 1", width))
	}
	half := width / 2
	r := xrand.NewStream(seed, 0xBA4D)
	b := matrix.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		lo := max(0, i-half)
		hi := min(n-1, i+half)
		for j := lo; j <= hi; j++ {
			b.Add(i, j, r.ValueIn(-1, 1))
		}
	}
	return b.Build()
}

// Diagonal returns an n×n diagonal matrix (Band with width 1).
func Diagonal(n int, seed uint64) *matrix.CSR { return Band(n, 1, seed) }
