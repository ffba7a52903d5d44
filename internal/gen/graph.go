package gen

import (
	"fmt"

	"copernicus/internal/matrix"
	"copernicus/internal/xrand"
)

// rmat generates the adjacency matrix of a 2^scale-vertex graph with
// approximately edgeFactor·2^scale edges using the recursive-matrix
// (R-MAT / Kronecker) model of Chakrabarti et al., the generator behind the
// Graph500 kron_g500 matrices in Table 1. The probabilities (a, b, c, d)
// control skew; Graph500 uses (0.57, 0.19, 0.19, 0.05).
//
// The result is a directed adjacency matrix with unit-magnitude random
// weights; duplicate edges collapse (their weights sum), mirroring the
// "multigraph folded into a matrix" character of kron_g500.
func rmat(scale, edgeFactor int, a, b, c float64, seed uint64) *matrix.CSR {
	if a+b+c >= 1 {
		panic(fmt.Sprintf("gen: RMAT probabilities a+b+c = %v >= 1", a+b+c))
	}
	n := 1 << scale
	r := xrand.NewStream(seed, 0x4A17)
	bld := matrix.NewBuilder(n, n)
	edges := edgeFactor * n
	for e := 0; e < edges; e++ {
		row, col := 0, 0
		for bit := scale - 1; bit >= 0; bit-- {
			u := r.Float64()
			switch {
			case u < a: // top-left
			case u < a+b: // top-right
				col |= 1 << bit
			case u < a+b+c: // bottom-left
				row |= 1 << bit
			default: // bottom-right
				row |= 1 << bit
				col |= 1 << bit
			}
		}
		bld.Add(row, col, r.ValueIn(0.1, 1))
	}
	return bld.Build()
}

// Graph500RMAT generates an R-MAT graph with the Graph500 reference
// parameters.
func Graph500RMAT(scale, edgeFactor int, seed uint64) *matrix.CSR {
	return rmat(scale, edgeFactor, 0.57, 0.19, 0.19, seed)
}

// PreferentialAttachment generates a directed scale-free graph of n
// vertices in which each new vertex links to outDegree earlier vertices
// chosen proportionally to their current in-degree (Barabási–Albert with
// directed edges). Web crawls, social networks, and co-purchase graphs
// (web-Google, soc-LiveJournal1, amazon0601, flickr, wiki-Talk, wikipedia
// in Table 1) all exhibit this structure: a heavy-tailed in-degree
// distribution with a few extremely dense columns.
func PreferentialAttachment(n, outDegree int, seed uint64) *matrix.CSR {
	if outDegree < 1 {
		panic(fmt.Sprintf("gen: PreferentialAttachment outDegree %d < 1", outDegree))
	}
	r := xrand.NewStream(seed, 0x9A9A)
	bld := matrix.NewBuilder(n, n)
	// targets holds one entry per edge endpoint, so sampling a uniform
	// element implements degree-proportional selection.
	targets := make([]int, 0, n*outDegree)
	for v := 0; v < n; v++ {
		deg := min(outDegree, max(1, v)) // early vertices have few candidates
		for e := 0; e < deg; e++ {
			var t int
			if len(targets) == 0 || r.Float64() < 0.2 {
				// Uniform escape hatch keeps the graph connected-ish and
				// avoids a degenerate star.
				t = r.Intn(max(1, v+1))
			} else {
				t = targets[r.Intn(len(targets))]
			}
			if t == v {
				t = (t + 1) % n
			}
			bld.Add(v, t, r.ValueIn(0.1, 1))
			targets = append(targets, t, v)
		}
	}
	return bld.Build()
}

// RoadMesh generates a road-network-like graph: vertices form a 2-D grid
// (rows·cols vertices) connected to lattice neighbours, with a fraction of
// edges deleted and a few long-range shortcuts added. Road networks
// (roadNet-TX, road_central, europe_osm) are nearly planar with degree ≈
// 2–3 and strong index locality, which this reproduces after row-major
// vertex numbering.
func RoadMesh(rows, cols int, dropFrac float64, seed uint64) *matrix.CSR {
	r := xrand.NewStream(seed, 0x60AD)
	n := rows * cols
	bld := matrix.NewBuilder(n, n)
	id := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := id(i, j)
			if j+1 < cols && r.Float64() >= dropFrac {
				bld.AddSym(v, id(i, j+1), 1)
			}
			if i+1 < rows && r.Float64() >= dropFrac {
				bld.AddSym(v, id(i+1, j), 1)
			}
		}
	}
	// Sparse long-range shortcuts (bridges, highways).
	for s := 0; s < n/200+1; s++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			bld.AddSym(u, v, 1)
		}
	}
	return bld.Build()
}

// TriangulatedMesh generates an adjacency matrix resembling a 2-D
// triangulation (the hugebubbles family): a grid where each cell also gets
// one diagonal, yielding average degree ≈ 6 with planar locality.
func TriangulatedMesh(rows, cols int, seed uint64) *matrix.CSR {
	r := xrand.NewStream(seed, 0x7419)
	n := rows * cols
	bld := matrix.NewBuilder(n, n)
	id := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := id(i, j)
			if j+1 < cols {
				bld.AddSym(v, id(i, j+1), 1)
			}
			if i+1 < rows {
				bld.AddSym(v, id(i+1, j), 1)
			}
			if i+1 < rows && j+1 < cols {
				// Alternate diagonal orientation pseudo-randomly, as a real
				// triangulator would.
				if r.Float64() < 0.5 {
					bld.AddSym(v, id(i+1, j+1), 1)
				} else {
					bld.AddSym(id(i, j+1), id(i+1, j), 1)
				}
			}
		}
	}
	return bld.Build()
}

// BipartiteRandom generates a sparse rectangular-interaction pattern folded
// into a square matrix: rows 0..nA-1 interact with columns nA..n-1 with the
// given average degree, plus a weak diagonal. It models biochemical
// reaction networks (N_reactome) and linear-programming constraint
// matrices (rail582).
func BipartiteRandom(n, nA, avgDegree int, seed uint64) *matrix.CSR {
	if nA <= 0 || nA >= n {
		panic(fmt.Sprintf("gen: BipartiteRandom nA=%d out of (0,%d)", nA, n))
	}
	r := xrand.NewStream(seed, 0xB1BA)
	bld := matrix.NewBuilder(n, n)
	nB := n - nA
	for i := 0; i < nA; i++ {
		deg := 1 + r.Intn(2*avgDegree)
		for e := 0; e < deg; e++ {
			bld.Add(i, nA+r.Intn(nB), r.ValueIn(0.1, 1))
		}
	}
	for i := 0; i < n; i++ {
		if r.Float64() < 0.5 {
			bld.Add(i, i, r.ValueIn(0.5, 1))
		}
	}
	return bld.Build()
}
