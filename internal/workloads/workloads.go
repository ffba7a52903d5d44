// Package workloads provides the Copernicus evaluation suites of §3:
// laptop-scale surrogates for the twenty SuiteSparse matrices of Table 1,
// the random-density suite (1e-4 … 0.5), and the band-width suite (1 …
// 64).
//
// SuiteSparse substitution: the paper's originals reach 50.9 M rows and
// 182 M non-zeros, far beyond what a characterization run needs here,
// because every Copernicus metric is a function of per-partition
// statistics (Fig. 3). Each surrogate therefore reproduces its original's
// *kind* — the generator family that produced the real matrix's structure
// (Kronecker multigraph, preferential-attachment web crawl, FEM stencil,
// road mesh, circuit netlist, …) — and approximates its nnz/row, at a
// dimension scaled to Config.Scale. The paper-reported dimension and nnz
// are retained for documentation.
package workloads

import (
	"fmt"
	"math/bits"

	"copernicus/internal/gen"
	"copernicus/internal/matrix"
)

// Workload is one evaluation matrix with its provenance.
type Workload struct {
	ID   string // the two-letter key the paper's figures use
	Name string // the SuiteSparse (or synthetic) name
	Kind string // the Table 1 "Kind" column

	// PaperDim and PaperNNZ are the Table 1 figures in millions, kept
	// for the EXPERIMENTS.md paper-vs-measured record. Zero for
	// synthetic suites.
	PaperDim float64
	PaperNNZ float64

	// Param is the nominal sweep parameter for synthetic suites: the
	// target density (random suite) or band width (band suite). Zero
	// for SuiteSparse surrogates.
	Param float64

	M *matrix.CSR
}

// Density returns the surrogate's density.
func (w Workload) Density() float64 { return w.M.Density() }

// Config scales the suites.
type Config struct {
	// Scale caps the surrogate dimension (graph generators use the
	// nearest power of two). The default 1024 keeps a full
	// characterization sweep under a minute.
	Scale int
	// RandomDim and BandDim size the synthetic suites (the paper uses
	// 8000; the default scales to 1024).
	RandomDim int
	BandDim   int
	Seed      uint64
}

// DefaultConfig returns the standard laptop-scale configuration.
func DefaultConfig() Config {
	return Config{Scale: 1024, RandomDim: 1024, BandDim: 1024, Seed: 0xC0FE}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Scale <= 0 {
		c.Scale = d.Scale
	}
	if c.RandomDim <= 0 {
		c.RandomDim = d.RandomDim
	}
	if c.BandDim <= 0 {
		c.BandDim = d.BandDim
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// log2floor returns the largest s with 2^s <= n, for n >= 1.
func log2floor(n int) int { return bits.Len(uint(n)) - 1 }

// SuiteSparse returns surrogates for the twenty Table 1 matrices, in the
// table's order.
func SuiteSparse(c Config) []Workload {
	c = c.withDefaults()
	n := c.Scale
	scale := log2floor(n) // for the R-MAT generator
	grid := isqrt(n)      // for mesh generators
	s := c.Seed
	return []Workload{
		{"2C", "2cubes_sphere", "Electromagnetics Problem", 0.101, 1.647,
			0, gen.Stencil3D(icbrt(n), icbrt(n), icbrt(n), s+1)},
		{"FR", "Freescale2", "Circuit Sim. Matrix", 2.9, 14.3,
			0, gen.Circuit(n, s+2)},
		{"RE", "N_reactome", "Biochemical Network", 0.016, 0.043,
			0, gen.BipartiteRandom(n/2, n/4, 3, s+3)},
		{"AM", "amazon0601", "Directed Graph", 0.4, 3.3,
			0, gen.PreferentialAttachment(n, 8, s+4)},
		{"DW", "dwt_918", "Structural Problem", 0.000918, 0.0073,
			0, gen.Stencil2D(30, 30, s+5)}, // the original is genuinely 918 rows
		{"EO", "europe_osm", "Undirected Graph", 50.9, 108,
			0, gen.RoadMesh(grid, grid, 0.15, s+6)},
		{"FL", "flickr", "Directed Graph", 0.82, 9.8,
			0, gen.PreferentialAttachment(n, 12, s+7)},
		{"HC", "hcircuit", "Circuit Sim. Problem", 0.1, 0.51,
			0, gen.Circuit(n, s+8)},
		{"HU", "hugebubbles", "Undirected Graph", 18.3, 54.9,
			0, gen.TriangulatedMesh(grid, grid, s+9)},
		{"KR", "kron_g500-logn21", "Undirected Multigraph", 2, 182,
			0, gen.Graph500RMAT(scale, 32, s+10)},
		{"RL", "rail582", "Linear Prog. Problem", 0.056, 0.4,
			0, gen.BipartiteRandom(582, 291, 7, s+11)},
		{"RJ", "rajat31", "Circuit Sim. Problem", 4.6, 20.3,
			0, gen.Circuit(n, s+12)},
		{"RO", "roadNet-TX", "Undirected Graph", 1.3, 3.8,
			0, gen.RoadMesh(grid, grid, 0.05, s+13)},
		{"RC", "road_central", "Undirected Graph", 14, 33.8,
			0, gen.RoadMesh(grid+4, grid-4, 0.2, s+14)},
		{"LJ", "soc-LiveJournal1", "Directed Graph", 4.8, 68.9,
			0, gen.PreferentialAttachment(n, 14, s+15)},
		{"TH", "thermomech_dK", "Thermal Problem", 0.2, 2.8,
			0, gen.Stencil2D(grid, grid, s+16)},
		{"WE", "wb-edu", "Directed Graph", 9.8, 57.1,
			0, gen.PreferentialAttachment(n, 6, s+17)},
		{"WG", "web-Google", "Directed Graph", 0.91, 5.1,
			0, gen.PreferentialAttachment(n, 6, s+18)},
		{"WT", "wiki-Talk", "Directed Graph", 2.3, 5,
			0, gen.PreferentialAttachment(n, 2, s+19)},
		{"WI", "wikipedia", "Directed Graph", 3.5, 45,
			0, gen.PreferentialAttachment(n, 13, s+20)},
	}
}

// RandomDensities is the density sweep of Figs. 5 and 10.
var RandomDensities = []float64{0.0001, 0.001, 0.01, 0.1, 0.5}

// RandomSuite returns the random synthetic matrices across the density
// range of §3.2.
func RandomSuite(c Config) []Workload {
	c = c.withDefaults()
	var ws []Workload
	for i, d := range RandomDensities {
		ws = append(ws, Workload{
			ID:    fmt.Sprintf("R%g", d),
			Name:  fmt.Sprintf("random d=%g", d),
			Kind:  "Random Synthetic",
			Param: d,
			M:     gen.Random(c.RandomDim, d, c.Seed+uint64(100+i)),
		})
	}
	return ws
}

// BandWidths is the band-width sweep of Figs. 6 and 11.
var BandWidths = []int{1, 2, 4, 8, 16, 32, 64}

// BandSuite returns the structured band matrices of §3.2 (width 1 is the
// diagonal matrix).
func BandSuite(c Config) []Workload {
	c = c.withDefaults()
	var ws []Workload
	for i, w := range BandWidths {
		ws = append(ws, Workload{
			ID:    fmt.Sprintf("B%d", w),
			Name:  fmt.Sprintf("band w=%d", w),
			Kind:  "Band Synthetic",
			Param: float64(w),
			M:     gen.Band(c.BandDim, w, c.Seed+uint64(200+i)),
		})
	}
	return ws
}

// PartitionSizes is the hyperparameter sweep of §4.2.
var PartitionSizes = []int{8, 16, 32}

func isqrt(n int) int {
	r := 1
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

func icbrt(n int) int {
	r := 1
	for (r+1)*(r+1)*(r+1) <= n {
		r++
	}
	return r
}
