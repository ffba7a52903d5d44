package formats

import (
	"fmt"
	"math"
	"testing"

	"copernicus/internal/matrix"
	"copernicus/internal/xrand"
)

// refSpMV is the reference accumulation every kernel is checked against:
// per-row ascending-column partial sums over the stored non-zeros, the
// order Plan.spmv and matrix.CSR.MulVec use.
func refSpMV(t *matrix.Tile, x, y []float64) {
	for i := 0; i < t.P; i++ {
		cols, vals := t.RowView(i)
		if len(cols) == 0 {
			continue
		}
		s := 0.0
		for k, j := range cols {
			s += vals[k] * x[j]
		}
		y[i] += s
	}
}

// rowOrdered lists the kernels whose single-tile output is bit-identical
// to refSpMV (products per output row added in ascending-column order);
// the rest agree within FP-reassociation tolerance.
var rowOrdered = map[Kind]bool{
	Dense: true, CSR: true, BCSR: true, ELL: true, SELL: true,
	SELLCS: true, COO: true, JDS: true, ELLCOO: true,
}

// adversarialTiles builds the shapes each kernel's layout handles
// specially: empty tiles, empty rows, fully dense rows, a single hot
// column, a pure diagonal, one long row over short ones (the ELL+COO
// spill), and the random shapes used by the PR 3 encoder ablations.
func adversarialTiles(p int) map[string]*matrix.Tile {
	tiles := map[string]*matrix.Tile{
		"empty":  matrix.NewTile(p, 0, 0),
		"dense":  randomTile(11, p, 1.0),
		"sparse": randomTile(12, p, 0.08),
		"mid":    randomTile(13, p, 0.4),
	}
	oneRow := matrix.NewTile(p, 0, 0)
	for j := 0; j < p; j++ {
		oneRow.Set(3, j, float64(j+1))
	}
	tiles["single_dense_row"] = oneRow

	oneCol := matrix.NewTile(p, 0, 0)
	for i := 0; i < p; i++ {
		oneCol.Set(i, 5, float64(i)-3.5)
	}
	tiles["single_column"] = oneCol

	diag := matrix.NewTile(p, 0, 0)
	for i := 0; i < p; i++ {
		diag.Set(i, i, 2.0+float64(i))
	}
	tiles["diagonal"] = diag

	// One long row forces an ELL+COO spill and a deep JDS diagonal set;
	// the alternating empty rows exercise row skipping.
	jag := matrix.NewTile(p, 0, 0)
	for j := 0; j < p; j++ {
		jag.Set(0, j, 1.0/float64(j+1))
	}
	for i := 2; i < p; i += 2 {
		jag.Set(i, (i*3)%p, float64(i))
	}
	tiles["jagged"] = jag

	corner := matrix.NewTile(p, 0, 0)
	corner.Set(p-1, p-1, 7.5)
	corner.Set(0, 0, -2.25)
	tiles["corners"] = corner
	return tiles
}

func testOperand(n int, seed uint64) []float64 {
	r := xrand.New(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.ValueIn(-2, 2)
	}
	return x
}

// TestKernelsMatchReference checks every format's kernel against the
// reference accumulation on random and adversarial tiles: bit-identical
// for the row-ordered kernels, within reassociation tolerance otherwise.
func TestKernelsMatchReference(t *testing.T) {
	const p = 16
	x := testOperand(p, 99)
	for name, tile := range adversarialTiles(p) {
		for _, k := range All() {
			t.Run(fmt.Sprintf("%s/%v", name, k), func(t *testing.T) {
				want := make([]float64, p)
				refSpMV(tile, x, want)
				got := make([]float64, p)
				Encode(k, tile).SpMV(x, got)
				for i := range want {
					if rowOrdered[k] {
						if got[i] != want[i] {
							t.Fatalf("row %d: %v != reference %v (exact-mode kernel)", i, got[i], want[i])
						}
					} else if math.Abs(got[i]-want[i]) > 1e-12*math.Max(1, math.Abs(want[i])) {
						t.Fatalf("row %d: %v vs reference %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestKernelsAccumulate proves the y += contract: running a kernel twice
// doubles the reference contribution on top of existing content.
func TestKernelsAccumulate(t *testing.T) {
	const p = 16
	tile := randomTile(21, p, 0.3)
	x := testOperand(p, 22)
	ref := make([]float64, p)
	refSpMV(tile, x, ref)
	for _, k := range All() {
		y := make([]float64, p)
		for i := range y {
			y[i] = float64(i)
		}
		enc := Encode(k, tile)
		enc.SpMV(x, y)
		enc.SpMV(x, y)
		for i := range y {
			want := float64(i) + 2*ref[i]
			if math.Abs(y[i]-want) > 1e-11*math.Max(1, math.Abs(want)) {
				t.Fatalf("%v row %d: %v, want %v", k, i, y[i], want)
			}
		}
	}
}

// TestKernelsBoundaryClamp feeds every kernel tile-local slices shorter
// than p — the boundary-tile case, where the clipped region is all
// structural zeros — and checks no out-of-range access occurs and the
// in-range output matches the reference.
func TestKernelsBoundaryClamp(t *testing.T) {
	const p, rows, cols = 16, 11, 9
	tile := matrix.NewTile(p, 0, 0)
	r := xrand.New(31)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < 0.5 {
				tile.Set(i, j, r.ValueIn(-4, 4))
			}
		}
	}
	x := testOperand(cols, 32)
	xFull := make([]float64, p)
	copy(xFull, x)
	want := make([]float64, p)
	refSpMV(tile, xFull, want)
	for _, k := range All() {
		y := make([]float64, rows)
		Encode(k, tile).SpMV(x, y) // len(x)=9 < p, len(y)=11 < p
		for i := range y {
			if math.Abs(y[i]-want[i]) > 1e-12*math.Max(1, math.Abs(want[i])) {
				t.Fatalf("%v row %d: %v vs reference %v", k, i, y[i], want[i])
			}
		}
	}
}

// TestKernelsAblationShapes runs the custom-parameter encoders (the PR 3
// ablation knobs) through their kernels: BCSR block edges, SELL slice
// heights, and ELL+COO width caps beyond the defaults.
func TestKernelsAblationShapes(t *testing.T) {
	const p = 16
	tile := randomTile(41, p, 0.25)
	x := testOperand(p, 42)
	want := make([]float64, p)
	refSpMV(tile, x, want)
	encs := map[string]Encoded{
		"bcsr_b2":     EncodeBCSRBlock(tile, 2),
		"bcsr_b8":     EncodeBCSRBlock(tile, 8),
		"sell_c2":     encodeSELL(tile, 2, nil),
		"sell_c8":     encodeSELL(tile, 8, nil),
		"ellcoo_cap1": EncodeELLCOOCap(tile, 1),
		"ellcoo_cap3": EncodeELLCOOCap(tile, 3),
	}
	for name, enc := range encs {
		y := make([]float64, p)
		enc.SpMV(x, y)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("%s row %d: %v != reference %v", name, i, y[i], want[i])
			}
		}
	}
}

// BenchmarkKernel times each format's SpMV over 256 distinct p=256
// tiles with about 130 non-zeros each — the tile shape of an 8192²
// matrix at density 0.002 — so a kernel regression shows here, below
// the plan's tile fan-out. One op runs every tile once, as a plan's
// exec walk does; repeating a single tile instead lets the branch
// predictor learn its row lengths and understates data-dependent
// kernels such as CSR's row loop. ns/tile is ns/op over the 256 tiles.
func BenchmarkKernel(b *testing.B) {
	const p, tiles = 256, 256
	x := testOperand(p, 257)
	y := make([]float64, p)
	src := make([]*matrix.Tile, tiles)
	for i := range src {
		src[i] = randomTile(uint64(256+i), p, 0.002)
	}
	for _, k := range All() {
		es := make([]Encoded, tiles)
		for i, t := range src {
			if k == Dense && i > 0 {
				// Dense stores all p² values (512 KB here) whatever the
				// tile holds and its kernel has no data-dependent branch,
				// so it cycles over one encoding.
				es[i] = es[0]
				continue
			}
			es[i] = Encode(k, t)
		}
		b.Run(k.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, e := range es {
					e.SpMV(x, y)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tiles), "ns/tile")
		})
	}
}
