package formats

import (
	"fmt"
	"math"
	"testing"

	"copernicus/internal/matrix"
	"copernicus/internal/xrand"
)

// Test-only references: the full-walk kernels the index-driven ones in
// spmv.go replaced, kept verbatim so the production kernels can be held
// bit-identical to them. ELL-family and BCSR walks visit every row of the
// padded layout, CSC and LIL every column, and DIA every slot of each
// stored diagonal's extent.

func refBCSRWalk(e *BCSREnc, x, y []float64) {
	b := e.b
	start := int32(0)
	for bi := 0; bi < len(e.offsets); bi++ {
		end := e.offsets[bi]
		if end > start {
			r0 := bi * b
			rmax := min(b, len(y)-r0)
			for r := 0; r < rmax; r++ {
				s := 0.0
				for blk := start; blk < end; blk++ {
					c0 := int(e.colIdx[blk])
					base := int(blk)*b*b + r*b
					for j := 0; j < min(b, len(x)-c0); j++ {
						s += e.vals[base+j] * x[c0+j]
					}
				}
				y[r0+r] += s
			}
		}
		start = end
	}
}

func refLILWalk(e *LILEnc, x, y []float64) {
	for j := 0; j < e.p; j++ {
		rows, vals := e.ColRows(j), e.ColVals(j)
		if len(rows) == 0 {
			continue
		}
		xv := x[j]
		for k, i := range rows {
			y[i] += vals[k] * xv
		}
	}
}

func refELLWalk(e *ELLEnc, x, y []float64) {
	w := e.w
	for i := 0; i < e.p; i++ {
		base := i * w
		s := 0.0
		k := 0
		for ; k < w; k++ {
			j := e.idx[base+k]
			if j == ellPad {
				break
			}
			s += e.vals[base+k] * x[j]
		}
		if k > 0 {
			y[i] += s
		}
	}
}

func refDIAWalk(e *DIAEnc, x, y []float64) {
	p := e.p
	for k, d32 := range e.diagNo {
		d := int(d32)
		lane := e.Lane(k)
		lo := max(0, -d)
		hi := min(min(p, p-d), min(len(y), len(x)-d))
		for i := lo; i < hi; i++ {
			y[i] += lane[i] * x[i+d]
		}
	}
}

func refCSCWalk(e *CSCEnc, x, y []float64) {
	start := int32(0)
	for j := 0; j < e.p; j++ {
		end := e.offsets[j]
		if end > start {
			xv := x[j]
			for k := start; k < end; k++ {
				y[e.rows[k]] += e.vals[k] * xv
			}
		}
		start = end
	}
}

func refSELLWalk(e *SELLEnc, x, y []float64) {
	base := 0
	for s, w32 := range e.widths {
		w := int(w32)
		for r := 0; r < e.c && w > 0; r++ {
			rb := base + r*w
			sum := 0.0
			k := 0
			for ; k < w; k++ {
				j := e.idx[rb+k]
				if j == ellPad {
					break
				}
				sum += e.vals[rb+k] * x[j]
			}
			if k > 0 {
				y[s*e.c+r] += sum
			}
		}
		base += e.c * w
	}
}

func refELLCOOWalk(e *ELLCOOEnc, x, y []float64) {
	w := e.w
	if w > 0 {
		for i := 0; i < e.p; i++ {
			base := i * w
			s := 0.0
			k := 0
			for ; k < w; k++ {
				j := e.idx[base+k]
				if j == ellPad {
					break
				}
				s += e.vals[base+k] * x[j]
			}
			if k > 0 {
				y[i] += s
			}
		}
	}
	for k := 0; k < len(e.sval)-1; k++ {
		y[e.srow[k]] += e.sval[k] * x[e.scol[k]]
	}
}

func refSELLCSWalk(e *SELLCSEnc, x, y []float64) {
	base := 0
	for s, w32 := range e.widths {
		w := int(w32)
		for r := 0; r < e.c && w > 0; r++ {
			rb := base + r*w
			sum := 0.0
			k := 0
			for ; k < w; k++ {
				j := e.idx[rb+k]
				if j == ellPad {
					break
				}
				sum += e.vals[rb+k] * x[j]
			}
			if k > 0 {
				y[e.perm[s*e.c+r]] += sum
			}
		}
		base += e.c * w
	}
}

// refWalk runs the full-walk reference of e's format, reporting false for
// formats whose production kernel is unchanged (no reference kept).
func refWalk(e Encoded, x, y []float64) bool {
	switch e := e.(type) {
	case *BCSREnc:
		refBCSRWalk(e, x, y)
	case *LILEnc:
		refLILWalk(e, x, y)
	case *ELLEnc:
		refELLWalk(e, x, y)
	case *DIAEnc:
		refDIAWalk(e, x, y)
	case *CSCEnc:
		refCSCWalk(e, x, y)
	case *SELLEnc:
		refSELLWalk(e, x, y)
	case *ELLCOOEnc:
		refELLCOOWalk(e, x, y)
	case *SELLCSEnc:
		refSELLCSWalk(e, x, y)
	default:
		return false
	}
	return true
}

// boundaryTile is a random p×p tile whose non-zeros all sit in its first
// rows×cols corner — a matrix-edge tile, run with x and y cut to that
// corner.
func boundaryTile(seed uint64, p, rows, cols int, density float64) *matrix.Tile {
	r := xrand.New(seed)
	t := matrix.NewTile(p, 0, 0)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < density {
				t.Set(i, j, r.ValueIn(-4, 4))
			}
		}
	}
	return t
}

// TestKernelsMatchFullWalk: every index-driven kernel is bit-identical to
// its full-walk reference on a cleared y with finite x — the adversarial
// shapes, random tiles at p ∈ {4, 16, 64, 256} whole and as boundary
// tiles with shortened x and y, and the ablation encoders.
func TestKernelsMatchFullWalk(t *testing.T) {
	type tc struct {
		tile       *matrix.Tile
		rows, cols int
	}
	cases := map[string]tc{}
	for name, tile := range adversarialTiles(16) {
		cases[name] = tc{tile, 16, 16}
	}
	for _, p := range []int{4, 16, 64, 256} {
		for _, density := range []float64{0.002, 0.05, 0.3} {
			seed := uint64(p)*100 + uint64(density*1000)
			cases[fmt.Sprintf("random_p%d_d%v", p, density)] = tc{randomTile(seed, p, density), p, p}
			rows, cols := p-p/4-1, p/2+1
			cases[fmt.Sprintf("boundary_p%d_d%v", p, density)] = tc{boundaryTile(seed+1, p, rows, cols, density), rows, cols}
		}
	}
	for name, c := range cases {
		encs := map[string]Encoded{}
		for _, k := range All() {
			encs[k.String()] = Encode(k, c.tile)
		}
		for _, b := range []int{2, 8} {
			if c.tile.P%b == 0 {
				encs[fmt.Sprintf("bcsr_b%d", b)] = EncodeBCSRBlock(c.tile, b)
				encs[fmt.Sprintf("sell_c%d", b)] = encodeSELL(c.tile, b, nil)
			}
		}
		for _, cap := range []int{0, 1, 3} {
			encs[fmt.Sprintf("ellcoo_cap%d", cap)] = EncodeELLCOOCap(c.tile, cap)
		}
		x := testOperand(c.cols, uint64(c.rows*1000+c.cols))
		for ename, e := range encs {
			want := make([]float64, c.rows)
			if !refWalk(e, x, want) {
				continue
			}
			got := make([]float64, c.rows)
			e.SpMV(x, got)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s/%s: y[%d] = %v, full walk %v", name, ename, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDIASkipsPaddingInf: DIA reads only its diagonals' non-zero
// extents, so an Inf in x at a column that only the padding outside the
// extent faces leaves y finite; the full walk multiplied that padding
// (0·Inf) and turned y into NaN.
func TestDIASkipsPaddingInf(t *testing.T) {
	tile := matrix.NewTile(4, 0, 0)
	tile.Set(0, 0, 2) // main diagonal, extent [0, 1)
	e := Encode(DIA, tile).(*DIAEnc)
	x := []float64{3, math.Inf(1), 0, 0}
	full := make([]float64, 4)
	refDIAWalk(e, x, full)
	if !math.IsNaN(full[1]) {
		t.Fatalf("full walk y[1] = %v, want NaN from 0·Inf", full[1])
	}
	y := make([]float64, 4)
	e.SpMV(x, y)
	if want := []float64{6, 0, 0, 0}; y[0] != want[0] || y[1] != want[1] || y[2] != want[2] || y[3] != want[3] {
		t.Fatalf("y = %v, want %v", y, want)
	}
}
