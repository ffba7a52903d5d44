package formats

import (
	"math"
	"slices"
	"sort"
	"testing"

	"copernicus/internal/gen"
	"copernicus/internal/matrix"
	"copernicus/internal/xrand"
)

// This file keeps the pre-sparse-native encoders alive as a test-only
// dense reference: each walks every (i, j) coordinate of the tile through
// At — exactly the O(p²) scans the production encoders replaced with
// O(nnz + p) sparse walks — and the golden cross-check proves the two
// paths emit byte-identical streams, footprints, and stats for every
// format over random and adversarially structured tiles.

func refEncodeCSR(t *matrix.Tile) *CSREnc {
	e := &CSREnc{p: t.P, offsets: make([]int32, t.P), nzr: t.NonZeroRows()}
	running := int32(0)
	for i := 0; i < t.P; i++ {
		start := running
		for j := 0; j < t.P; j++ {
			if v := t.At(i, j); v != 0 {
				e.colIdx = append(e.colIdx, int32(j))
				e.vals = append(e.vals, v)
				running++
			}
		}
		if running > start {
			e.skip = append(e.skip, int32(i))
		}
		e.offsets[i] = running
	}
	return e
}

func refEncodeCSC(t *matrix.Tile) *CSCEnc {
	e := &CSCEnc{colLists{p: t.P, offsets: make([]int32, t.P), nzr: t.NonZeroRows()}}
	running := int32(0)
	for j := 0; j < t.P; j++ {
		start := running
		for i := 0; i < t.P; i++ {
			if v := t.At(i, j); v != 0 {
				e.rows = append(e.rows, int32(i))
				e.vals = append(e.vals, v)
				running++
			}
		}
		if running > start {
			e.skip = append(e.skip, int32(j))
		}
		e.offsets[j] = running
	}
	return e
}

func refEncodeBCSR(t *matrix.Tile, b int) *BCSREnc {
	nb := t.P / b
	e := &BCSREnc{p: t.P, b: b, offsets: make([]int32, nb), nnz: t.NNZ(), nzr: t.NonZeroRows()}
	running := int32(0)
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			nz := false
			for i := 0; i < b && !nz; i++ {
				for j := 0; j < b; j++ {
					if t.At(bi*b+i, bj*b+j) != 0 {
						nz = true
						break
					}
				}
			}
			if !nz {
				continue
			}
			e.colIdx = append(e.colIdx, int32(bj*b))
			for i := 0; i < b; i++ {
				for j := 0; j < b; j++ {
					e.vals = append(e.vals, t.At(bi*b+i, bj*b+j))
				}
			}
			running++
		}
		e.offsets[bi] = running
	}
	return e
}

func refEncodeCOO(t *matrix.Tile) *COOEnc {
	e := &COOEnc{p: t.P, nzr: t.NonZeroRows()}
	for i := 0; i < t.P; i++ {
		for j := 0; j < t.P; j++ {
			if v := t.At(i, j); v != 0 {
				e.rows = append(e.rows, int32(i))
				e.cols = append(e.cols, int32(j))
				e.vals = append(e.vals, v)
			}
		}
	}
	e.rows = append(e.rows, cooSentinel)
	e.cols = append(e.cols, cooSentinel)
	e.vals = append(e.vals, 0)
	return e
}

func refEncodeDOK(t *matrix.Tile) *DOKEnc {
	e := &DOKEnc{p: t.P, nnz: t.NNZ(), nzr: t.NonZeroRows()}
	size := 2
	for size < 2*max(1, e.nnz) {
		size *= 2
	}
	e.keys = make([]int32, size)
	e.vals = make([]float64, size)
	for s := range e.keys {
		e.keys[s] = dokEmpty
	}
	for i := 0; i < t.P; i++ {
		for j := 0; j < t.P; j++ {
			v := t.At(i, j)
			if v == 0 {
				continue
			}
			key := dokKey(i, j)
			slot := int(uint32(key)*2654435761) & (size - 1)
			for e.keys[slot] != dokEmpty {
				slot = (slot + 1) & (size - 1)
			}
			e.keys[slot] = key
			e.vals[slot] = v
		}
	}
	return e
}

func refEncodeLIL(t *matrix.Tile) *LILEnc {
	e := &LILEnc{colLists{p: t.P, nzr: t.NonZeroRows()}}
	for j := 0; j < t.P; j++ {
		n := len(e.rows)
		for i := 0; i < t.P; i++ {
			if v := t.At(i, j); v != 0 {
				e.rows = append(e.rows, int32(i))
				e.vals = append(e.vals, v)
			}
		}
		e.offsets = append(e.offsets, int32(len(e.rows)))
		if len(e.rows) > n {
			e.skip = append(e.skip, int32(j))
		}
	}
	return e
}

func refEncodeELL(t *matrix.Tile) *ELLEnc {
	w := 0
	for i := 0; i < t.P; i++ {
		if n := t.RowNNZ(i); n > w {
			w = n
		}
	}
	e := &ELLEnc{ellRect{p: t.P, w: w, nnz: t.NNZ(), nzr: t.NonZeroRows()}}
	e.idx = make([]int32, t.P*w)
	e.vals = make([]float64, t.P*w)
	for i := range e.idx {
		e.idx[i] = ellPad
	}
	for i := 0; i < t.P; i++ {
		k := 0
		for j := 0; j < t.P; j++ {
			if v := t.At(i, j); v != 0 {
				e.idx[i*w+k] = int32(j)
				e.vals[i*w+k] = v
				k++
			}
		}
		if k > 0 {
			e.skip = append(e.skip, int32(i))
		}
	}
	return e
}

func refEncodeDIA(t *matrix.Tile) *DIAEnc {
	e := &DIAEnc{p: t.P, nnz: t.NNZ(), nzr: t.NonZeroRows()}
	for d := -(t.P - 1); d <= t.P-1; d++ {
		nz := false
		for i := 0; i < t.P; i++ {
			j := i + d
			if j >= 0 && j < t.P && t.At(i, j) != 0 {
				nz = true
				break
			}
		}
		if !nz {
			continue
		}
		e.diagNo = append(e.diagNo, int32(d))
		lane := make([]float64, t.P)
		lo, hi := -1, -1
		for i := 0; i < t.P; i++ {
			if j := i + d; j >= 0 && j < t.P {
				lane[i] = t.At(i, j)
				if lane[i] != 0 {
					if lo < 0 {
						lo = i
					}
					hi = i + 1
				}
			}
		}
		e.lanes = append(e.lanes, lane[lo:hi]...)
		e.ext = append(e.ext, int32(lo), int32(hi))
	}
	return e
}

func refEncodeSELL(t *matrix.Tile, c int) *SELLEnc {
	e := &SELLEnc{sliced{p: t.P, c: c, nnz: t.NNZ(), nzr: t.NonZeroRows()}}
	for s := 0; s < t.P/c; s++ {
		w := 0
		for i := s * c; i < (s+1)*c; i++ {
			if n := t.RowNNZ(i); n > w {
				w = n
			}
		}
		e.widths = append(e.widths, int32(w))
		base := len(e.idx)
		e.idx = append(e.idx, make([]int32, c*w)...)
		e.vals = append(e.vals, make([]float64, c*w)...)
		for k := base; k < len(e.idx); k++ {
			e.idx[k] = ellPad
		}
		for r := 0; r < c; r++ {
			k := 0
			for j := 0; j < t.P; j++ {
				if v := t.At(s*c+r, j); v != 0 {
					e.idx[base+r*w+k] = int32(j)
					e.vals[base+r*w+k] = v
					k++
				}
			}
			if k > 0 {
				e.skip = append(e.skip, int32(s*c+r), int32(base+r*w))
			}
		}
	}
	return e
}

func refEncodeELLCOO(t *matrix.Tile, cap int) *ELLCOOEnc {
	w := 0
	for i := 0; i < t.P; i++ {
		if n := t.RowNNZ(i); n > w {
			w = n
		}
	}
	if w > cap {
		w = cap
	}
	e := &ELLCOOEnc{ellRect: ellRect{p: t.P, w: w, nnz: t.NNZ(), nzr: t.NonZeroRows()}}
	e.idx = make([]int32, t.P*w)
	e.vals = make([]float64, t.P*w)
	for i := range e.idx {
		e.idx[i] = ellPad
	}
	for i := 0; i < t.P; i++ {
		k := 0
		for j := 0; j < t.P; j++ {
			v := t.At(i, j)
			if v == 0 {
				continue
			}
			if len(e.skip) == 0 || e.skip[len(e.skip)-1] != int32(i) {
				e.skip = append(e.skip, int32(i))
			}
			if k < w {
				e.idx[i*w+k] = int32(j)
				e.vals[i*w+k] = v
				k++
			} else {
				e.srow = append(e.srow, int32(i))
				e.scol = append(e.scol, int32(j))
				e.sval = append(e.sval, v)
			}
		}
	}
	e.srow = append(e.srow, cooSentinel)
	e.scol = append(e.scol, cooSentinel)
	e.sval = append(e.sval, 0)
	return e
}

func refEncodeJDS(t *matrix.Tile) *JDSEnc {
	e := &JDSEnc{p: t.P, nzr: t.NonZeroRows()}
	e.perm = make([]int32, t.P)
	rows := make([]int, t.P)
	for i := range rows {
		rows[i] = i
	}
	sort.SliceStable(rows, func(a, b int) bool {
		return t.RowNNZ(rows[a]) > t.RowNNZ(rows[b])
	})
	for r, orig := range rows {
		e.perm[r] = int32(orig)
	}
	w := 0
	if t.P > 0 {
		w = t.RowNNZ(rows[0])
	}
	type ent struct {
		col int32
		val float64
	}
	compact := make([][]ent, t.P)
	for r, orig := range rows {
		for j := 0; j < t.P; j++ {
			if v := t.At(orig, j); v != 0 {
				compact[r] = append(compact[r], ent{int32(j), v})
			}
		}
	}
	e.ptr = make([]int32, w+1)
	for k := 0; k < w; k++ {
		e.ptr[k] = int32(len(e.vals))
		for r := 0; r < t.P && len(compact[r]) > k; r++ {
			e.idx = append(e.idx, compact[r][k].col)
			e.vals = append(e.vals, compact[r][k].val)
		}
	}
	e.ptr[w] = int32(len(e.vals))
	return e
}

func refEncodeSELLCS(t *matrix.Tile, c, sigma int) *SELLCSEnc {
	e := &SELLCSEnc{sliced{p: t.P, c: c, nnz: t.NNZ(), nzr: t.NonZeroRows()}}
	e.perm = make([]int32, t.P)
	for i := range e.perm {
		e.perm[i] = int32(i)
	}
	for w := 0; w < t.P; w += sigma {
		end := min(w+sigma, t.P)
		win := e.perm[w:end]
		sort.SliceStable(win, func(a, b int) bool {
			return t.RowNNZ(int(win[a])) > t.RowNNZ(int(win[b]))
		})
	}
	for s := 0; s < t.P/c; s++ {
		w := 0
		for r := s * c; r < (s+1)*c; r++ {
			if n := t.RowNNZ(int(e.perm[r])); n > w {
				w = n
			}
		}
		e.widths = append(e.widths, int32(w))
		base := len(e.idx)
		e.idx = append(e.idx, make([]int32, c*w)...)
		e.vals = append(e.vals, make([]float64, c*w)...)
		for k := base; k < len(e.idx); k++ {
			e.idx[k] = ellPad
		}
		for r := 0; r < c; r++ {
			orig := int(e.perm[s*c+r])
			k := 0
			for j := 0; j < t.P; j++ {
				if v := t.At(orig, j); v != 0 {
					e.idx[base+r*w+k] = int32(j)
					e.vals[base+r*w+k] = v
					k++
				}
			}
			if k > 0 {
				e.skip = append(e.skip, int32(s*c+r), int32(base+r*w))
			}
		}
	}
	return e
}

func refEncodeDense(t *matrix.Tile) *DenseEnc {
	e := &DenseEnc{p: t.P, val: make([]float64, t.P*t.P), nnz: t.NNZ(), nzr: t.NonZeroRows()}
	for i := 0; i < t.P; i++ {
		for j := 0; j < t.P; j++ {
			e.val[i*t.P+j] = t.At(i, j)
		}
	}
	return e
}

func refEncode(k Kind, t *matrix.Tile) Encoded {
	switch k {
	case Dense:
		return refEncodeDense(t)
	case CSR:
		return refEncodeCSR(t)
	case CSC:
		return refEncodeCSC(t)
	case BCSR:
		return refEncodeBCSR(t, BCSRBlock)
	case COO:
		return refEncodeCOO(t)
	case DOK:
		return refEncodeDOK(t)
	case LIL:
		return refEncodeLIL(t)
	case ELL:
		return refEncodeELL(t)
	case DIA:
		return refEncodeDIA(t)
	case SELL:
		return refEncodeSELL(t, SELLSlice)
	case ELLCOO:
		return refEncodeELLCOO(t, ELLWidth)
	case JDS:
		return refEncodeJDS(t)
	case SELLCS:
		return refEncodeSELLCS(t, SELLSlice, SELLCSigmaWindow)
	default:
		panic("refEncode: unknown kind")
	}
}

// encStreamsEqual compares two same-format encodings stream by stream,
// the host-kernel skip lists included
// (slices.Equal treats nil and empty as equal, so append-grown reference
// streams match exactly-allocated production ones).
func encStreamsEqual(t *testing.T, got, want Encoded) bool {
	t.Helper()
	switch g := got.(type) {
	case *DenseEnc:
		w := want.(*DenseEnc)
		return g.p == w.p && slices.Equal(g.val, w.val)
	case *CSREnc:
		w := want.(*CSREnc)
		return g.p == w.p && slices.Equal(g.offsets, w.offsets) &&
			slices.Equal(g.colIdx, w.colIdx) && slices.Equal(g.vals, w.vals) &&
			slices.Equal(g.skip, w.skip)
	case *CSCEnc:
		w := want.(*CSCEnc)
		return g.p == w.p && slices.Equal(g.offsets, w.offsets) &&
			slices.Equal(g.rows, w.rows) && slices.Equal(g.vals, w.vals) &&
			slices.Equal(g.skip, w.skip)
	case *BCSREnc:
		w := want.(*BCSREnc)
		return g.p == w.p && g.b == w.b && slices.Equal(g.offsets, w.offsets) &&
			slices.Equal(g.colIdx, w.colIdx) && slices.Equal(g.vals, w.vals)
	case *COOEnc:
		w := want.(*COOEnc)
		return g.p == w.p && slices.Equal(g.rows, w.rows) &&
			slices.Equal(g.cols, w.cols) && slices.Equal(g.vals, w.vals)
	case *DOKEnc:
		w := want.(*DOKEnc)
		return g.p == w.p && slices.Equal(g.keys, w.keys) && slices.Equal(g.vals, w.vals)
	case *LILEnc:
		w := want.(*LILEnc)
		return g.p == w.p && slices.Equal(g.offsets, w.offsets) &&
			slices.Equal(g.rows, w.rows) && slices.Equal(g.vals, w.vals) &&
			slices.Equal(g.skip, w.skip)
	case *ELLEnc:
		w := want.(*ELLEnc)
		return g.p == w.p && g.w == w.w && slices.Equal(g.idx, w.idx) && slices.Equal(g.vals, w.vals) &&
			slices.Equal(g.skip, w.skip)
	case *DIAEnc:
		w := want.(*DIAEnc)
		return g.p == w.p && slices.Equal(g.diagNo, w.diagNo) && slices.Equal(g.lanes, w.lanes) &&
			slices.Equal(g.ext, w.ext)
	case *SELLEnc:
		w := want.(*SELLEnc)
		return g.p == w.p && g.c == w.c && slices.Equal(g.widths, w.widths) &&
			slices.Equal(g.idx, w.idx) && slices.Equal(g.vals, w.vals) && slices.Equal(g.skip, w.skip)
	case *ELLCOOEnc:
		w := want.(*ELLCOOEnc)
		return g.p == w.p && g.w == w.w && slices.Equal(g.idx, w.idx) &&
			slices.Equal(g.vals, w.vals) && slices.Equal(g.srow, w.srow) &&
			slices.Equal(g.scol, w.scol) && slices.Equal(g.sval, w.sval) &&
			slices.Equal(g.skip, w.skip)
	case *JDSEnc:
		w := want.(*JDSEnc)
		return g.p == w.p && slices.Equal(g.perm, w.perm) && slices.Equal(g.ptr, w.ptr) &&
			slices.Equal(g.idx, w.idx) && slices.Equal(g.vals, w.vals)
	case *SELLCSEnc:
		w := want.(*SELLCSEnc)
		return g.p == w.p && g.c == w.c && slices.Equal(g.perm, w.perm) &&
			slices.Equal(g.widths, w.widths) && slices.Equal(g.idx, w.idx) &&
			slices.Equal(g.vals, w.vals) && slices.Equal(g.skip, w.skip)
	default:
		t.Fatalf("encStreamsEqual: unhandled type %T", got)
		return false
	}
}

// goldenTiles builds the cross-check corpus: random tiles over a density
// sweep plus the structured adversaries (diagonal, full row/column,
// checkerboard, anti-diagonal, skewed, empty), all at several partition
// sizes — every tile both staged through Set and extracted sealed from a
// partitioned matrix.
func goldenTiles(t *testing.T) []*matrix.Tile {
	t.Helper()
	var tiles []*matrix.Tile
	for _, p := range []int{8, 16, 32} {
		for _, density := range []float64{0, 0.02, 0.1, 0.3, 0.7, 1} {
			r := xrand.New(uint64(p)*1000 + uint64(density*100))
			tl := matrix.NewTile(p, 0, 0)
			for i := 0; i < p; i++ {
				for j := 0; j < p; j++ {
					if r.Float64() < density {
						tl.Set(i, j, r.ValueIn(-4, 4))
					}
				}
			}
			tiles = append(tiles, tl)
		}
		diag := matrix.NewTile(p, 0, 0)
		fullRow := matrix.NewTile(p, 0, 0)
		fullCol := matrix.NewTile(p, 0, 0)
		checker := matrix.NewTile(p, 0, 0)
		anti := matrix.NewTile(p, 0, 0)
		skew := matrix.NewTile(p, 0, 0)
		for i := 0; i < p; i++ {
			diag.Set(i, i, float64(i+1))
			fullRow.Set(p/2, i, float64(i+1))
			fullCol.Set(i, p/2, float64(i+1))
			anti.Set(i, p-1-i, float64(i+1))
			skew.Set(3, i, 1)
			for j := 0; j < p; j++ {
				if (i+j)%2 == 0 {
					checker.Set(i, j, 1)
				}
			}
		}
		for i := 0; i < p; i += 3 {
			skew.Set(i, 0, 1)
		}
		tiles = append(tiles, diag, fullRow, fullCol, checker, anti, skew, matrix.NewTile(p, 0, 0))
	}
	// Sealed tiles straight out of a partitioning (the production path).
	m := gen.Random(96, 0.08, 4242)
	tiles = append(tiles, matrix.Partition(m, 16).Tiles...)
	tiles = append(tiles, matrix.Partition(gen.Band(96, 9, 7), 8).Tiles...)
	return tiles
}

// TestSparseEncodersMatchDenseReference is the golden cross-check: for
// every format and every corpus tile, the sparse-native encoder must
// produce byte-identical streams, footprint, and stats to the dense
// reference walk.
func TestSparseEncodersMatchDenseReference(t *testing.T) {
	for _, tile := range goldenTiles(t) {
		for _, k := range All() {
			got := Encode(k, tile)
			want := refEncode(k, tile)
			if !encStreamsEqual(t, got, want) {
				t.Fatalf("%v: sparse encode of %dx%d tile (nnz=%d) diverges from dense reference",
					k, tile.P, tile.P, tile.NNZ())
			}
			if got.Footprint() != want.Footprint() {
				t.Fatalf("%v: footprint %+v != reference %+v", k, got.Footprint(), want.Footprint())
			}
			if got.Stats() != want.Stats() {
				t.Fatalf("%v: stats %+v != reference %+v", k, got.Stats(), want.Stats())
			}
		}
	}
}

// TestSparseEncodersMatchDenseReferenceAblations covers the ablation
// entry points' custom parameters.
func TestSparseEncodersMatchDenseReferenceAblations(t *testing.T) {
	for _, tile := range goldenTiles(t) {
		for _, b := range []int{2, 8} {
			if tile.P%b != 0 {
				continue
			}
			got, want := EncodeBCSRBlock(tile, b), refEncodeBCSR(tile, b)
			if !encStreamsEqual(t, got, want) || got.Footprint() != want.Footprint() || got.Stats() != want.Stats() {
				t.Fatalf("BCSR b=%d: sparse encode diverges from dense reference", b)
			}
		}
		for _, cap := range []int{2, 12} {
			got, want := EncodeELLCOOCap(tile, cap), refEncodeELLCOO(tile, cap)
			if !encStreamsEqual(t, got, want) || got.Footprint() != want.Footprint() || got.Stats() != want.Stats() {
				t.Fatalf("ELL+COO cap=%d: sparse encode diverges from dense reference", cap)
			}
		}
		if tile.P%8 == 0 {
			got, want := encodeSELL(tile, 8, nil), refEncodeSELL(tile, 8)
			if !encStreamsEqual(t, got, want) || got.Footprint() != want.Footprint() || got.Stats() != want.Stats() {
				t.Fatal("SELL c=8: sparse encode diverges from dense reference")
			}
		}
	}
}

// TestEncodeNaNMatchesReference: NaN payloads must flow through the
// sparse walks exactly as through the dense reference (compared via
// Decode, since NaN breaks slice equality).
func TestEncodeNaNMatchesReference(t *testing.T) {
	tile := matrix.NewTile(8, 0, 0)
	tile.Set(1, 2, math.NaN())
	tile.Set(5, 7, 3.5)
	for _, k := range All() {
		got := Encode(k, tile)
		dec, err := Decode(got)
		if err != nil {
			t.Fatalf("%v: decode: %v", k, err)
		}
		if !math.IsNaN(dec.At(1, 2)) || dec.At(5, 7) != 3.5 {
			t.Fatalf("%v: NaN payload lost in sparse encode", k)
		}
	}
}
