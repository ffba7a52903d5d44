package formats

import (
	"slices"

	"copernicus/internal/matrix"
)

// ellPad is the explicit padding index of Fig. 1g.
const ellPad = int32(-1)

// ellRect is the host layout ELL and the rectangle of ELL+COO share: a
// p×w array of column indices and a matching array of values, row-major,
// each row's leading non-zeros pushed to the left and the rest of the row
// padded with ellPad and 0.
type ellRect struct {
	p, w int
	idx  []int32   // p*w, row-major; ellPad marks padding
	vals []float64 // p*w, row-major
	nnz  int       // the tile's non-zeros, spill included
	nzr  int
	// skip lists the non-empty rows, ascending — derived host-kernel
	// metadata: Footprint, Stats and DecodeInto ignore it (CSREnc.skip
	// alone is checked so far).
	skip []int32
}

// encode fills r with t's rows, w the longest row's non-zero count capped
// at limit, carving the streams from sl. A row longer than w keeps its
// first w entries; the rest are the caller's to store.
func (r *ellRect) encode(t *matrix.Tile, limit int, sl *Slab) {
	rp, cols, vals := t.Spans()
	w := 0
	for i := 0; i < t.P; i++ {
		w = max(w, int(rp[i+1]-rp[i]))
	}
	w = min(w, limit)
	*r = ellRect{p: t.P, w: w, nnz: len(vals), nzr: t.NonZeroRows()}
	r.idx = sl.int32s(t.P * w)
	r.vals = sl.float64s(t.P * w)
	r.skip = sl.int32s(r.nzr)
	for i := range r.idx {
		r.idx[i] = ellPad
	}
	n := 0
	for i := 0; i < t.P; i++ {
		lo, hi := rp[i], rp[i+1]
		if hi > lo {
			r.skip[n] = int32(i)
			n++
		}
		hi = min(hi, lo+int32(w))
		copy(r.idx[i*w:], cols[lo:hi])
		copy(r.vals[i*w:], vals[lo:hi])
	}
}

// P implements Encoded.
func (r *ellRect) P() int { return r.p }

// Width returns the rectangle width W.
func (r *ellRect) Width() int { return r.w }

// Idx exposes the padded index rectangle for the hardware model.
func (r *ellRect) Idx() []int32 { return r.idx }

// Values exposes the padded value rectangle for the hardware model.
func (r *ellRect) Values() []float64 { return r.vals }

// decode resets t and sets the rectangle's entries into it, with errors
// prefixed by name.
func (r *ellRect) decode(t *matrix.Tile, name string) error {
	if len(r.idx) != r.p*r.w || len(r.vals) != r.p*r.w {
		return corruptf("%s: rectangle %d/%d for p=%d w=%d", name, len(r.idx), len(r.vals), r.p, r.w)
	}
	t.Reset(r.p)
	for i := 0; i < r.p; i++ {
		if err := decodeELLRow(t, name, i, r.idx[i*r.w:(i+1)*r.w], r.vals[i*r.w:(i+1)*r.w]); err != nil {
			return err
		}
	}
	return nil
}

// decodeELLRow sets one padded row of the ELL family into row i of t. The
// row must be left-packed, as the kernels read it: an entry after a
// padding slot, or a padding slot holding a value, is corrupt, and so is
// a stored zero or a column outside the tile. Columns must strictly
// ascend, since the kernel adds every stored product: a repeated column
// would count twice where the decoded tile keeps the last.
func decodeELLRow(t *matrix.Tile, name string, i int, idx []int32, vals []float64) error {
	padded, prev := false, int32(-1)
	for k, j := range idx {
		switch {
		case j == ellPad:
			if vals[k] != 0 {
				return corruptf("%s: padded slot %d of row %d holds a value", name, k, i)
			}
			padded = true
		case padded:
			return corruptf("%s: entry after padding at row %d slot %d", name, i, k)
		case j < 0 || int(j) >= t.P:
			return corruptf("%s: column %d out of range at row %d", name, j, i)
		case j <= prev:
			return corruptf("%s: columns not ascending at row %d", name, i)
		case vals[k] == 0:
			return corruptf("%s: explicit zero at row %d slot %d", name, i, k)
		default:
			t.Set(i, int(j), vals[k])
			prev = j
		}
	}
	return nil
}

// streamBytes is the host bytes of r's streams at their capacities.
func (r *ellRect) streamBytes() int64 { return capBytes(r.idx, r.skip) + capBytes(r.vals) }

// ELLEnc stores a tile in Ellpack form (Fig. 1g, Listing 5): each row's
// non-zeros are pushed to the left into a rectangular p×W array of values
// with a matching array of column indices, where W is the longest row's
// non-zero count and short rows are padded with an explicit -1 index. The
// fixed rectangle makes all accesses position-independent, so both arrays
// partition across BRAM banks and the decompressor is a single fully
// unrolled gather per row — but every row of the tile is processed,
// including all-zero rows, and the padding travels over AXI as dead
// metadata.
//
// The paper allocates the on-chip arrays with width formats.ELLWidth (6);
// the transferred rectangle uses the tile's true width W, which is what
// the bandwidth figures respond to.
type ELLEnc struct{ ellRect }

func encodeELL(t *matrix.Tile, sl *Slab) *ELLEnc {
	e := slabEnc[ELLEnc](sl, ELL)
	e.encode(t, t.P, sl)
	return e
}

// Kind implements Encoded.
func (e *ELLEnc) Kind() Kind { return ELL }

// DecodeInto implements Encoded.
func (e *ELLEnc) DecodeInto(t *matrix.Tile) error { return e.decode(t, "ell") }

// Footprint implements Encoded. Both rectangles travel in full; padding
// slots and all indices are metadata.
func (e *ELLEnc) Footprint() Footprint {
	useful := e.nnz * matrix.BytesPerValue
	valueLane := len(e.vals) * matrix.BytesPerValue
	idxLane := len(e.idx) * matrix.BytesPerIndex
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      idxLane + (valueLane - useful),
		ValueLaneBytes: valueLane,
		IndexLaneBytes: idxLane,
	}
}

// Stats implements Encoded. ELL cannot skip all-zero rows (the direction
// of compression hides row occupancy), so every tile row gets a dot
// product — the structural reason σ_ELL tracks the dense baseline.
func (e *ELLEnc) Stats() Stats {
	return Stats{NNZ: e.nnz, NonZeroRows: e.nzr, DotRows: e.p, Width: e.w}
}

// ELLCOOEnc stores a tile in the hybrid ELL+COO form (§2): an ELL
// rectangle capped at width cap holds the first entries of every row, and
// rows longer than the cap spill their excess into a COO tuple list. The
// hybrid bounds ELL's padding explosion on matrices with a few long rows
// — the reason cuSPARSE's HYB format exists. Extension format; the paper
// describes it but measures plain ELL.
type ELLCOOEnc struct {
	ellRect
	// COO spill, sentinel-terminated like COOEnc.
	srow []int32
	scol []int32
	sval []float64
}

func encodeELLCOO(t *matrix.Tile, cap int, sl *Slab) *ELLCOOEnc {
	e := slabEnc[ELLCOOEnc](sl, ELLCOO)
	e.encode(t, cap, sl)
	rp, cols, vals := t.Spans()
	w := int32(e.w)
	spill := 0
	for i := 0; i < t.P; i++ {
		spill += int(max(rp[i+1]-rp[i]-w, 0))
	}
	e.srow, e.scol, e.sval = sl.int32s(spill+1), sl.int32s(spill+1), sl.float64s(spill+1)
	n := 0
	for i := 0; n < spill; i++ {
		for k := rp[i] + w; k < rp[i+1]; k++ {
			e.srow[n], e.scol[n], e.sval[n] = int32(i), cols[k], vals[k]
			n++
		}
	}
	e.srow[spill], e.scol[spill] = cooSentinel, cooSentinel
	return e
}

// Kind implements Encoded.
func (e *ELLCOOEnc) Kind() Kind { return ELLCOO }

// spill returns the number of COO spill tuples (sentinel excluded).
func (e *ELLCOOEnc) spill() int { return len(e.sval) - 1 }

// DecodeInto implements Encoded. Spill tuples must strictly ascend in
// row-major order and hold no column their rectangle row already holds,
// since the kernel adds every stored product: a coordinate stored twice
// would count twice where the decoded tile keeps the last write.
func (e *ELLCOOEnc) DecodeInto(t *matrix.Tile) error {
	if err := e.decode(t, "ell+coo"); err != nil {
		return err
	}
	if len(e.srow) == 0 || e.srow[len(e.srow)-1] != cooSentinel {
		return corruptf("ell+coo: missing spill sentinel")
	}
	for k := 0; k < len(e.srow)-1; k++ {
		i, j := e.srow[k], e.scol[k]
		if i < 0 || int(i) >= e.p || j < 0 || int(j) >= e.p {
			return corruptf("ell+coo: spill tuple %d out of range", k)
		}
		if k > 0 && !tupleLess(e.srow[k-1], e.scol[k-1], i, j) {
			return corruptf("ell+coo: spill tuple %d not ascending", k)
		}
		if slices.Contains(e.idx[int(i)*e.w:int(i+1)*e.w], j) {
			return corruptf("ell+coo: spill tuple %d repeats a rectangle column of row %d", k, i)
		}
		if e.sval[k] == 0 {
			return corruptf("ell+coo: spill tuple %d stores explicit zero", k)
		}
		t.Set(int(i), int(j), e.sval[k])
	}
	return nil
}

// Footprint implements Encoded. As with COO, the spill sentinel is
// synthesized locally and does not travel.
func (e *ELLCOOEnc) Footprint() Footprint {
	spill := e.spill()
	useful := e.nnz * matrix.BytesPerValue
	valueLane := (len(e.vals) + spill) * matrix.BytesPerValue
	idxLane := (len(e.idx) + 2*spill) * matrix.BytesPerIndex
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      idxLane + (valueLane - useful),
		ValueLaneBytes: valueLane,
		IndexLaneBytes: idxLane,
	}
}

// Stats implements Encoded. The ELL part processes all rows; the spill is
// scanned like COO.
func (e *ELLCOOEnc) Stats() Stats {
	return Stats{NNZ: e.nnz, NonZeroRows: e.nzr, DotRows: e.p, Width: e.w, Slices: e.spill()}
}
