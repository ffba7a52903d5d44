package formats

import "copernicus/internal/matrix"

// LILEnc stores a tile as the paper's list-of-lists variant (Fig. 1f,
// Listing 4): one list per column holding the row indices and values of
// that column's non-zeros, pushed to the top. Because every column list
// can sit in its own BRAM bank (the array_partition pragmas of Listing 4),
// the decompressor reconstructs a non-zero row with a single parallel
// access: it scans the per-column cursors for the minimum pending row
// index and gathers every column whose head matches. One terminator entry
// per column marks the end of the lists — the "one additional row" of
// transfer the paper charges LIL for.
//
// The host copy keeps the lists column-major in two shared streams — the
// row indices and the values, column after column — with one cumulative
// offset per column, so a tile costs no list header per column.
type LILEnc struct {
	p       int
	offsets []int32   // len p, cumulative entries through each column
	rows    []int32   // per column: ascending row indices of non-zeros
	vals    []float64 // the values, in rows order
	nnz     int
	nzr     int
	// skip lists the non-empty columns, ascending — host-kernel metadata
	// like CSREnc.skip: Footprint, Stats and DecodeInto ignore it.
	skip []int32
}

// lilTerm marks the end of a column list; Listing 4 detects it by
// comparing against HEIGHT.
const lilTerm = int32(-1)

func encodeLIL(t *matrix.Tile, sl *Slab) *LILEnc {
	p, nnz := t.P, t.NNZ()
	e := slabEnc[LILEnc](sl, LIL)
	*e = LILEnc{
		p:       p,
		offsets: sl.int32s(p),
		rows:    sl.int32s(nnz),
		vals:    sl.float64s(nnz),
		nnz:     nnz,
		nzr:     t.NonZeroRows(),
	}
	s := getScratch()
	cur := s.ints(p) // per-column counts, then scatter cursors
	nzc := 0
	for i := 0; i < p; i++ {
		cols, _ := t.RowView(i)
		for _, j := range cols {
			if cur[j] == 0 {
				nzc++
			}
			cur[j]++
		}
	}
	e.skip = sl.int32s(nzc)
	running, n := int32(0), 0
	for j := 0; j < p; j++ {
		c := cur[j]
		cur[j] = running
		running += c
		e.offsets[j] = running
		if c > 0 {
			e.skip[n] = int32(j)
			n++
		}
	}
	// Scattering the row-major walk keeps each list's rows ascending.
	for i := 0; i < p; i++ {
		cols, vals := t.RowView(i)
		for k, j := range cols {
			e.rows[cur[j]] = int32(i)
			e.vals[cur[j]] = vals[k]
			cur[j]++
		}
	}
	putScratch(s)
	return e
}

// Kind implements Encoded.
func (e *LILEnc) Kind() Kind { return LIL }

// P implements Encoded.
func (e *LILEnc) P() int { return e.p }

// colRange returns the [start, end) range of column j's list in the row
// and value streams.
func (e *LILEnc) colRange(j int) (start, end int32) {
	if j > 0 {
		start = e.offsets[j-1]
	}
	return start, e.offsets[j]
}

// ColRows exposes column j's row-index list for the hardware model.
func (e *LILEnc) ColRows(j int) []int32 {
	start, end := e.colRange(j)
	return e.rows[start:end]
}

// ColVals exposes column j's value list for the hardware model.
func (e *LILEnc) ColVals(j int) []float64 {
	start, end := e.colRange(j)
	return e.vals[start:end]
}

// height returns the longest column list (the rectangular BRAM array's
// used height, excluding the terminator row).
func (e *LILEnc) height() int {
	h, start := int32(0), int32(0)
	for _, end := range e.offsets {
		h = max(h, end-start)
		start = end
	}
	return int(h)
}

// DecodeInto implements Encoded. It walks each column list once —
// O(nnz + p) — validating the offsets and that rows ascend within a
// list; the row-major order the Listing 4 merge produces is restored by
// the tile's seal.
func (e *LILEnc) DecodeInto(t *matrix.Tile) error {
	if len(e.offsets) != e.p {
		return corruptf("lil: %d offsets for p=%d", len(e.offsets), e.p)
	}
	if len(e.rows) != len(e.vals) {
		return corruptf("lil: %d rows for %d values", len(e.rows), len(e.vals))
	}
	if int(e.offsets[e.p-1]) != len(e.rows) {
		return corruptf("lil: final offset %d != %d entries", e.offsets[e.p-1], len(e.rows))
	}
	t.Reset(e.p)
	start := int32(0)
	for j, end := range e.offsets {
		if end < start || int(end) > len(e.rows) {
			return corruptf("lil: offset %d of column %d outside [%d, %d]", end, j, start, len(e.rows))
		}
		rows, vals := e.rows[start:end], e.vals[start:end]
		for k, r := range rows {
			if r < 0 || int(r) >= e.p {
				return corruptf("lil: row %d out of range in column %d", r, j)
			}
			if k > 0 && rows[k-1] >= r {
				return corruptf("lil: rows not ascending in column %d", j)
			}
			if vals[k] == 0 {
				return corruptf("lil: explicit zero in column %d", j)
			}
			t.Set(int(r), j, vals[k])
		}
		start = end
	}
	return nil
}

// Footprint implements Encoded. Each column transfers its entries plus a
// terminator on both lanes.
func (e *LILEnc) Footprint() Footprint {
	entries := e.nnz + e.p // one terminator per column
	useful := e.nnz * matrix.BytesPerValue
	valueLane := entries * matrix.BytesPerValue
	idxLane := entries * matrix.BytesPerIndex
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      idxLane + (valueLane - useful),
		ValueLaneBytes: valueLane,
		IndexLaneBytes: idxLane,
	}
}

// Stats implements Encoded. Width records the longest column list, which
// bounds the merge depth.
func (e *LILEnc) Stats() Stats {
	return Stats{NNZ: e.nnz, NonZeroRows: e.nzr, DotRows: e.nzr, Width: e.height()}
}
