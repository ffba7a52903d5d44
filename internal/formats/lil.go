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
type LILEnc struct {
	p       int
	colRows [][]int32 // per column: ascending row indices of non-zeros
	colVals [][]float64
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
		colRows: sl.int32Lists(p),
		colVals: sl.float64Lists(p),
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
	// All column lists slice two shared backing arrays.
	rowsBuf := sl.int32s(nnz)
	valsBuf := sl.float64s(nnz)
	e.skip = sl.int32s(nzc)
	running, n := int32(0), 0
	for j := 0; j < p; j++ {
		c := cur[j]
		cur[j] = running
		if c > 0 {
			e.colRows[j] = rowsBuf[running : running+c : running+c]
			e.colVals[j] = valsBuf[running : running+c : running+c]
			e.skip[n] = int32(j)
			n++
		}
		running += c
	}
	// Scattering the row-major walk keeps each list's rows ascending.
	for i := 0; i < p; i++ {
		cols, vals := t.RowView(i)
		for k, j := range cols {
			rowsBuf[cur[j]] = int32(i)
			valsBuf[cur[j]] = vals[k]
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

// ColRows exposes column j's row-index list for the hardware model.
func (e *LILEnc) ColRows(j int) []int32 { return e.colRows[j] }

// ColVals exposes column j's value list for the hardware model.
func (e *LILEnc) ColVals(j int) []float64 { return e.colVals[j] }

// Height returns the longest column list (the rectangular BRAM array's
// used height, excluding the terminator row).
func (e *LILEnc) Height() int {
	h := 0
	for _, c := range e.colRows {
		if len(c) > h {
			h = len(c)
		}
	}
	return h
}

// DecodeInto implements Encoded. It walks each column list once —
// O(nnz + p) — validating that rows ascend within the list; the row-major
// order the Listing 4 merge produces is restored by the tile's seal.
func (e *LILEnc) DecodeInto(t *matrix.Tile) error {
	if len(e.colRows) != e.p || len(e.colVals) != e.p {
		return corruptf("lil: %d/%d columns for p=%d", len(e.colRows), len(e.colVals), e.p)
	}
	t.Reset(e.p)
	for j, rows := range e.colRows {
		vals := e.colVals[j]
		if len(rows) != len(vals) {
			return corruptf("lil: column %d length mismatch", j)
		}
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
	return Stats{NNZ: e.nnz, NonZeroRows: e.nzr, DotRows: e.nzr, Width: e.Height()}
}
