package formats

import "copernicus/internal/matrix"

// colLists is the host layout CSC and LIL share: each column's non-zeros
// as ascending row indices and their values, column after column in two
// streams, with one cumulative offset per column. The two formats store
// the same lists; they differ in what the modelled accelerator transfers
// and iterates, which their Footprint and Stats carry.
type colLists struct {
	p       int
	offsets []int32   // len p, cumulative entries through each column
	rows    []int32   // per column: ascending row indices of non-zeros
	vals    []float64 // the values, in rows order
	nzr     int
	// skip lists the non-empty columns, ascending — host-kernel metadata:
	// Footprint, Stats and DecodeInto ignore it (CSREnc.skip alone is
	// checked so far).
	skip []int32
}

// encode fills c with t's column lists, carving the streams from sl.
func (c *colLists) encode(t *matrix.Tile, sl *Slab) {
	p := t.P
	rp, cols, vals := t.Spans()
	nnz := len(vals)
	*c = colLists{p: p, offsets: sl.int32s(p), rows: sl.int32s(nnz), vals: sl.float64s(nnz), nzr: t.NonZeroRows()}
	s := getScratch()
	cur := s.ints(p) // per-column counts, then scatter cursors
	nzc := 0
	for _, j := range cols {
		if cur[j] == 0 {
			nzc++
		}
		cur[j]++
	}
	c.skip = sl.int32s(nzc)
	running, n := int32(0), 0
	for j := 0; j < p; j++ {
		k := cur[j]
		if k > 0 {
			c.skip[n] = int32(j)
			n++
		}
		cur[j] = running
		running += k
		c.offsets[j] = running
	}
	// Scattering the row-major walk keeps each list's rows ascending.
	for i := 0; i < p; i++ {
		for k := rp[i]; k < rp[i+1]; k++ {
			j := cols[k]
			c.rows[cur[j]] = int32(i)
			c.vals[cur[j]] = vals[k]
			cur[j]++
		}
	}
	putScratch(s)
}

// P implements Encoded.
func (c *colLists) P() int { return c.p }

// RowIdx exposes the row indices, column after column, for the hardware
// model.
func (c *colLists) RowIdx() []int32 { return c.rows }

// Values exposes the non-zero values, in RowIdx order, for the hardware
// model.
func (c *colLists) Values() []float64 { return c.vals }

// ColRange returns the [start, end) range of column j's list in the row
// and value streams.
func (c *colLists) ColRange(j int) (start, end int32) {
	if j > 0 {
		start = c.offsets[j-1]
	}
	return start, c.offsets[j]
}

// ColRows exposes column j's row-index list for the hardware model.
func (c *colLists) ColRows(j int) []int32 {
	start, end := c.ColRange(j)
	return c.rows[start:end]
}

// ColVals exposes column j's value list for the hardware model.
func (c *colLists) ColVals(j int) []float64 {
	start, end := c.ColRange(j)
	return c.vals[start:end]
}

// height returns the longest column list.
func (c *colLists) height() int {
	h, start := int32(0), int32(0)
	for _, end := range c.offsets {
		h = max(h, end-start)
		start = end
	}
	return int(h)
}

// decode is the DecodeInto of both formats, with errors prefixed by
// name. It walks each column list once — O(nnz + p) — validating the
// offsets and that each list's rows strictly ascend and hold no stored
// zero, since the kernel multiplies every stored entry: a repeated row
// would add its products twice, and a stored zero meeting a non-finite
// operand entry would make a NaN the decoded tile does not hold. The
// row-major order is restored by the tile's seal.
func (c *colLists) decode(t *matrix.Tile, name string) error {
	if len(c.offsets) != c.p {
		return corruptf("%s: %d offsets for p=%d", name, len(c.offsets), c.p)
	}
	if len(c.rows) != len(c.vals) {
		return corruptf("%s: %d rows for %d values", name, len(c.rows), len(c.vals))
	}
	if int(c.offsets[c.p-1]) != len(c.rows) {
		return corruptf("%s: final offset %d != %d entries", name, c.offsets[c.p-1], len(c.rows))
	}
	t.Reset(c.p)
	start := int32(0)
	for j, end := range c.offsets {
		if end < start || int(end) > len(c.rows) {
			return corruptf("%s: offset %d of column %d outside [%d, %d]", name, end, j, start, len(c.rows))
		}
		rows, vals := c.rows[start:end], c.vals[start:end]
		for k, r := range rows {
			if r < 0 || int(r) >= c.p {
				return corruptf("%s: row %d out of range in column %d", name, r, j)
			}
			if k > 0 && rows[k-1] >= r {
				return corruptf("%s: rows not ascending in column %d", name, j)
			}
			if vals[k] == 0 {
				return corruptf("%s: explicit zero in column %d", name, j)
			}
			t.Set(int(r), j, vals[k])
		}
		start = end
	}
	return nil
}

// streamBytes is the host bytes of c's streams at their capacities.
func (c *colLists) streamBytes() int64 {
	return capBytes(c.offsets, c.rows, c.skip) + capBytes(c.vals)
}

// CSCEnc stores a tile in compressed-sparse-column form: CSR applied to
// the transpose (Listing 3). The hardware consumes matrices row-by-row, so
// the decompressor must traverse every column for each output row — the
// orientation mismatch §5.2 includes deliberately as the extreme case,
// costing up to 21–30× the dense baseline in the paper's measurements.
type CSCEnc struct{ colLists }

func encodeCSC(t *matrix.Tile, sl *Slab) *CSCEnc {
	e := slabEnc[CSCEnc](sl, CSC)
	e.encode(t, sl)
	return e
}

// Kind implements Encoded.
func (e *CSCEnc) Kind() Kind { return CSC }

// DecodeInto implements Encoded.
func (e *CSCEnc) DecodeInto(t *matrix.Tile) error { return e.decode(t, "csc") }

// Footprint implements Encoded.
func (e *CSCEnc) Footprint() Footprint {
	useful := len(e.vals) * matrix.BytesPerValue
	idx := len(e.rows)*matrix.BytesPerIndex + len(e.offsets)*matrix.BytesPerOffset
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      idx,
		ValueLaneBytes: useful,
		IndexLaneBytes: idx,
	}
}

// Stats implements Encoded.
func (e *CSCEnc) Stats() Stats {
	return Stats{NNZ: len(e.vals), NonZeroRows: e.nzr, DotRows: e.nzr}
}

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
// The host copy keeps the lists in CSC's layout, so a tile costs no list
// header per column.
type LILEnc struct{ colLists }

func encodeLIL(t *matrix.Tile, sl *Slab) *LILEnc {
	e := slabEnc[LILEnc](sl, LIL)
	e.encode(t, sl)
	return e
}

// Kind implements Encoded.
func (e *LILEnc) Kind() Kind { return LIL }

// DecodeInto implements Encoded.
func (e *LILEnc) DecodeInto(t *matrix.Tile) error { return e.decode(t, "lil") }

// Footprint implements Encoded. Each column transfers its entries plus a
// terminator on both lanes.
func (e *LILEnc) Footprint() Footprint {
	nnz := len(e.vals)
	entries := nnz + e.p // one terminator per column
	useful := nnz * matrix.BytesPerValue
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
	return Stats{NNZ: len(e.vals), NonZeroRows: e.nzr, DotRows: e.nzr, Width: e.height()}
}
