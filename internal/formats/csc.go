package formats

import "copernicus/internal/matrix"

// CSCEnc stores a tile in compressed-sparse-column form: CSR applied to
// the transpose (Listing 3). The hardware consumes matrices row-by-row, so
// the decompressor must traverse every column for each output row — the
// orientation mismatch §5.2 includes deliberately as the extreme case,
// costing up to 21–30× the dense baseline in the paper's measurements.
type CSCEnc struct {
	p       int
	offsets []int32 // len p, cumulative nnz through each column
	rowIdx  []int32 // len nnz, row index per value, column-major order
	vals    []float64
	nzr     int
	// skip lists the non-empty columns, ascending — host-kernel metadata
	// like CSREnc.skip: Footprint, Stats and DecodeInto ignore it.
	skip []int32
}

func encodeCSC(t *matrix.Tile, sl *Slab) *CSCEnc {
	p, nnz := t.P, t.NNZ()
	e := slabEnc[CSCEnc](sl, CSC)
	*e = CSCEnc{p: p, offsets: sl.int32s(p), nzr: t.NonZeroRows(),
		rowIdx: sl.int32s(nnz), vals: sl.float64s(nnz)}
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
		if c > 0 {
			e.skip[n] = int32(j)
			n++
		}
		cur[j] = running
		running += c
		e.offsets[j] = running
	}
	// Scattering the row-major walk preserves ascending rows per column.
	for i := 0; i < p; i++ {
		cols, vals := t.RowView(i)
		for k, j := range cols {
			e.rowIdx[cur[j]] = int32(i)
			e.vals[cur[j]] = vals[k]
			cur[j]++
		}
	}
	putScratch(s)
	return e
}

// Kind implements Encoded.
func (e *CSCEnc) Kind() Kind { return CSC }

// P implements Encoded.
func (e *CSCEnc) P() int { return e.p }

// RowIdx exposes the row indices for the hardware model.
func (e *CSCEnc) RowIdx() []int32 { return e.rowIdx }

// Values exposes the non-zero values for the hardware model.
func (e *CSCEnc) Values() []float64 { return e.vals }

// ColRange returns the [start, end) slice of the index/value streams for
// column j.
func (e *CSCEnc) ColRange(j int) (start, end int32) {
	if j > 0 {
		start = e.offsets[j-1]
	}
	return start, e.offsets[j]
}

// DecodeInto implements Encoded.
func (e *CSCEnc) DecodeInto(t *matrix.Tile) error {
	if len(e.offsets) != e.p {
		return corruptf("csc: %d offsets for p=%d", len(e.offsets), e.p)
	}
	if len(e.rowIdx) != len(e.vals) {
		return corruptf("csc: %d indices vs %d values", len(e.rowIdx), len(e.vals))
	}
	if int(e.offsets[e.p-1]) != len(e.vals) {
		return corruptf("csc: final offset %d vs %d values", e.offsets[e.p-1], len(e.vals))
	}
	t.Reset(e.p)
	prev := int32(0)
	for j := 0; j < e.p; j++ {
		if e.offsets[j] < prev {
			return corruptf("csc: offsets decrease at column %d", j)
		}
		if int(e.offsets[j]) > len(e.vals) {
			return corruptf("csc: offset %d at column %d exceeds %d values", e.offsets[j], j, len(e.vals))
		}
		for k := prev; k < e.offsets[j]; k++ {
			i := e.rowIdx[k]
			if i < 0 || int(i) >= e.p {
				return corruptf("csc: row %d out of range at column %d", i, j)
			}
			t.Set(int(i), j, e.vals[k])
		}
		prev = e.offsets[j]
	}
	return nil
}

// Footprint implements Encoded.
func (e *CSCEnc) Footprint() Footprint {
	useful := len(e.vals) * matrix.BytesPerValue
	idx := len(e.rowIdx)*matrix.BytesPerIndex + len(e.offsets)*matrix.BytesPerOffset
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
