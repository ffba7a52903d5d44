package formats

import "copernicus/internal/matrix"

// COOEnc stores a tile as (row, column, value) tuples in row-major order,
// terminated by a sentinel tuple whose row index is the out-of-band
// "inf" marker of Listing 6. Two index words accompany every value, which
// pins memory-bandwidth utilization at ~1/3 regardless of sparsity — the
// constant the paper calls out in §6.3.
type COOEnc struct {
	p    int
	rows []int32 // len nnz+1 including sentinel
	cols []int32
	vals []float64
	nzr  int
}

// cooSentinel marks the end of the tuple stream (Listing 6's "inf").
const cooSentinel = int32(-1)

func encodeCOO(t *matrix.Tile, sl *Slab) *COOEnc {
	rp, cols, vals := t.Spans()
	nnz := len(vals)
	e := slabEnc[COOEnc](sl, COO)
	*e = COOEnc{p: t.P, nzr: t.NonZeroRows(),
		rows: sl.int32s(nnz + 1), cols: sl.int32s(nnz + 1), vals: sl.float64s(nnz + 1)}
	copy(e.cols, cols)
	copy(e.vals, vals)
	for i := 0; i < t.P; i++ {
		for k := rp[i]; k < rp[i+1]; k++ {
			e.rows[k] = int32(i)
		}
	}
	e.rows[nnz], e.cols[nnz] = cooSentinel, cooSentinel
	return e
}

// Kind implements Encoded.
func (e *COOEnc) Kind() Kind { return COO }

// P implements Encoded.
func (e *COOEnc) P() int { return e.p }

// Tuples returns the tuple count excluding the sentinel.
func (e *COOEnc) Tuples() int { return len(e.vals) - 1 }

// Rows exposes the row-index stream (sentinel included).
func (e *COOEnc) Rows() []int32 { return e.rows }

// Cols exposes the column-index stream (sentinel included).
func (e *COOEnc) Cols() []int32 { return e.cols }

// Values exposes the value stream (sentinel included).
func (e *COOEnc) Values() []float64 { return e.vals }

// DecodeInto implements Encoded. Tuples must strictly ascend in
// row-major (row, column) order, as the encoder writes them, since the
// kernel adds every stored product: a repeated coordinate would count
// twice where the decoded tile keeps the last write.
func (e *COOEnc) DecodeInto(t *matrix.Tile) error {
	if len(e.rows) != len(e.cols) || len(e.rows) != len(e.vals) {
		return corruptf("coo: stream lengths differ: %d/%d/%d", len(e.rows), len(e.cols), len(e.vals))
	}
	if len(e.rows) == 0 || e.rows[len(e.rows)-1] != cooSentinel {
		return corruptf("coo: missing sentinel tuple")
	}
	t.Reset(e.p)
	for k := 0; k < len(e.rows)-1; k++ {
		i, j := e.rows[k], e.cols[k]
		if i < 0 || int(i) >= e.p || j < 0 || int(j) >= e.p {
			return corruptf("coo: tuple %d at (%d,%d) out of range", k, i, j)
		}
		if k > 0 && !tupleLess(e.rows[k-1], e.cols[k-1], i, j) {
			return corruptf("coo: tuple %d not ascending", k)
		}
		if e.vals[k] == 0 {
			return corruptf("coo: tuple %d stores explicit zero", k)
		}
		t.Set(int(i), int(j), e.vals[k])
	}
	return nil
}

// tupleLess reports whether (i0, j0) precedes (i1, j1) in row-major order.
func tupleLess(i0, j0, i1, j1 int32) bool { return i0 < i1 || i0 == i1 && j0 < j1 }

// Footprint implements Encoded. Only real tuples travel — the AXI burst
// length already delimits the stream, and the decompressor synthesizes
// the Listing 6 sentinel locally — so utilization is exactly 1/3 at any
// density, the constant §6.3 reports.
func (e *COOEnc) Footprint() Footprint {
	nnz := e.Tuples()
	useful := nnz * matrix.BytesPerValue
	idxLane := 2 * nnz * matrix.BytesPerIndex
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      idxLane,
		ValueLaneBytes: useful,
		IndexLaneBytes: idxLane,
	}
}

// Stats implements Encoded.
func (e *COOEnc) Stats() Stats {
	return Stats{NNZ: e.Tuples(), NonZeroRows: e.nzr, DotRows: e.nzr}
}
