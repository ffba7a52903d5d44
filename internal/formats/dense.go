package formats

import "copernicus/internal/matrix"

// DenseEnc is the uncompressed baseline: all p² values are transmitted in
// row-major order with no metadata. Its σ is 1 by definition (Eq. 1) and
// its bandwidth utilization equals the tile density — transmitted zeros
// are transfer overhead even though they are not metadata in the usual
// sense, which is exactly the inefficiency sparse formats exist to remove.
type DenseEnc struct {
	p   int
	val []float64 // p*p row-major, zeros included
	nnz int
	nzr int
}

func encodeDense(t *matrix.Tile, sl *Slab) *DenseEnc {
	p := t.P
	rp, cols, vals := t.Spans()
	e := slabEnc[DenseEnc](sl, Dense)
	*e = DenseEnc{p: p, nnz: len(vals), nzr: t.NonZeroRows(), val: sl.float64s(p * p)}
	for i := 0; i < p; i++ { // the fresh stream is already zeroed
		row := e.val[i*p : (i+1)*p]
		for k := rp[i]; k < rp[i+1]; k++ {
			row[cols[k]] = vals[k]
		}
	}
	return e
}

// Kind implements Encoded.
func (e *DenseEnc) Kind() Kind { return Dense }

// P implements Encoded.
func (e *DenseEnc) P() int { return e.p }

// Values exposes the row-major payload for the hardware model.
func (e *DenseEnc) Values() []float64 { return e.val }

// DecodeInto implements Encoded.
func (e *DenseEnc) DecodeInto(t *matrix.Tile) error {
	if len(e.val) != e.p*e.p {
		return corruptf("dense: %d values for p=%d", len(e.val), e.p)
	}
	t.Reset(e.p)
	for i := 0; i < e.p; i++ {
		for j := 0; j < e.p; j++ {
			if v := e.val[i*e.p+j]; v != 0 {
				t.Set(i, j, v)
			}
		}
	}
	return nil
}

// Footprint implements Encoded. The p² transmitted words split into the
// nnz useful values and the transmitted zeros, which count against
// utilization as overhead.
func (e *DenseEnc) Footprint() Footprint {
	total := e.p * e.p * matrix.BytesPerValue
	useful := e.nnz * matrix.BytesPerValue
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      total - useful,
		ValueLaneBytes: total,
	}
}

// Stats implements Encoded. Dense performs a dot product for every row.
func (e *DenseEnc) Stats() Stats {
	return Stats{NNZ: e.nnz, NonZeroRows: e.nzr, DotRows: e.p}
}
