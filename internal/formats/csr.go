package formats

import "copernicus/internal/matrix"

// CSREnc stores a tile in compressed-sparse-row form (Fig. 1b, Listing 1):
// a cumulative offsets array (one entry per row, first element absolute,
// as the paper notes to save the leading zero), column indices, and
// values. Decompression needs one extra offsets read per row before it
// knows how many index/value reads follow, and those reads are sequential
// — the structural facts behind CSR's compute-bound behaviour in §5.2.
type CSREnc struct {
	p       int
	offsets []int32 // len p, cumulative nnz through each row
	colIdx  []int32 // len nnz
	vals    []float64
	nzr     int
	// skip lists the non-empty row indices, built once at encode time so
	// the executable kernel visits only rows with work instead of walking
	// all p offsets per tile — on sparse tiles most rows are empty. It is
	// derived acceleration metadata for the host kernel, not part of the
	// format's wire layout: Footprint and Stats exclude it, and decoding
	// reconstructs the tile from the offsets alone. Because the kernel
	// walks skip and Stats reports nzr, DecodeInto and Matches reject an
	// encoding whose skip is not exactly the rows whose offsets advance,
	// ascending, or whose nzr is not their count.
	skip []int32
}

func encodeCSR(t *matrix.Tile, sl *Slab) *CSREnc {
	rp, cols, vals := t.Spans()
	nnz, nzr := len(vals), t.NonZeroRows()
	e := slabEnc[CSREnc](sl, CSR)
	*e = CSREnc{p: t.P, offsets: sl.int32s(t.P), nzr: nzr,
		colIdx: sl.int32s(nnz), vals: sl.float64s(nnz), skip: sl.int32s(nzr)}
	copy(e.offsets, rp[1:])
	copy(e.colIdx, cols)
	copy(e.vals, vals)
	r := 0
	for i, end := range e.offsets {
		if end > rp[i] {
			e.skip[r] = int32(i)
			r++
		}
	}
	return e
}

// Kind implements Encoded.
func (e *CSREnc) Kind() Kind { return CSR }

// P implements Encoded.
func (e *CSREnc) P() int { return e.p }

// ColIdx exposes the column indices for the hardware model.
func (e *CSREnc) ColIdx() []int32 { return e.colIdx }

// Values exposes the non-zero values for the hardware model.
func (e *CSREnc) Values() []float64 { return e.vals }

// RowRange returns the [start, end) slice of the index/value streams for
// row i, mirroring Listing 1's offsets arithmetic.
func (e *CSREnc) RowRange(i int) (start, end int32) {
	if i > 0 {
		start = e.offsets[i-1]
	}
	return start, e.offsets[i]
}

// DecodeInto implements Encoded. Each row's columns must strictly ascend
// and hold no stored zero, since the kernel multiplies every stored
// entry: a repeated column would add its products twice where the
// decoded tile keeps the last write, and a stored zero meeting a
// non-finite operand entry would make a NaN the decoded tile does not
// hold. The derived skip list and nzr must agree with the offsets,
// since the kernel visits only the rows skip names and Stats prices nzr.
func (e *CSREnc) DecodeInto(t *matrix.Tile) error {
	if len(e.offsets) != e.p {
		return corruptf("csr: %d offsets for p=%d", len(e.offsets), e.p)
	}
	if len(e.colIdx) != len(e.vals) {
		return corruptf("csr: %d indices vs %d values", len(e.colIdx), len(e.vals))
	}
	if int(e.offsets[e.p-1]) != len(e.vals) {
		return corruptf("csr: final offset %d vs %d values", e.offsets[e.p-1], len(e.vals))
	}
	t.Reset(e.p)
	prev := int32(0)
	for i := 0; i < e.p; i++ {
		if e.offsets[i] < prev {
			return corruptf("csr: offsets decrease at row %d", i)
		}
		if int(e.offsets[i]) > len(e.vals) {
			return corruptf("csr: offset %d at row %d exceeds %d values", e.offsets[i], i, len(e.vals))
		}
		for k := prev; k < e.offsets[i]; k++ {
			j := e.colIdx[k]
			if j < 0 || int(j) >= e.p {
				return corruptf("csr: column %d out of range at row %d", j, i)
			}
			if k > prev && e.colIdx[k-1] >= j {
				return corruptf("csr: columns not ascending at row %d", i)
			}
			if e.vals[k] == 0 {
				return corruptf("csr: explicit zero at row %d", i)
			}
			t.Set(i, int(j), e.vals[k])
		}
		prev = e.offsets[i]
	}
	if !e.derivedOK() {
		return corruptf("csr: skip list of %d rows or nzr %d disagrees with the offsets", len(e.skip), e.nzr)
	}
	return nil
}

// derivedOK reports whether skip lists exactly the rows whose offsets
// advance, ascending, and nzr counts them. The offsets must not
// decrease.
func (e *CSREnc) derivedOK() bool {
	r, prev := 0, int32(0)
	for i, off := range e.offsets {
		if off > prev {
			if r >= len(e.skip) || e.skip[r] != int32(i) {
				return false
			}
			r++
		}
		prev = off
	}
	return r == len(e.skip) && r == e.nzr
}

// Footprint implements Encoded. Values ride the value lane; column indices
// and offsets ride the index lane — the paper's two parallel streamlines.
func (e *CSREnc) Footprint() Footprint {
	useful := len(e.vals) * matrix.BytesPerValue
	idx := len(e.colIdx)*matrix.BytesPerIndex + len(e.offsets)*matrix.BytesPerOffset
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      idx,
		ValueLaneBytes: useful,
		IndexLaneBytes: idx,
	}
}

// Stats implements Encoded.
func (e *CSREnc) Stats() Stats {
	return Stats{NNZ: len(e.vals), NonZeroRows: e.nzr, DotRows: e.nzr}
}
