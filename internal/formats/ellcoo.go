package formats

import "copernicus/internal/matrix"

// ELLCOOEnc stores a tile in the hybrid ELL+COO form (§2): an ELL
// rectangle capped at width cap holds the first entries of every row, and
// rows longer than the cap spill their excess into a COO tuple list. The
// hybrid bounds ELL's padding explosion on matrices with a few long rows
// — the reason cuSPARSE's HYB format exists. Extension format; the paper
// describes it but measures plain ELL.
type ELLCOOEnc struct {
	p, w int // tile edge and capped rectangle width
	idx  []int32
	vals []float64
	// COO spill, sentinel-terminated like COOEnc.
	srow []int32
	scol []int32
	sval []float64
	nnz  int
	nzr  int
	// skip lists the non-empty rows, ascending — host-kernel metadata
	// like CSREnc.skip: Footprint, Stats and DecodeInto ignore it.
	skip []int32
}

func encodeELLCOO(t *matrix.Tile, cap int, sl *Slab) *ELLCOOEnc {
	w := 0
	for i := 0; i < t.P; i++ {
		if n := t.RowNNZ(i); n > w {
			w = n
		}
	}
	w = min(w, cap)
	spill := 0
	for i := 0; i < t.P; i++ {
		spill += max(t.RowNNZ(i)-w, 0)
	}
	e := slabEnc[ELLCOOEnc](sl, ELLCOO)
	*e = ELLCOOEnc{p: t.P, w: w, nnz: t.NNZ(), nzr: t.NonZeroRows()}
	e.idx = sl.int32s(t.P * w)
	e.vals = sl.float64s(t.P * w)
	for i := range e.idx {
		e.idx[i] = ellPad
	}
	e.srow, e.scol, e.sval = sl.int32s(spill+1), sl.int32s(spill+1), sl.float64s(spill+1)
	e.skip = sl.int32s(e.nzr)
	n, r := 0, 0
	for i := 0; i < t.P; i++ {
		cols, vals := t.RowView(i)
		if len(cols) > 0 {
			e.skip[r] = int32(i)
			r++
		}
		take := min(len(cols), w)
		copy(e.idx[i*w:], cols[:take])
		copy(e.vals[i*w:], vals[:take])
		for k := take; k < len(cols); k++ {
			e.srow[n], e.scol[n], e.sval[n] = int32(i), cols[k], vals[k]
			n++
		}
	}
	e.srow[spill], e.scol[spill] = cooSentinel, cooSentinel
	return e
}

// Kind implements Encoded.
func (e *ELLCOOEnc) Kind() Kind { return ELLCOO }

// P implements Encoded.
func (e *ELLCOOEnc) P() int { return e.p }

// Width returns the capped ELL rectangle width.
func (e *ELLCOOEnc) Width() int { return e.w }

// spill returns the number of COO spill tuples (sentinel excluded).
func (e *ELLCOOEnc) spill() int { return len(e.sval) - 1 }

// DecodeInto implements Encoded.
func (e *ELLCOOEnc) DecodeInto(t *matrix.Tile) error {
	if len(e.idx) != e.p*e.w || len(e.vals) != e.p*e.w {
		return corruptf("ell+coo: rectangle %d/%d for p=%d w=%d", len(e.idx), len(e.vals), e.p, e.w)
	}
	t.Reset(e.p)
	for i := 0; i < e.p; i++ {
		padded := false
		for k := 0; k < e.w; k++ {
			j := e.idx[i*e.w+k]
			if j == ellPad {
				if e.vals[i*e.w+k] != 0 {
					return corruptf("ell+coo: padded slot (%d,%d) holds a value", i, k)
				}
				padded = true
				continue
			}
			if padded {
				return corruptf("ell+coo: entry after padding at row %d slot %d", i, k)
			}
			if j < 0 || int(j) >= e.p {
				return corruptf("ell+coo: column %d out of range at row %d", j, i)
			}
			if e.vals[i*e.w+k] == 0 {
				return corruptf("ell+coo: explicit zero at row %d slot %d", i, k)
			}
			t.Set(i, int(j), e.vals[i*e.w+k])
		}
	}
	if len(e.srow) == 0 || e.srow[len(e.srow)-1] != cooSentinel {
		return corruptf("ell+coo: missing spill sentinel")
	}
	for k := 0; k < len(e.srow)-1; k++ {
		i, j := e.srow[k], e.scol[k]
		if i < 0 || int(i) >= e.p || j < 0 || int(j) >= e.p {
			return corruptf("ell+coo: spill tuple %d out of range", k)
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
