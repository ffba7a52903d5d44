package formats

import "copernicus/internal/matrix"

// DIAEnc stores a tile in diagonal form (Fig. 1h, Listing 7): one record
// per non-zero diagonal, holding the diagonal number (0 for the main
// diagonal, negative for diagonals starting on a lower row, positive for
// higher columns) followed by a p-slot lane of values. Slots outside the
// diagonal's extent are padding. The format is ideal for band matrices —
// a pure diagonal tile transfers p values plus a single header word,
// giving near-unit bandwidth utilization — but its decompressor must scan
// every stored diagonal per output row, so scattered non-zeros that open
// many part-empty diagonals hurt twice: padded transfer and long scans.
//
// That p-slot lane is the modelled layout, which Footprint prices. The
// host copy does not pay the padding: it keeps each diagonal's [lo, hi)
// row range of non-zeros in ext and stores only those slots, back to
// back, in lanes, so a resident encoding grows with its stored extents,
// not with diagonals × p.
type DIAEnc struct {
	p      int
	diagNo []int32 // stored diagonal numbers, ascending
	// ext holds each stored diagonal's [lo, hi) row range as a pair: the
	// rows of its first and one past its last non-zero. It is structural
	// — DecodeInto reads and validates it — and lies within the
	// diagonal's in-tile rows [max(0, -d), min(p, p-d)).
	ext []int32
	// lanes holds each diagonal's slots lo..hi-1 back to back, in
	// diagNo order: Σ(hi-lo) values, slot i of diagonal d being the value
	// at (i, i+d).
	lanes []float64
	nnz   int
	nzr   int
}

func encodeDIA(t *matrix.Tile, sl *Slab) *DIAEnc {
	p := t.P
	rp, cols, vals := t.Spans()
	e := slabEnc[DIAEnc](sl, DIA)
	*e = DIAEnc{p: p, nnz: len(vals), nzr: t.NonZeroRows()}
	s := getScratch()
	// Diagonal d = j-i is indexed at d+p-1 in [0, 2p-1). Rows ascend, so
	// a diagonal's first entry fixes lo and its last fixes hi (0 while
	// the diagonal is unseen).
	lo, hi := s.ints(2*p-1), s.ints2(2*p-1)
	for i := 0; i < p; i++ {
		for _, j := range cols[rp[i]:rp[i+1]] {
			d := int(j) - i + p - 1
			if hi[d] == 0 {
				lo[d] = int32(i)
			}
			hi[d] = int32(i + 1)
		}
	}
	nd, n := 0, 0
	for d, h := range hi {
		if h > 0 {
			nd++
			n += int(h - lo[d])
		}
	}
	e.diagNo = sl.int32s(nd)
	e.ext = sl.int32s(2 * nd)
	e.lanes = sl.float64s(n)
	// lo[d] becomes diagonal d's lane base less its lo, so row i's value
	// lands at lanes[lo[d]+i].
	l, base := 0, int32(0)
	for d, h := range hi {
		if h > 0 {
			e.diagNo[l] = int32(d - (p - 1))
			e.ext[2*l], e.ext[2*l+1] = lo[d], h
			l++
			lo[d], base = base-lo[d], base+h-lo[d]
		}
	}
	for i := 0; i < p; i++ {
		for k := rp[i]; k < rp[i+1]; k++ {
			e.lanes[int(lo[int(cols[k])-i+p-1])+i] = vals[k]
		}
	}
	putScratch(s)
	return e
}

// Kind implements Encoded.
func (e *DIAEnc) Kind() Kind { return DIA }

// P implements Encoded.
func (e *DIAEnc) P() int { return e.p }

// Diagonals returns the number of stored diagonals.
func (e *DIAEnc) Diagonals() int { return len(e.diagNo) }

// DiagNo exposes the stored diagonal numbers for the hardware model.
func (e *DIAEnc) DiagNo() []int32 { return e.diagNo }

// Lane returns the modelled p-slot value lane of stored diagonal k (slot
// i holds the value at tile position (i, i+d)) as a fresh padded copy of
// its stored extent.
func (e *DIAEnc) Lane(k int) []float64 {
	off := 0
	for i := 0; i < k; i++ {
		off += int(e.ext[2*i+1] - e.ext[2*i])
	}
	lo, hi := int(e.ext[2*k]), int(e.ext[2*k+1])
	lane := make([]float64, e.p)
	copy(lane[lo:hi], e.lanes[off:off+hi-lo])
	return lane
}

// DecodeInto implements Encoded. Each diagonal's extent must be
// non-empty and lie within its in-tile rows, and the extents must
// account for every lane slot.
func (e *DIAEnc) DecodeInto(t *matrix.Tile) error {
	if len(e.ext) != 2*len(e.diagNo) {
		return corruptf("dia: %d extent bounds for %d diagonals", len(e.ext), len(e.diagNo))
	}
	t.Reset(e.p)
	off := 0
	for k, d32 := range e.diagNo {
		d := int(d32)
		if d <= -e.p || d >= e.p {
			return corruptf("dia: diagonal number %d out of range", d)
		}
		if k > 0 && e.diagNo[k-1] >= d32 {
			return corruptf("dia: diagonal numbers not ascending at %d", k)
		}
		lo, hi := int(e.ext[2*k]), int(e.ext[2*k+1])
		if lo >= hi {
			return corruptf("dia: empty extent [%d, %d) on diagonal %d", lo, hi, d)
		}
		if lo < max(0, -d) || hi > min(e.p, e.p-d) {
			return corruptf("dia: extent [%d, %d) outside diagonal %d", lo, hi, d)
		}
		if off+hi-lo > len(e.lanes) {
			return corruptf("dia: %d lane slots for extents past %d", len(e.lanes), off)
		}
		for i, v := range e.lanes[off : off+hi-lo] {
			if v != 0 {
				t.Set(lo+i, lo+i+d, v)
			}
		}
		off += hi - lo
	}
	if off != len(e.lanes) {
		return corruptf("dia: %d lane slots for %d extent slots", len(e.lanes), off)
	}
	return nil
}

// Footprint implements Encoded. Every stored diagonal transfers p value
// slots plus its header word; in-band zeros and out-of-extent padding are
// metadata, as is the header (the paper's "slight difference" that keeps
// even a pure diagonal matrix just under full utilization). The modelled
// lane is p slots whatever extent the host stores.
func (e *DIAEnc) Footprint() Footprint {
	useful := e.nnz * matrix.BytesPerValue
	valueLane := len(e.diagNo) * e.p * matrix.BytesPerValue
	idxLane := len(e.diagNo) * matrix.BytesPerIndex
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      idxLane + (valueLane - useful),
		ValueLaneBytes: valueLane,
		IndexLaneBytes: idxLane,
	}
}

// Stats implements Encoded.
func (e *DIAEnc) Stats() Stats {
	return Stats{NNZ: e.nnz, NonZeroRows: e.nzr, DotRows: e.nzr, Diagonals: len(e.diagNo)}
}
