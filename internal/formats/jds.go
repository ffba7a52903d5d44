package formats

import (
	"copernicus/internal/matrix"
)

// JDSEnc stores a tile in jagged-diagonal-storage form (§2): rows are
// permuted by descending non-zero count, and the k-th non-zeros of all
// rows long enough to have one are stored contiguously as the k-th jagged
// diagonal. The permutation removes ELL's padding entirely at the cost of
// a p-entry permutation vector and per-diagonal start pointers — the
// classic vector-machine format. Extension format; the paper describes it
// but measures plain ELL.
type JDSEnc struct {
	p    int
	perm []int32 // perm[r] = original row stored at sorted position r
	ptr  []int32 // len W+1, start of each jagged diagonal in idx/vals
	idx  []int32 // len nnz, column indices
	vals []float64
	nzr  int
}

func encodeJDS(t *matrix.Tile, sl *Slab) *JDSEnc {
	p := t.P
	rp, cols, vals := t.Spans()
	nnz := len(vals)
	e := slabEnc[JDSEnc](sl, JDS)
	*e = JDSEnc{p: p, nzr: t.NonZeroRows()}
	e.perm = sl.int32s(p)
	// Stable counting sort of rows by descending non-zero count —
	// identical ordering to a stable comparison sort, in O(p).
	s := getScratch()
	cnt := s.ints(p + 1)
	for i := 0; i < p; i++ {
		cnt[rp[i+1]-rp[i]]++
	}
	pos := s.ints2(p + 1) // first sorted position of each count bucket
	running := int32(0)
	for c := p; c >= 0; c-- {
		pos[c] = running
		running += cnt[c]
	}
	for i := 0; i < p; i++ {
		c := rp[i+1] - rp[i]
		e.perm[pos[c]] = int32(i)
		pos[c]++
	}
	putScratch(s)
	w := 0
	if p > 0 {
		i := e.perm[0]
		w = int(rp[i+1] - rp[i])
	}
	// The sparse row spans are already the compacted rows; jagged
	// diagonal k gathers the k-th entry of every row long enough.
	e.ptr = sl.int32s(w + 1)
	e.idx = sl.int32s(nnz)
	e.vals = sl.float64s(nnz)
	cur := 0
	for k := int32(0); k < int32(w); k++ {
		e.ptr[k] = int32(cur)
		for _, i := range e.perm {
			at := rp[i] + k
			if at >= rp[i+1] {
				break // rows are sorted by descending length
			}
			e.idx[cur] = cols[at]
			e.vals[cur] = vals[at]
			cur++
		}
	}
	e.ptr[w] = int32(cur)
	return e
}

// Kind implements Encoded.
func (e *JDSEnc) Kind() Kind { return JDS }

// P implements Encoded.
func (e *JDSEnc) P() int { return e.p }

// Width returns the number of jagged diagonals (the longest row's nnz).
func (e *JDSEnc) Width() int { return len(e.ptr) - 1 }

// DecodeInto implements Encoded.
func (e *JDSEnc) DecodeInto(t *matrix.Tile) error {
	if err := checkPerm("jds", e.perm, e.p); err != nil {
		return err
	}
	if len(e.ptr) == 0 || int(e.ptr[len(e.ptr)-1]) != len(e.vals) || len(e.idx) != len(e.vals) {
		return corruptf("jds: pointer/stream inconsistency")
	}
	t.Reset(e.p)
	for k := 0; k < e.Width(); k++ {
		start, end := int(e.ptr[k]), int(e.ptr[k+1])
		if start > end || end > len(e.vals) {
			return corruptf("jds: diagonal %d range [%d,%d) invalid", k, start, end)
		}
		if end-start > e.p {
			return corruptf("jds: diagonal %d supplies %d rows for p=%d", k, end-start, e.p)
		}
		// Jagged diagonal k supplies the k-th non-zero of the first
		// (end-start) sorted rows.
		for r := 0; r < end-start; r++ {
			j := e.idx[start+r]
			if j < 0 || int(j) >= e.p {
				return corruptf("jds: column %d out of range on diagonal %d", j, k)
			}
			if e.vals[start+r] == 0 {
				return corruptf("jds: explicit zero on diagonal %d", k)
			}
			t.Set(int(e.perm[r]), int(j), e.vals[start+r])
		}
	}
	return nil
}

// Footprint implements Encoded. No padding travels, but the permutation
// and diagonal pointers do.
func (e *JDSEnc) Footprint() Footprint {
	useful := len(e.vals) * matrix.BytesPerValue
	valueLane := useful
	idxLane := len(e.idx)*matrix.BytesPerIndex + len(e.perm)*matrix.BytesPerIndex +
		len(e.ptr)*matrix.BytesPerOffset
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      idxLane,
		ValueLaneBytes: valueLane,
		IndexLaneBytes: idxLane,
	}
}

// Stats implements Encoded. JDS skips all-zero rows (they sort to the
// bottom and no jagged diagonal reaches them).
func (e *JDSEnc) Stats() Stats {
	return Stats{NNZ: len(e.vals), NonZeroRows: e.nzr, DotRows: e.nzr,
		Width: e.Width(), Slices: e.Width()}
}
