package formats

import (
	"math"

	"copernicus/internal/matrix"
)

// Matches reports whether e is a valid encoding of exactly t's entries:
// true only when e.DecodeInto would succeed and the decoded tile would
// hold the same entries as t (matrix.Tile.SameEntries). It compares e's
// streams directly against t's sealed CSR arrays (Tile.Spans), with no
// decoded tile and no seal, for nine formats: the six whose streams run
// in row-major or block-row-major order (Dense, CSR, BCSR, COO, ELL and
// SELL), the column lists of CSC and LIL, walked with one cursor per
// column, and DIA, whose lanes it finds through a table indexed by
// diagonal. Each of them checks everything its DecodeInto checks: stream
// lengths and the COO sentinel; offsets that never decrease and stay
// within the stream; a CSR skip list and non-empty row count that name
// exactly the rows whose offsets advance; BCSR block columns that are
// aligned, in range and strictly ascending; ELL-family rows that are
// left-packed with padding slots holding 0; column-list rows that
// strictly ascend; DIA diagonal numbers that are in range and ascending,
// with non-empty extents inside their diagonals that account for every
// lane slot. Every stored value must be non-zero and equal t's (NaN
// equals NaN): a stored 0 or -0 never matches, because a decode drops it
// (or, in a column list, rejects it).
//
// Matches is a sufficient test, not a diagnosis. It is false whenever it
// cannot prove the round trip — for the other four formats (JDS,
// SELL-C-σ, ELL+COO and DOK), and for a stream that might still decode to
// t by another route (say, an explicit zero beside t's entries) — so a
// caller that gets false decodes to learn whether and where the encoding
// is wrong.
func Matches(e Encoded, t *matrix.Tile) bool {
	if e.P() != t.P {
		return false
	}
	rp, cols, vals := t.Spans()
	switch e := e.(type) {
	case *DenseEnc:
		return e.matches(rp, cols, vals)
	case *CSREnc:
		return e.matches(rp, cols, vals)
	case *BCSREnc:
		return e.matches(rp, cols, vals)
	case *COOEnc:
		return e.matches(rp, cols, vals)
	case *ELLEnc:
		return e.matches(rp, cols, vals)
	case *SELLEnc:
		return e.matches(rp, cols, vals)
	case *CSCEnc:
		return e.matches(rp, cols, vals)
	case *LILEnc:
		return e.matches(rp, cols, vals)
	case *DIAEnc:
		return e.matches(rp, cols, vals)
	}
	return false
}

// sameValue reports whether a stored value v decodes to the tile value
// w: v must be non-zero, since a decode drops a stored 0 or -0, and equal
// to w, NaN equal to NaN.
func sameValue(v, w float64) bool {
	return v != 0 && (v == w || math.IsNaN(v) && math.IsNaN(w))
}

// matches checks that the p² row-major slots hold as many non-zeros as
// the tile has entries, and that each entry's slot holds its value: then
// the non-zero slots are exactly the entries'.
func (e *DenseEnc) matches(rp, cols []int32, vals []float64) bool {
	p := e.p
	if len(e.val) != p*p || nonZeros(e.val) != len(vals) {
		return false
	}
	for i := 0; i < p; i++ {
		prev := int32(-1)
		for k := rp[i]; k < rp[i+1]; k++ {
			j := cols[k]
			if j <= prev || int(j) >= p || !sameValue(e.val[i*p+int(j)], vals[k]) {
				return false
			}
			prev = j
		}
	}
	return true
}

// nonZeros counts the slots of s a decode keeps: NaN counts, 0 and -0 do
// not.
func nonZeros(s []float64) int {
	n := 0
	for _, v := range s {
		if v != 0 {
			n++
		}
	}
	return n
}

// matches compares the offsets with the tile's row pointers, and the
// skip list and nzr with the rows whose pointers advance, then the index
// and value streams with its columns and values in one flat pass.
// The tile's columns must ascend strictly within each row, as a decode's
// seal leaves them (a tile read from a CSR that repeats a column cannot
// round-trip), so a column that does not exceed its predecessor must
// start a row; the row cursor moves only at those descents.
func (e *CSREnc) matches(rp, cols []int32, vals []float64) bool {
	n := len(vals)
	if len(e.offsets) != e.p || len(e.colIdx) != n || len(e.vals) != n {
		return false
	}
	for i, off := range e.offsets {
		if off != rp[i+1] {
			return false
		}
	}
	if !e.derivedOK() {
		return false
	}
	row := 0
	for k, j := range cols {
		if e.colIdx[k] != j || uint32(j) >= uint32(e.p) || !sameValue(e.vals[k], vals[k]) {
			return false
		}
		if k > 0 && j <= cols[k-1] {
			for rp[row] < int32(k) {
				row++
			}
			if rp[row] != int32(k) {
				return false
			}
		}
	}
	return true
}

// matches is CSR's flat compare of the column and value streams with the
// row stream in place of the offsets: each tuple's row must be the tile
// row whose span holds it. Then the sentinel tuple.
func (e *COOEnc) matches(rp, cols []int32, vals []float64) bool {
	n := len(vals)
	if len(e.rows) != n+1 || len(e.cols) != n+1 || len(e.vals) != n+1 || e.rows[n] != cooSentinel {
		return false
	}
	for k, j := range cols {
		r := e.rows[k]
		if uint32(r) >= uint32(e.p) || int32(k) < rp[r] || int32(k) >= rp[r+1] {
			return false
		}
		if e.cols[k] != j || uint32(j) >= uint32(e.p) || !sameValue(e.vals[k], vals[k]) ||
			int32(k) > rp[r] && j <= cols[k-1] {
			return false
		}
	}
	return true
}

// matches checks the block streams, counts the stored non-zeros against
// the tile's entries, and finds each entry's slot: in its block row, the
// stored block covering its column, walked in ascending block-column
// order with a cursor per tile row.
func (e *BCSREnc) matches(rp, cols []int32, vals []float64) bool {
	b := e.b
	if b <= 0 || e.p%b != 0 {
		return false
	}
	nb := e.p / b
	if len(e.offsets) != nb || len(e.vals) != len(e.colIdx)*b*b || int(e.offsets[nb-1]) != len(e.colIdx) ||
		nonZeros(e.vals) != len(vals) {
		return false
	}
	start := int32(0)
	for bi, end := range e.offsets {
		if end < start || int(end) > len(e.colIdx) {
			return false
		}
		prev := int32(-1)
		for _, c0 := range e.colIdx[start:end] {
			if c0 <= prev || c0%int32(b) != 0 || int(c0)+b > e.p {
				return false
			}
			prev = c0
		}
		for r := 0; r < b; r++ {
			i, blk, prev := bi*b+r, start, int32(-1)
			for k := rp[i]; k < rp[i+1]; k++ {
				j := cols[k]
				for blk < end && e.colIdx[blk]+int32(b) <= j {
					blk++
				}
				if j <= prev || blk == end || j < e.colIdx[blk] ||
					!sameValue(e.vals[int(blk)*b*b+r*b+int(j-e.colIdx[blk])], vals[k]) {
					return false
				}
				prev = j
			}
		}
		start = end
	}
	return true
}

// matches walks the p×w rectangle against the tile rows.
func (e *ELLEnc) matches(rp, cols []int32, vals []float64) bool {
	if len(e.idx) != e.p*e.w || len(e.vals) != e.p*e.w {
		return false
	}
	return ellRowsMatch(e.idx, e.vals, 0, e.w, 0, e.p, rp, cols, vals, e.p)
}

// matches walks each slice's c×w rectangle against the slice's tile rows;
// the rectangles must fill the streams exactly.
func (e *SELLEnc) matches(rp, cols []int32, vals []float64) bool {
	c := e.c
	if c <= 0 || e.p%c != 0 || len(e.widths) != e.p/c || len(e.idx) != len(e.vals) {
		return false
	}
	base := 0
	for s, w32 := range e.widths {
		w := int(w32)
		if w < 0 || w > e.p || base+c*w > len(e.idx) || !ellRowsMatch(e.idx, e.vals, base, w, s*c, c, rp, cols, vals, e.p) {
			return false
		}
		base += c * w
	}
	return base == len(e.idx)
}

// ellRowsMatch reports whether the w-wide rectangle rows from slot base
// on hold the tile rows i0, …, i0+h-1 left-packed: each row's entries,
// in order, in its first slots, then padding slots that hold 0 (or -0).
func ellRowsMatch(idx []int32, sv []float64, base, w, i0, h int, rp, cols []int32, vals []float64, p int) bool {
	for i := i0; i < i0+h; i++ {
		lo, hi := rp[i], rp[i+1]
		if int(hi-lo) > w {
			return false
		}
		at := base + (i-i0)*w - int(lo) // entry k's slot is at+k
		prev := int32(-1)
		for k := lo; k < hi; k++ {
			j := cols[k]
			if j <= prev || int(j) >= p || idx[at+int(k)] != j || !sameValue(sv[at+int(k)], vals[k]) {
				return false
			}
			prev = j
		}
		for s := at + int(hi); s < at+int(lo)+w; s++ {
			if idx[s] != ellPad || sv[s] != 0 {
				return false
			}
		}
	}
	return true
}

// matches walks the tile row-major with one cursor per column: a
// row-major walk meets each column's entries in ascending row order,
// which is the order the lists store them, so entry (i, j) must be the
// next slot of column j's list, holding row i and its value. The tile's
// columns must strictly ascend within each row, so no row repeats in a
// list. The walk consumes one slot per entry from lists that hold as many
// slots as the tile has entries, so it consumes every slot: O(nnz + p),
// with the cursors in pooled scratch.
func (c *colLists) matches(rp, cols []int32, vals []float64) bool {
	p, n := c.p, len(vals)
	if len(c.offsets) != p || len(c.rows) != n || len(c.vals) != n || int(c.offsets[p-1]) != n {
		return false
	}
	s := getScratch()
	defer putScratch(s)
	cur := s.ints(p) // column j's next slot
	start := int32(0)
	for j, end := range c.offsets {
		if end < start || int(end) > n {
			return false
		}
		cur[j] = start
		start = end
	}
	for i := 0; i < p; i++ {
		prev := int32(-1)
		for k := rp[i]; k < rp[i+1]; k++ {
			j := cols[k]
			if j <= prev || int(j) >= p {
				return false
			}
			at := cur[j]
			if at >= c.offsets[j] || c.rows[at] != int32(i) || !sameValue(c.vals[at], vals[k]) {
				return false
			}
			cur[j] = at + 1
			prev = j
		}
	}
	return true
}

// matches validates the diagonal numbers and extents as DecodeInto does,
// counts the stored non-zeros against the tile's entries, and finds each
// entry's slot in its diagonal's lane through a 2p-1 table, indexed by
// diagonal number plus p-1, that holds each stored diagonal's lane base
// less its lo, its lo and its hi (hi 0 for a diagonal not stored). The
// table lives in pooled scratch.
func (e *DIAEnc) matches(rp, cols []int32, vals []float64) bool {
	p := e.p
	if len(e.ext) != 2*len(e.diagNo) || nonZeros(e.lanes) != len(vals) {
		return false
	}
	s := getScratch()
	defer putScratch(s)
	tbl := s.ints(3 * (2*p - 1))
	off := 0
	for k, d := range e.diagNo {
		if d <= -int32(p) || d >= int32(p) || k > 0 && e.diagNo[k-1] >= d {
			return false
		}
		lo, hi := e.ext[2*k], e.ext[2*k+1]
		if lo >= hi || lo < max(0, -d) || hi > min(int32(p), int32(p)-d) || off+int(hi-lo) > len(e.lanes) {
			return false
		}
		at := 3 * (d + int32(p) - 1)
		tbl[at], tbl[at+1], tbl[at+2] = int32(off)-lo, lo, hi
		off += int(hi - lo)
	}
	if off != len(e.lanes) {
		return false
	}
	for i := 0; i < p; i++ {
		prev := int32(-1)
		for k := rp[i]; k < rp[i+1]; k++ {
			j := cols[k]
			if j <= prev || int(j) >= p {
				return false
			}
			at := 3 * (j - int32(i) + int32(p) - 1)
			if int32(i) < tbl[at+1] || int32(i) >= tbl[at+2] || !sameValue(e.lanes[tbl[at]+int32(i)], vals[k]) {
				return false
			}
			prev = j
		}
	}
	return true
}
