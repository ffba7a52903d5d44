package formats

import (
	"copernicus/internal/matrix"
)

// SELLCSigmaWindow is the sorting-window height σ of the SELL-C-σ
// extension format: rows are sorted by descending non-zero count only
// within windows of this many rows, bounding how far the permutation
// displaces any row.
const SELLCSigmaWindow = 8

// SELLCSEnc stores a tile in SELL-C-σ form (Kreutzer et al., surveyed in
// §2): rows are sorted by length within σ-row windows — taming ELL
// padding like JDS does, but with bounded row displacement so the output
// gather stays local — then sliced ELL is applied with C-row slices. The
// permutation travels as metadata alongside the per-slice widths.
type SELLCSEnc struct {
	p, c   int
	perm   []int32 // perm[r] = original row stored at sorted position r
	widths []int32 // per-slice rectangle width
	idx    []int32 // concatenated slice rectangles
	vals   []float64
	nnz    int
	nzr    int
	// skip holds one (sorted position, rectangle offset) pair per
	// non-empty row, ascending by position — host-kernel metadata like
	// CSREnc.skip.
	skip []int32
}

func encodeSELLCS(t *matrix.Tile, c, sigma int, sl *Slab) *SELLCSEnc {
	if t.P%c != 0 || sigma%c != 0 {
		panic("formats: SELL-C-sigma needs p divisible by C and sigma divisible by C")
	}
	e := slabEnc[SELLCSEnc](sl, SELLCS)
	*e = SELLCSEnc{p: t.P, c: c, nnz: t.NNZ(), nzr: t.NonZeroRows()}
	e.perm = sl.int32s(t.P)
	for i := range e.perm {
		e.perm[i] = int32(i)
	}
	// Stable insertion sort by descending nnz within each sigma window
	// (windows are small — σ rows — so this is O(σ) amortized per row and
	// reproduces sort.SliceStable's ordering exactly).
	for w := 0; w < t.P; w += sigma {
		end := min(w+sigma, t.P)
		for a := w + 1; a < end; a++ {
			v := e.perm[a]
			key := t.RowNNZ(int(v))
			b := a - 1
			for b >= w && t.RowNNZ(int(e.perm[b])) < key {
				e.perm[b+1] = e.perm[b]
				b--
			}
			e.perm[b+1] = v
		}
	}
	// Slice the permuted rows and ELL-pack each slice.
	e.widths = sl.int32s(t.P / c)
	total := 0
	for s := range e.widths {
		w := 0
		for r := s * c; r < (s+1)*c; r++ {
			if n := t.RowNNZ(int(e.perm[r])); n > w {
				w = n
			}
		}
		e.widths[s] = int32(w)
		total += c * w
	}
	e.idx = sl.int32s(total)
	e.vals = sl.float64s(total)
	e.skip = sl.int32s(2 * e.nzr)
	for k := range e.idx {
		e.idx[k] = ellPad
	}
	base, n := 0, 0
	for s, w32 := range e.widths {
		w := int(w32)
		for r := 0; r < c; r++ {
			cols, vals := t.RowView(int(e.perm[s*c+r]))
			if len(cols) > 0 {
				e.skip[n], e.skip[n+1] = int32(s*c+r), int32(base+r*w)
				n += 2
			}
			copy(e.idx[base+r*w:], cols)
			copy(e.vals[base+r*w:], vals)
		}
		base += c * w
	}
	return e
}

// Kind implements Encoded.
func (e *SELLCSEnc) Kind() Kind { return SELLCS }

// P implements Encoded.
func (e *SELLCSEnc) P() int { return e.p }

// DecodeInto implements Encoded.
func (e *SELLCSEnc) DecodeInto(t *matrix.Tile) error {
	if len(e.perm) != e.p {
		return corruptf("sell-c-sigma: %d perm entries for p=%d", len(e.perm), e.p)
	}
	sc := getScratch()
	defer putScratch(sc)
	seen := sc.ints(e.p)
	for _, o := range e.perm {
		if o < 0 || int(o) >= e.p || seen[o] != 0 {
			return corruptf("sell-c-sigma: invalid permutation entry %d", o)
		}
		seen[o] = 1
	}
	if len(e.widths) != e.p/e.c {
		return corruptf("sell-c-sigma: %d slices for p=%d c=%d", len(e.widths), e.p, e.c)
	}
	t.Reset(e.p)
	base := 0
	for s, w32 := range e.widths {
		w := int(w32)
		if w < 0 || w > e.p {
			return corruptf("sell-c-sigma: slice %d width %d out of range", s, w)
		}
		if base+e.c*w > len(e.idx) || len(e.idx) != len(e.vals) {
			return corruptf("sell-c-sigma: rectangle overflow at slice %d", s)
		}
		for r := 0; r < e.c; r++ {
			orig := int(e.perm[s*e.c+r])
			padded := false
			for k := 0; k < w; k++ {
				j := e.idx[base+r*w+k]
				if j == ellPad {
					if e.vals[base+r*w+k] != 0 {
						return corruptf("sell-c-sigma: padded slot (%d,%d) in slice %d holds a value", r, k, s)
					}
					padded = true
					continue
				}
				if padded {
					return corruptf("sell-c-sigma: entry after padding in slice %d row %d slot %d", s, r, k)
				}
				if j < 0 || int(j) >= e.p {
					return corruptf("sell-c-sigma: column %d out of range in slice %d", j, s)
				}
				if e.vals[base+r*w+k] == 0 {
					return corruptf("sell-c-sigma: explicit zero in slice %d", s)
				}
				t.Set(orig, int(j), e.vals[base+r*w+k])
			}
		}
		base += e.c * w
	}
	if base != len(e.idx) {
		return corruptf("sell-c-sigma: %d trailing rectangle slots", len(e.idx)-base)
	}
	return nil
}

// Footprint implements Encoded: SELL's streams plus the permutation.
func (e *SELLCSEnc) Footprint() Footprint {
	useful := e.nnz * matrix.BytesPerValue
	valueLane := len(e.vals) * matrix.BytesPerValue
	idxLane := len(e.idx)*matrix.BytesPerIndex +
		len(e.widths)*matrix.BytesPerOffset +
		len(e.perm)*matrix.BytesPerIndex
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      idxLane + (valueLane - useful),
		ValueLaneBytes: valueLane,
		IndexLaneBytes: idxLane,
	}
}

// Stats implements Encoded.
func (e *SELLCSEnc) Stats() Stats {
	maxW := 0
	for _, w := range e.widths {
		if int(w) > maxW {
			maxW = int(w)
		}
	}
	return Stats{NNZ: e.nnz, NonZeroRows: e.nzr, DotRows: e.p, Width: maxW, Slices: len(e.widths)}
}
