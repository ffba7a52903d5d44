package formats

import "copernicus/internal/matrix"

// SELLCSigmaWindow is the sorting-window height σ of the SELL-C-σ
// extension format: rows are sorted by descending non-zero count only
// within windows of this many rows, bounding how far the permutation
// displaces any row.
const SELLCSigmaWindow = 8

// sliced is the host layout SELL and SELL-C-σ share: the tile's rows, in
// the order perm gives (the tile's own order when perm is nil), cut into
// slices of c rows, each slice a c×w ELL rectangle of its own width w,
// the rectangles back to back in one index and one value stream.
type sliced struct {
	p, c   int     // tile edge and slice height
	perm   []int32 // nil, or perm[r] = original row stored at position r
	widths []int32 // per-slice rectangle width
	idx    []int32 // concatenated slice rectangles, row-major in slice
	vals   []float64
	nnz    int
	nzr    int
	// skip holds one (position, rectangle offset) pair per non-empty
	// row, ascending by position — host-kernel metadata that Footprint,
	// Stats and DecodeInto ignore (CSREnc.skip alone is checked so far).
	skip []int32
}

// encode fills s with t's rows in perm's order (nil for the tile's),
// sliced c rows at a time, carving the streams from sl. It keeps perm.
func (s *sliced) encode(t *matrix.Tile, c int, perm []int32, sl *Slab) {
	if t.P%c != 0 {
		panic("formats: sliced ELL requires p divisible by slice height")
	}
	rp, cols, vals := t.Spans()
	*s = sliced{p: t.P, c: c, perm: perm, nnz: len(vals), nzr: t.NonZeroRows()}
	row := func(r int) int {
		if perm == nil {
			return r
		}
		return int(perm[r])
	}
	s.widths = sl.int32s(t.P / c)
	total := 0
	for n := range s.widths {
		w := int32(0)
		for r := n * c; r < (n+1)*c; r++ {
			i := row(r)
			w = max(w, rp[i+1]-rp[i])
		}
		s.widths[n] = w
		total += c * int(w)
	}
	s.idx = sl.int32s(total)
	s.vals = sl.float64s(total)
	s.skip = sl.int32s(2 * s.nzr)
	for k := range s.idx {
		s.idx[k] = ellPad
	}
	base, n := 0, 0
	for sn, w32 := range s.widths {
		w := int(w32)
		for r := 0; r < c; r++ {
			i := row(sn*c + r)
			lo, hi := rp[i], rp[i+1]
			if hi > lo {
				s.skip[n], s.skip[n+1] = int32(sn*c+r), int32(base+r*w)
				n += 2
			}
			copy(s.idx[base+r*w:], cols[lo:hi])
			copy(s.vals[base+r*w:], vals[lo:hi])
		}
		base += c * w
	}
}

// P implements Encoded.
func (s *sliced) P() int { return s.p }

// width returns the largest slice width.
func (s *sliced) width() int {
	w := int32(0)
	for _, sw := range s.widths {
		w = max(w, sw)
	}
	return int(w)
}

// decode resets t and sets the slices' entries into it, each row at the
// original row its position maps to, with errors prefixed by name. The
// caller has checked perm.
func (s *sliced) decode(t *matrix.Tile, name string) error {
	if len(s.widths) != s.p/s.c {
		return corruptf("%s: %d slices for p=%d c=%d", name, len(s.widths), s.p, s.c)
	}
	t.Reset(s.p)
	base := 0
	for sn, w32 := range s.widths {
		w := int(w32)
		if w < 0 || w > s.p {
			return corruptf("%s: slice %d width %d out of range", name, sn, w)
		}
		if base+s.c*w > len(s.idx) || len(s.idx) != len(s.vals) {
			return corruptf("%s: rectangle overflow at slice %d", name, sn)
		}
		for r := 0; r < s.c; r++ {
			i, at := sn*s.c+r, base+r*w
			if s.perm != nil {
				i = int(s.perm[i])
			}
			if err := decodeELLRow(t, name, i, s.idx[at:at+w], s.vals[at:at+w]); err != nil {
				return err
			}
		}
		base += s.c * w
	}
	if base != len(s.idx) {
		return corruptf("%s: %d trailing rectangle slots", name, len(s.idx)-base)
	}
	return nil
}

// streamBytes is the host bytes of s's streams at their capacities.
func (s *sliced) streamBytes() int64 {
	return capBytes(s.perm, s.widths, s.idx, s.skip) + capBytes(s.vals)
}

// SELLEnc stores a tile in sliced-Ellpack form (§2): rows are cut into
// slices of SELLSlice rows and ELL is applied per slice, so each slice
// pays padding only up to its own longest row instead of the tile-wide
// maximum. One width word per slice is the extra metadata. SELL is an
// extension format: the paper describes it but measures plain ELL.
type SELLEnc struct{ sliced }

func encodeSELL(t *matrix.Tile, c int, sl *Slab) *SELLEnc {
	e := slabEnc[SELLEnc](sl, SELL)
	e.encode(t, c, nil, sl)
	return e
}

// Kind implements Encoded.
func (e *SELLEnc) Kind() Kind { return SELL }

// DecodeInto implements Encoded.
func (e *SELLEnc) DecodeInto(t *matrix.Tile) error { return e.decode(t, "sell") }

// Footprint implements Encoded.
func (e *SELLEnc) Footprint() Footprint {
	useful := e.nnz * matrix.BytesPerValue
	valueLane := len(e.vals) * matrix.BytesPerValue
	idxLane := len(e.idx)*matrix.BytesPerIndex + len(e.widths)*matrix.BytesPerOffset
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      idxLane + (valueLane - useful),
		ValueLaneBytes: valueLane,
		IndexLaneBytes: idxLane,
	}
}

// Stats implements Encoded. Like ELL, SELL processes every row; its gain
// is the smaller transferred rectangle, and Width records the largest
// slice width.
func (e *SELLEnc) Stats() Stats {
	return Stats{NNZ: e.nnz, NonZeroRows: e.nzr, DotRows: e.p, Width: e.width(), Slices: len(e.widths)}
}

// SELLCSEnc stores a tile in SELL-C-σ form (Kreutzer et al., surveyed in
// §2): rows are sorted by length within σ-row windows — taming ELL
// padding like JDS does, but with bounded row displacement so the output
// gather stays local — then sliced ELL is applied with C-row slices. The
// permutation travels as metadata alongside the per-slice widths.
type SELLCSEnc struct{ sliced }

func encodeSELLCS(t *matrix.Tile, c, sigma int, sl *Slab) *SELLCSEnc {
	if t.P%c != 0 || sigma%c != 0 {
		panic("formats: SELL-C-sigma needs p divisible by C and sigma divisible by C")
	}
	e := slabEnc[SELLCSEnc](sl, SELLCS)
	perm := sl.int32s(t.P)
	for i := range perm {
		perm[i] = int32(i)
	}
	// Stable insertion sort by descending nnz within each sigma window
	// (windows are small — σ rows — so this is O(σ) amortized per row and
	// reproduces sort.SliceStable's ordering exactly).
	rp, _, _ := t.Spans()
	nnz := func(i int32) int32 { return rp[i+1] - rp[i] }
	for w := 0; w < t.P; w += sigma {
		end := min(w+sigma, t.P)
		for a := w + 1; a < end; a++ {
			v := perm[a]
			key := nnz(v)
			b := a - 1
			for b >= w && nnz(perm[b]) < key {
				perm[b+1] = perm[b]
				b--
			}
			perm[b+1] = v
		}
	}
	e.encode(t, c, perm, sl)
	return e
}

// Kind implements Encoded.
func (e *SELLCSEnc) Kind() Kind { return SELLCS }

// DecodeInto implements Encoded.
func (e *SELLCSEnc) DecodeInto(t *matrix.Tile) error {
	if err := checkPerm("sell-c-sigma", e.perm, e.p); err != nil {
		return err
	}
	return e.decode(t, "sell-c-sigma")
}

// checkPerm reports, prefixed by name, whether perm is not a permutation
// of [0, p).
func checkPerm(name string, perm []int32, p int) error {
	if len(perm) != p {
		return corruptf("%s: %d perm entries for p=%d", name, len(perm), p)
	}
	sc := getScratch()
	defer putScratch(sc)
	seen := sc.ints(p)
	for _, o := range perm {
		if o < 0 || int(o) >= p || seen[o] != 0 {
			return corruptf("%s: invalid permutation entry %d", name, o)
		}
		seen[o] = 1
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
	return Stats{NNZ: e.nnz, NonZeroRows: e.nzr, DotRows: e.p, Width: e.width(), Slices: len(e.widths)}
}
