package formats

// Executable SpMV kernels: every format walks its own encoded layout to
// compute y += T·x, turning the encoders from cycle-model inputs into a
// runnable sparse library. The traversals mirror what the modelled
// decompressors do — CSR walks row spans, BCSR multiplies dense b×b
// sub-blocks, ELL-family kernels sweep padded rectangles, DIA strides
// stored diagonals, CSC/LIL scatter column-major, COO/DOK scatter tuple
// streams, JDS gathers jagged diagonals through the row permutation —
// so the measured cost of a kernel is the host-CPU analogue of the
// format's modelled decompression behaviour.
//
// Determinism contract (for finite operands):
//
//   - Row-ordered kernels — Dense, CSR, BCSR, ELL, SELL, SELL-C-σ, and
//     the rectangle+spill order of ELL+COO, plus COO's row-major tuples
//     and JDS's per-row ascending diagonals — contribute each output
//     row's products in ascending-column order, so a single tile's
//     result is bit-identical to the reference per-row accumulation
//     (Plan.spmv / CSR.MulVec).
//   - Column- and table-ordered kernels — CSC, LIL, DOK, DIA — add the
//     same products in a different association; results agree with the
//     reference within floating-point reassociation tolerance (the
//     engine's 1e-9 functional check passes for every format).
//
// Stored-work traversal: every sparse kernel visits only the rows,
// columns or slots that hold stored entries. The ELL family, CSC and LIL
// walk encode-time lists of their non-empty rows or columns (CSR's skip
// list generalized), and DIA strides each diagonal only over its
// [lo, hi) extent of non-zeros — the only slots its host copy stores,
// back to back, while the modelled lane keeps all p. Each kernel keeps
// its accumulation order, so on a cleared y with finite x it is
// bit-identical to the full walk it replaced: the only products skipped
// are DIA's zero slots outside the extent, which are ±0, and a sum that
// starts at +0 never becomes -0.
//
// Padded formats still multiply explicitly stored zeros in three places:
// every slot of Dense, the in-block zeros of BCSR, and the zeros inside
// a DIA diagonal's extent. For finite x those products are ±0 and never
// change the sum, but a non-finite operand entry (Inf/NaN) meeting one
// of them propagates where the reference skips it — the documented
// deviation of padded execution from nonzero-only traversal. ELL-family
// padding is never multiplied: a row ends at its first padding slot.

// SpMV implements Encoded: the dense baseline multiplies every stored
// slot row-major. Boundary tiles clamp the walked region to the operand
// and output lengths; the clipped slots are all structural zero padding.
func (e *DenseEnc) SpMV(x, y []float64) {
	p := e.p
	rows := min(p, len(y))
	cols := min(p, len(x))
	for i := 0; i < rows; i++ {
		row := e.val[i*p : i*p+cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] += s
	}
}

// SpMV implements Encoded: the CSR kernel is the reference traversal —
// per-row spans from the cumulative offsets, ascending columns — walked
// through the encode-time skip list, so only non-empty rows are visited
// (on sparse tiles the full p-row offset walk is mostly empty rows). The
// accumulation order per row is unchanged from the full walk, so the
// result is bit-identical to SpMVFullWalk.
func (e *CSREnc) SpMV(x, y []float64) {
	for _, i32 := range e.skip {
		i := int(i32)
		start := int32(0)
		if i > 0 {
			start = e.offsets[i-1]
		}
		end := e.offsets[i]
		s := 0.0
		for k := start; k < end; k++ {
			s += e.vals[k] * x[e.colIdx[k]]
		}
		y[i] += s
	}
}

// SpMVFullWalk is the pre-skip-list CSR traversal: every row's offset is
// read, empty rows included. Kept as the reference the skip-list kernel
// is held bit-identical to, and for the before/after comparison in the
// bench artifact.
func (e *CSREnc) SpMVFullWalk(x, y []float64) {
	start := int32(0)
	for i := 0; i < e.p; i++ {
		end := e.offsets[i]
		if end > start {
			s := 0.0
			for k := start; k < end; k++ {
				s += e.vals[k] * x[e.colIdx[k]]
			}
			y[i] += s
		}
		start = end
	}
}

// SpMV implements Encoded: register-blocked BCSR. Interior tiles with
// the paper's 4×4 blocks run the fixed-size body of spmv4. Boundary
// tiles and the ablation block edges walk each block row's stored b×b
// blocks once per covered output row, with inner loops over the dense
// sub-blocks (explicit zeros included, as the hardware decompressor
// streams them); rows and block columns clipped by the matrix boundary
// hold only padding and are clamped away.
func (e *BCSREnc) SpMV(x, y []float64) {
	b := e.b
	if b == 4 && len(x) >= e.p && len(y) >= e.p {
		e.spmv4(x, y)
		return
	}
	start := int32(0)
	for bi := 0; bi < len(e.offsets); bi++ {
		end := e.offsets[bi]
		if end > start {
			r0 := bi * b
			rmax := min(b, len(y)-r0)
			for r := 0; r < rmax; r++ {
				s := 0.0
				for blk := start; blk < end; blk++ {
					c0 := int(e.colIdx[blk])
					base := int(blk)*b*b + r*b
					for j := 0; j < min(b, len(x)-c0); j++ {
						s += e.vals[base+j] * x[c0+j]
					}
				}
				y[r0+r] += s
			}
		}
		start = end
	}
}

// spmv4 is the 4×4 micro-kernel: one pass over a block row's blocks
// feeds four row accumulators from a block's 16 values and its four
// operand entries, held as fixed-size arrays so the body runs without
// bounds checks. Each accumulator adds its row's products block by
// block, left to right — the general loop's order, so the result is
// bit-identical to it.
func (e *BCSREnc) spmv4(x, y []float64) {
	start := 0
	for bi, end32 := range e.offsets {
		end := int(end32)
		if end == start {
			continue
		}
		var s0, s1, s2, s3 float64
		for blk, c32 := range e.colIdx[start:end] {
			c0 := int(c32)
			xb := (*[4]float64)(x[c0 : c0+4])
			v := (*[16]float64)(e.vals[(start+blk)*16:])
			x0, x1, x2, x3 := xb[0], xb[1], xb[2], xb[3]
			s0 = s0 + v[0]*x0 + v[1]*x1 + v[2]*x2 + v[3]*x3
			s1 = s1 + v[4]*x0 + v[5]*x1 + v[6]*x2 + v[7]*x3
			s2 = s2 + v[8]*x0 + v[9]*x1 + v[10]*x2 + v[11]*x3
			s3 = s3 + v[12]*x0 + v[13]*x1 + v[14]*x2 + v[15]*x3
		}
		yb := (*[4]float64)(y[bi*4:])
		yb[0] += s0
		yb[1] += s1
		yb[2] += s2
		yb[3] += s3
		start = end
	}
}

// SpMV implements Encoded: COO scatters its row-major tuple stream
// (sentinel excluded) element by element.
func (e *COOEnc) SpMV(x, y []float64) {
	for k := 0; k < len(e.vals)-1; k++ {
		y[e.rows[k]] += e.vals[k] * x[e.cols[k]]
	}
}

// SpMV implements Encoded for CSC and LIL: their shared column lists
// scatter column by column — each list multiplies one operand entry into
// its ascending row indices, the executable analogue of LIL's
// per-column BRAM banks (Listing 4), and CSC's orientation mismatch
// (§5.2) shows up as strided output writes. Only the non-empty columns
// of the encode-time skip list are visited.
func (c *colLists) SpMV(x, y []float64) {
	for _, j := range c.skip {
		start, end := c.ColRange(int(j))
		rows, vals := c.rows[start:end], c.vals[start:end]
		vals = vals[:len(rows)]
		xv := x[j]
		for k, i := range rows {
			y[i] += vals[k] * xv
		}
	}
}

// SpMV implements Encoded for ELL, and is the rectangle pass of
// ELL+COO: it sweeps the padded rectangle row by row, visiting only the
// non-empty rows of the encode-time skip list; rows with no entries
// (including boundary padding rows) are never read. A zero-width
// rectangle, which ELL+COO's cap can leave, holds no entry.
func (r *ellRect) SpMV(x, y []float64) {
	w := r.w
	if w == 0 {
		return
	}
	for _, i := range r.skip {
		base := int(i) * w
		y[i] += ellRow(r.idx[base:base+w], r.vals[base:base+w], x)
	}
}

// ellRow sums one left-packed padded row of the ELL family in
// ascending-column order; the first padding slot ends the row.
func ellRow(idx []int32, vals, x []float64) float64 {
	vals = vals[:len(idx)]
	s := 0.0
	for k, j := range idx {
		if j == ellPad {
			break
		}
		s += vals[k] * x[j]
	}
	return s
}

// SpMV implements Encoded: DIA strides every stored diagonal over its
// [lo, hi) row range of non-zeros, the only slots the host stores.
// Slots outside it — out-of-extent padding, and the lane ends clipped by
// a boundary tile's operand and output lengths — hold only zeros in the
// modelled lane and are never read.
func (e *DIAEnc) SpMV(x, y []float64) {
	off := 0
	for k, d32 := range e.diagNo {
		d := int(d32)
		lo, hi := int(e.ext[2*k]), int(e.ext[2*k+1])
		lane := e.lanes[off : off+hi-lo]
		off += hi - lo
		xs := x[lo+d : hi+d]
		xs = xs[:len(lane)]
		ys := y[lo:hi]
		ys = ys[:len(lane)]
		for i, v := range lane {
			ys[i] += v * xs[i]
		}
	}
}

// SpMV implements Encoded: DOK scans the whole hash table, scattering
// every occupied slot — the full-table sweep the paper equates with
// COO's scan, in the table's probe order.
func (e *DOKEnc) SpMV(x, y []float64) {
	for s, key := range e.keys {
		if key == dokEmpty {
			continue
		}
		i, j := dokUnpack(key)
		y[i] += e.vals[s] * x[j]
	}
}

// SpMV implements Encoded for SELL and SELL-C-σ: it sweeps each slice's
// private rectangle, so short slices pay only their own width, visiting
// only the non-empty rows of the encode-time (position, rectangle
// offset) skip list. SELL-C-σ adds each row's sum to the output row its
// σ-window permutation names; SELL's perm is nil, and its positions are
// its rows. The loop reads s.perm rather than a copy hoisted out of it:
// the hoisted slice header spilled the loop's registers and ran about
// 15% slower on BenchmarkKernel (2-vCPU Xeon, Go 1.24).
func (s *sliced) SpMV(x, y []float64) {
	for n := 0; n+1 < len(s.skip); n += 2 {
		r, rb := s.skip[n], int(s.skip[n+1])
		w := sliceWidth(s.widths, r, s.c)
		sum := ellRow(s.idx[rb:rb+w], s.vals[rb:rb+w], x)
		if s.perm != nil {
			r = s.perm[r]
		}
		y[r] += sum
	}
}

// sliceWidth returns the rectangle width of the slice holding row (or
// sorted position) r. The 32-bit division is cheaper than the 64-bit
// one, and cheaper than walking the slices alongside the skip list.
func sliceWidth(widths []int32, r int32, c int) int {
	return int(widths[uint32(r)/uint32(c)])
}

// SpMV implements Encoded: the hybrid runs its capped ELL rectangle
// first (each row's leading entries, ascending), then scatters the COO
// spill of the long rows — per output row the products still arrive in
// ascending-column order.
//
// The rectangle pass is ELL's kernel; with a zero-width rectangle every
// entry is spill.
func (e *ELLCOOEnc) SpMV(x, y []float64) {
	e.ellRect.SpMV(x, y)
	vals := e.sval[:len(e.sval)-1]
	rows, cols := e.srow[:len(vals)], e.scol[:len(vals)]
	for k, v := range vals {
		y[rows[k]] += v * x[cols[k]]
	}
}

// SpMV implements Encoded: JDS walks the jagged diagonals — diagonal k
// supplies the k-th nonzero of the first (end-start) permuted rows —
// scattering through the permutation. Each row's products still arrive
// in ascending-column order (its entries live on ascending diagonals).
func (e *JDSEnc) SpMV(x, y []float64) {
	for k := 0; k < len(e.ptr)-1; k++ {
		start, end := int(e.ptr[k]), int(e.ptr[k+1])
		for r := start; r < end; r++ {
			y[e.perm[r-start]] += e.vals[r] * x[e.idx[r]]
		}
	}
}
