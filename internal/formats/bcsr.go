package formats

import "copernicus/internal/matrix"

// BCSREnc stores a tile in block compressed-sparse-row form with b×b
// blocks (Fig. 1c, Listing 2; the paper fixes b=4). Offsets count
// non-zero blocks per block row, indices record the first column of each
// non-zero block, and values hold the flattened blocks — zeros inside a
// non-zero block are stored and transferred explicitly, the format's
// characteristic overhead. In exchange the value/index arrays can be
// partitioned across BRAM banks and read in parallel (the array_partition
// pragmas in Listing 2), making the decompressor fast.
type BCSREnc struct {
	p, b    int
	offsets []int32   // len p/b, cumulative non-zero blocks through each block row
	colIdx  []int32   // len nblocks, first tile-column of each block
	vals    []float64 // nblocks * b*b, block-major, row-major inside a block
	nnz     int
	nzr     int
}

func encodeBCSR(t *matrix.Tile, b int, sl *Slab) *BCSREnc {
	if t.P%b != 0 {
		panic("formats: BCSR requires p divisible by block size")
	}
	nb := t.P / b
	rp, cols, vals := t.Spans()
	e := slabEnc[BCSREnc](sl, BCSR)
	*e = BCSREnc{p: t.P, b: b, offsets: sl.int32s(nb), nnz: len(vals), nzr: t.NonZeroRows()}
	s := getScratch()
	// A counting pass sizes the streams exactly: seen marks the block
	// columns already counted in block row bi with bi+1. Block row bi's
	// entries are the one span rp[bi*b]..rp[(bi+1)*b].
	seen := s.ints2(nb)
	blocks := 0
	for bi := 0; bi < nb; bi++ {
		for _, j := range cols[rp[bi*b]:rp[(bi+1)*b]] {
			if bj := int(j) / b; seen[bj] != int32(bi+1) {
				seen[bj] = int32(bi + 1)
				blocks++
			}
		}
	}
	e.colIdx, e.vals = sl.int32s(blocks), sl.float64s(blocks*b*b)
	blockNNZ := s.ints(nb)        // per block column of the current block row
	stage := s.floats(nb * b * b) // staged b×b blocks, zeros included
	running := int32(0)
	for bi := 0; bi < nb; bi++ {
		minBJ, maxBJ := nb, -1
		for r := 0; r < b; r++ {
			i := bi*b + r
			for k := rp[i]; k < rp[i+1]; k++ {
				j := cols[k]
				bj := int(j) / b
				blockNNZ[bj]++
				stage[bj*b*b+r*b+int(j)-bj*b] = vals[k]
				if bj < minBJ {
					minBJ = bj
				}
				if bj > maxBJ {
					maxBJ = bj
				}
			}
		}
		for bj := minBJ; bj <= maxBJ; bj++ {
			if blockNNZ[bj] == 0 {
				continue
			}
			e.colIdx[running] = int32(bj * b)
			copy(e.vals[int(running)*b*b:], stage[bj*b*b:(bj+1)*b*b])
			running++
			blockNNZ[bj] = 0
			clear(stage[bj*b*b : (bj+1)*b*b])
		}
		e.offsets[bi] = running
	}
	putScratch(s)
	return e
}

// Kind implements Encoded.
func (e *BCSREnc) Kind() Kind { return BCSR }

// P implements Encoded.
func (e *BCSREnc) P() int { return e.p }

// Block returns the block edge length b.
func (e *BCSREnc) Block() int { return e.b }

// ColIdx exposes the block column indices for the hardware model.
func (e *BCSREnc) ColIdx() []int32 { return e.colIdx }

// Values exposes the flattened block values for the hardware model.
func (e *BCSREnc) Values() []float64 { return e.vals }

// Blocks returns the number of stored (non-zero) blocks.
func (e *BCSREnc) Blocks() int { return len(e.colIdx) }

// BlockRowRange returns the [start, end) block slice for block row bi.
func (e *BCSREnc) BlockRowRange(bi int) (start, end int32) {
	if bi > 0 {
		start = e.offsets[bi-1]
	}
	return start, e.offsets[bi]
}

// DecodeInto implements Encoded.
func (e *BCSREnc) DecodeInto(t *matrix.Tile) error {
	nb := e.p / e.b
	if len(e.offsets) != nb {
		return corruptf("bcsr: %d offsets for p=%d b=%d", len(e.offsets), e.p, e.b)
	}
	if len(e.vals) != len(e.colIdx)*e.b*e.b {
		return corruptf("bcsr: %d values for %d blocks of %dx%d", len(e.vals), len(e.colIdx), e.b, e.b)
	}
	if int(e.offsets[nb-1]) != len(e.colIdx) {
		return corruptf("bcsr: final offset %d vs %d blocks", e.offsets[nb-1], len(e.colIdx))
	}
	t.Reset(e.p)
	prev := int32(0)
	for bi := 0; bi < nb; bi++ {
		if e.offsets[bi] < prev {
			return corruptf("bcsr: offsets decrease at block row %d", bi)
		}
		if int(e.offsets[bi]) > len(e.colIdx) {
			return corruptf("bcsr: offset %d at block row %d exceeds %d blocks", e.offsets[bi], bi, len(e.colIdx))
		}
		for blk := prev; blk < e.offsets[bi]; blk++ {
			c0 := int(e.colIdx[blk])
			if c0 < 0 || c0%e.b != 0 || c0+e.b > e.p {
				return corruptf("bcsr: block column %d invalid", c0)
			}
			base := int(blk) * e.b * e.b
			for i := 0; i < e.b; i++ {
				for j := 0; j < e.b; j++ {
					if v := e.vals[base+i*e.b+j]; v != 0 {
						t.Set(bi*e.b+i, c0+j, v)
					}
				}
			}
		}
		prev = e.offsets[bi]
	}
	return nil
}

// Footprint implements Encoded. The explicit zeros inside stored blocks
// count as metadata: they are transmitted without carrying information.
func (e *BCSREnc) Footprint() Footprint {
	valueLane := len(e.vals) * matrix.BytesPerValue
	useful := e.nnz * matrix.BytesPerValue
	idxLane := len(e.colIdx)*matrix.BytesPerIndex + len(e.offsets)*matrix.BytesPerOffset
	return Footprint{
		UsefulBytes:    useful,
		MetaBytes:      (valueLane - useful) + idxLane,
		ValueLaneBytes: valueLane,
		IndexLaneBytes: idxLane,
	}
}

// Stats implements Encoded. Every row covered by a non-zero block row gets
// a dot product whether or not the row itself is non-zero — the paper's
// second BCSR downside.
func (e *BCSREnc) Stats() Stats {
	blockRows := 0
	prev := int32(0)
	for _, off := range e.offsets {
		if off > prev {
			blockRows++
		}
		prev = off
	}
	return Stats{
		NNZ:         e.nnz,
		NonZeroRows: e.nzr,
		DotRows:     blockRows * e.b,
		Blocks:      len(e.colIdx),
		BlockRows:   blockRows,
	}
}
