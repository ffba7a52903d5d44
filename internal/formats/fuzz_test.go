package formats

import (
	"errors"
	"math"
	"testing"

	"copernicus/internal/matrix"
)

// Fuzz targets: decoders must never panic on arbitrary streams — they
// either return ErrCorrupt-wrapped errors or a structurally valid tile.
// Seed corpora cover valid encodings and near-miss corruptions; `go
// test` replays the corpus, `go test -fuzz` explores.

func fuzzTileOK(t *testing.T, tile *matrix.Tile, p int) {
	t.Helper()
	if tile.P != p {
		t.Fatalf("decoded tile size %d, want %d", tile.P, p)
	}
}

// fuzzKernelOK fails unless e's kernel multiplies like its decoded tile.
func fuzzKernelOK(t *testing.T, e Encoded, tile *matrix.Tile, seed uint64) {
	t.Helper()
	x := testOperand(tile.P, seed)
	got, want := make([]float64, tile.P), make([]float64, tile.P)
	e.SpMV(x, got)
	refSpMV(tile, x, want)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("%v: row %d: kernel %v, decoded tile %v", e.Kind(), i, got[i], want[i])
		}
	}
}

// FuzzCSRDecode builds a CSR stream from the input: offsets bytes (a zero
// repeats the previous offset) and column bytes offset to reach negative,
// repeated and out-of-range values, whose high bit stores an explicit
// zero. An accepted stream must have strictly ascending columns in every
// row, decode to exactly its entries and multiply like its decoded tile.
func FuzzCSRDecode(f *testing.F) {
	f.Add([]byte{1, 1, 1, 2}, []byte{3, 7}, 8)
	f.Add([]byte{0, 0, 0, 0}, []byte{}, 8)
	f.Add([]byte{2, 1}, []byte{0, 1}, 8)     // decreasing offsets
	f.Add([]byte{2}, []byte{7, 7}, 8)        // column 3 stored twice in row 0
	f.Add([]byte{2}, []byte{0x84, 7}, 8)     // stored zero before an entry
	f.Add([]byte{1, 3}, []byte{9, 7, 6}, 16) // columns not ascending in row 1
	f.Fuzz(func(t *testing.T, offs, cols []byte, p int) {
		p = 8 + (abs(p) % 3 * 8) // 8, 16, 24 — keep allocation bounded
		e := &CSREnc{p: p}
		e.offsets = make([]int32, p)
		for i := 0; i < p && i < len(offs); i++ {
			e.offsets[i] = int32(offs[i])
		}
		for i := 1; i < p; i++ {
			if e.offsets[i] == 0 {
				e.offsets[i] = e.offsets[i-1]
			}
		}
		n := int(e.offsets[p-1])
		if n < 0 || n > 1024 {
			return
		}
		e.colIdx = make([]int32, n)
		e.vals = make([]float64, n)
		for i := 0; i < n; i++ {
			e.vals[i] = float64(i + 1)
			if i < len(cols) {
				e.colIdx[i] = int32(cols[i]&0x7f) - 4 // allow negatives
				if cols[i]&0x80 != 0 {
					e.vals[i] = 0
				}
			}
		}
		for i := 0; i < p; i++ {
			if start, end := e.RowRange(i); end > start {
				e.skip = append(e.skip, int32(i))
			}
		}
		e.nzr = len(e.skip)
		tile, err := Decode(e)
		fuzzCorruptOK(t, err)
		if err != nil {
			return
		}
		fuzzTileOK(t, tile, p)
		if tile.NNZ() != n {
			t.Fatalf("decoded %d non-zeros from %d stored entries", tile.NNZ(), n)
		}
		for i := 0; i < p; i++ {
			start, end := e.RowRange(i)
			for k := start + 1; k < end; k++ {
				if e.colIdx[k-1] >= e.colIdx[k] {
					t.Fatalf("row %d accepted with columns out of order: %v", i, e.colIdx[start:end])
				}
			}
		}
		fuzzKernelOK(t, e, tile, uint64(n))
	})
}

// FuzzCOODecode builds a COO tuple stream from the input pairs, offset to
// reach negative, repeated and out-of-range coordinates; a row byte's
// high bit stores an explicit zero. An accepted stream must hold its
// tuples in strictly ascending row-major order, decode to exactly its
// entries and multiply like its decoded tile.
func FuzzCOODecode(f *testing.F) {
	f.Add([]byte{0, 3, 4, 7, 7, 7}, 8)
	f.Add([]byte{}, 8)
	f.Add([]byte{200, 200}, 8)
	f.Add([]byte{5, 6, 5, 6}, 8)     // coordinate (1,2) stored twice
	f.Add([]byte{5, 6, 4, 6}, 8)     // tuples out of row-major order
	f.Add([]byte{0x85, 6, 5, 7}, 16) // explicit zero
	f.Fuzz(func(t *testing.T, pairs []byte, p int) {
		p = 8 + (abs(p) % 3 * 8)
		e := &COOEnc{p: p}
		for i := 0; i+1 < len(pairs) && i < 512; i += 2 {
			v := float64(i + 1)
			if pairs[i]&0x80 != 0 {
				v = 0
			}
			e.rows = append(e.rows, int32(pairs[i]&0x7f)-4)
			e.cols = append(e.cols, int32(pairs[i+1])-4)
			e.vals = append(e.vals, v)
		}
		e.rows = append(e.rows, cooSentinel)
		e.cols = append(e.cols, cooSentinel)
		e.vals = append(e.vals, 0)
		tile, err := Decode(e)
		fuzzCorruptOK(t, err)
		if err != nil {
			return
		}
		fuzzTileOK(t, tile, p)
		if tile.NNZ() != e.Tuples() {
			t.Fatalf("decoded %d non-zeros from %d tuples", tile.NNZ(), e.Tuples())
		}
		for k := 1; k < e.Tuples(); k++ {
			if !tupleLess(e.rows[k-1], e.cols[k-1], e.rows[k], e.cols[k]) {
				t.Fatalf("tuple %d accepted out of row-major order", k)
			}
		}
		fuzzKernelOK(t, e, tile, uint64(e.Tuples()))
	})
}

// FuzzDIADecode builds a diagonal stream from the input: diagonal
// numbers offset to reach out-of-range values, and per-diagonal [lo, hi)
// extents from ext byte pairs offset to reach negative, empty and
// past-the-diagonal ranges (a diagonal without a pair spans its full
// in-tile rows). An odd ext length uses the last byte as flags: 1 drops
// the last extent bound, 2 stores one lane slot past the extents. An
// accepted stream must have valid extents and decode each lane slot to
// its tile position.
func FuzzDIADecode(f *testing.F) {
	f.Add([]byte{32, 35}, []byte{}, []byte{1, 2, 3}, 8)
	f.Add([]byte{255}, []byte{}, []byte{9}, 8)
	// p = 0 selects an 8×8 tile.
	f.Add([]byte{31, 32}, []byte{5, 9, 4, 7}, []byte{1, 0, 2, 3, 4, 5, 6}, 0) // valid, trimmed
	f.Add([]byte{33}, []byte{4, 12}, []byte{1, 2, 3, 4, 5, 6, 7, 8}, 0)       // hi past the diagonal
	f.Add([]byte{32}, []byte{6, 6}, []byte{}, 0)                              // empty extent
	f.Add([]byte{32}, []byte{4, 6, 2}, []byte{1, 2, 3}, 0)                    // lanes past the extents
	f.Add([]byte{32, 34}, []byte{1}, []byte{1, 2}, 0)                         // ext length mismatch
	f.Fuzz(func(t *testing.T, diags, exts, vals []byte, p int) {
		p = 8 + (abs(p) % 3 * 8)
		var flags byte
		if len(exts)%2 == 1 {
			flags, exts = exts[len(exts)-1], exts[:len(exts)-1]
		}
		e := &DIAEnc{p: p}
		n := 0
		for k := 0; k < len(diags) && k < 64; k++ {
			d := int(diags[k]) - 32
			e.diagNo = append(e.diagNo, int32(d))
			lo, hi := max(0, -d), min(p, p-d)
			if 2*k+1 < len(exts) {
				lo, hi = int(exts[2*k])-4, int(exts[2*k+1])-4
			}
			e.ext = append(e.ext, int32(lo), int32(hi))
			n += max(0, hi-lo)
		}
		if flags&1 != 0 && len(e.ext) > 0 {
			e.ext = e.ext[:len(e.ext)-1]
		}
		if flags&2 != 0 {
			n++
		}
		e.lanes = make([]float64, n)
		for i := range e.lanes {
			if i < len(vals) {
				e.lanes[i] = float64(vals[i])
			}
		}
		tile, err := Decode(e)
		fuzzCorruptOK(t, err)
		if err != nil {
			return
		}
		fuzzTileOK(t, tile, p)
		nz, off := 0, 0
		for k, d32 := range e.diagNo {
			d, lo, hi := int(d32), int(e.ext[2*k]), int(e.ext[2*k+1])
			if lo >= hi || lo < max(0, -d) || hi > min(p, p-d) {
				t.Fatalf("diagonal %d accepted with extent [%d, %d)", d, lo, hi)
			}
			for i := lo; i < hi; i++ {
				v := e.lanes[off+i-lo]
				if got := tile.At(i, i+d); got != v {
					t.Fatalf("(%d,%d) = %v, lane holds %v", i, i+d, got, v)
				}
				if v != 0 {
					nz++
				}
			}
			off += hi - lo
		}
		if off != len(e.lanes) || tile.NNZ() != nz {
			t.Fatalf("decoded %d non-zeros from %d lane slots (%d non-zero, %d stored)", tile.NNZ(), off, nz, len(e.lanes))
		}
	})
}

// FuzzDIARoundTrip builds a tile from (row, column, value) byte triples
// — the first byte picks p and whether the kernel's operand and output
// are clipped to the last used column and row, as on a boundary tile —
// and requires encodeDIA to match the dense-scan reference encoder
// stream for stream, Decode to return the tile, and SpMV to be
// bit-identical to the full p-slot walk of every lane.
func FuzzDIARoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 1, 1, 8, 2, 3, 252})
	f.Add([]byte{0x81, 7, 0, 3, 0, 7, 5, 3, 3, 1})
	f.Add([]byte{2, 0, 31, 9, 31, 0, 17, 5, 6, 200, 6, 5, 40, 12, 12, 3})
	f.Add([]byte{3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p := []int{4, 8, 32, 64}[data[0]&3]
		tile := matrix.NewTile(p, 0, 0)
		rows, cols := 0, 0
		for k := 1; k+2 < len(data) && k < 3*512; k += 3 {
			i, j := int(data[k])%p, int(data[k+1])%p
			if v := float64(int8(data[k+2])) / 4; v != 0 {
				tile.Set(i, j, v)
				rows, cols = max(rows, i+1), max(cols, j+1)
			}
		}
		e := encodeDIA(tile, nil)
		if !encStreamsEqual(t, e, refEncodeDIA(tile)) {
			t.Fatal("encodeDIA differs from the dense-scan reference")
		}
		dec, err := Decode(e)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !dec.SameEntries(tile) {
			t.Fatal("decoded tile differs from the encoded one")
		}
		if data[0]&0x80 == 0 {
			rows, cols = p, p
		}
		x := make([]float64, cols)
		for j := range x {
			x[j] = float64(j%7) - 2.5
		}
		got, want := make([]float64, rows), make([]float64, rows)
		e.SpMV(x, got)
		refDIAWalk(e, x, want)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("y[%d] = %v, full walk %v", i, got[i], want[i])
			}
		}
	})
}

func FuzzJDSDecode(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{0, 4}, []byte{1, 2, 3, 4})
	f.Add([]byte{0, 0}, []byte{0}, []byte{})
	f.Fuzz(func(t *testing.T, perm, ptr, cols []byte) {
		const p = 8
		e := &JDSEnc{p: p}
		e.perm = make([]int32, p)
		for i := 0; i < p && i < len(perm); i++ {
			e.perm[i] = int32(perm[i]) - 2
		}
		for i := 0; i < len(ptr) && i < 16; i++ {
			e.ptr = append(e.ptr, int32(ptr[i]))
		}
		if len(e.ptr) == 0 {
			e.ptr = []int32{0}
		}
		n := int(e.ptr[len(e.ptr)-1])
		if n < 0 || n > 512 {
			return
		}
		e.idx = make([]int32, n)
		e.vals = make([]float64, n)
		for i := 0; i < n; i++ {
			if i < len(cols) {
				e.idx[i] = int32(cols[i]) - 2
			}
			e.vals[i] = float64(i + 1)
		}
		tile, err := Decode(e)
		if err == nil {
			fuzzTileOK(t, tile, p)
		}
	})
}

// fuzzCorruptOK fails unless err is nil or wraps ErrCorrupt.
func fuzzCorruptOK(t *testing.T, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
	}
}

// FuzzLILDecode builds column lists from the input — per-column length
// bytes whose high bits drop the value stream's last entry (0x80, a
// row/value length mismatch) or store an explicit zero (0x40), rows
// offset to reach negative, repeated and out-of-range values — as both
// a LIL and a CSC encoding, which share the column-list layout. An
// accepted stream must have strictly ascending rows in every column,
// decode to exactly its entries, and multiply like its decoded tile.
func FuzzLILDecode(f *testing.F) {
	f.Add([]byte{2, 1, 0, 1}, []byte{5, 9, 4, 11}, 8) // valid, ascending
	f.Add([]byte{2}, []byte{9, 5}, 8)                 // rows not ascending
	f.Add([]byte{2}, []byte{9, 9}, 8)                 // repeated row
	f.Add([]byte{1}, []byte{200}, 8)                  // row out of range
	f.Add([]byte{0x82}, []byte{5, 6}, 8)              // length mismatch
	f.Add([]byte{0x41, 1}, []byte{5, 6}, 16)          // explicit zero
	f.Add([]byte{0x42}, []byte{4, 9}, 8)              // stored zero before an entry
	f.Add([]byte{3, 3, 3}, []byte{4, 5, 6, 4, 6, 7, 5, 6, 7}, 24)
	f.Fuzz(func(t *testing.T, lens, rows []byte, p int) {
		p = 8 + (abs(p) % 3 * 8)
		c := colLists{p: p, offsets: make([]int32, p)}
		next := 0
		for j := 0; j < p; j++ {
			for k := 0; j < len(lens) && k < int(lens[j]&7) && next < len(rows); k++ {
				v := float64(next + 1)
				if k == 0 && lens[j]&0x40 != 0 {
					v = 0
				}
				c.rows = append(c.rows, int32(rows[next])-4)
				c.vals = append(c.vals, v)
				next++
			}
			if j < len(lens) && lens[j]&0x80 != 0 && len(c.vals) > 0 {
				c.vals = c.vals[:len(c.vals)-1]
			}
			c.offsets[j] = int32(len(c.rows))
			if start, end := c.ColRange(j); end > start {
				c.skip = append(c.skip, int32(j))
			}
		}
		for _, e := range []Encoded{&LILEnc{c}, &CSCEnc{c}} {
			tile, err := Decode(e)
			fuzzCorruptOK(t, err)
			if err != nil {
				continue
			}
			fuzzTileOK(t, tile, p)
			if tile.NNZ() != next {
				t.Fatalf("%v: decoded %d non-zeros from %d list entries", e.Kind(), tile.NNZ(), next)
			}
			for j := 0; j < p; j++ {
				rows, vals := c.ColRows(j), c.ColVals(j)
				for k, r := range rows {
					if k > 0 && rows[k-1] >= r {
						t.Fatalf("%v: column %d accepted with rows out of order: %v", e.Kind(), j, rows)
					}
					if got := tile.At(int(r), j); got != vals[k] {
						t.Fatalf("%v: (%d,%d) = %v, stream holds %v", e.Kind(), r, j, got, vals[k])
					}
				}
			}
			fuzzKernelOK(t, e, tile, uint64(next))
		}
	})
}

// FuzzDOKDecode fills a hash table's slots with keys from the input
// pairs — offset to reach negative and out-of-range coordinates, so
// duplicates, bad keys and free-slot collisions all occur — and checks
// that an accepted table decodes to exactly one entry per occupied slot.
// flags 1 stores an explicit zero; flags 2 misstates the recorded nnz.
func FuzzDOKDecode(f *testing.F) {
	f.Add([]byte{4, 7, 8, 11, 11, 11}, byte(0), 8) // valid
	f.Add([]byte{5, 6, 9, 9, 5, 6}, byte(0), 8)    // duplicate key (1,2)
	f.Add([]byte{200, 5}, byte(0), 8)              // key out of range
	f.Add([]byte{4, 4}, byte(1), 16)               // explicit zero
	f.Add([]byte{4, 4, 5, 5}, byte(2), 24)         // nnz mismatch
	f.Fuzz(func(t *testing.T, pairs []byte, flags byte, p int) {
		p = 8 + (abs(p) % 3 * 8)
		n := min(len(pairs)/2, 256)
		size := 2
		for size < 2*max(1, n) {
			size *= 2
		}
		e := &DOKEnc{p: p, keys: make([]int32, size), vals: make([]float64, size), nnz: n}
		for s := range e.keys {
			e.keys[s] = dokEmpty
		}
		for k := 0; k < n; k++ {
			e.keys[k] = dokKey(int(pairs[2*k])-4, int(pairs[2*k+1])-4)
			e.vals[k] = float64(k + 1)
		}
		if flags&1 != 0 && n > 0 {
			e.vals[0] = 0
		}
		if flags&2 != 0 {
			e.nnz++
		}
		tile, err := Decode(e)
		fuzzCorruptOK(t, err)
		if err != nil {
			return
		}
		fuzzTileOK(t, tile, p)
		if tile.NNZ() != e.nnz {
			t.Fatalf("decoded %d non-zeros, table records %d", tile.NNZ(), e.nnz)
		}
		for s, k := range e.keys {
			if k == dokEmpty {
				continue
			}
			if i, j := dokUnpack(k); tile.At(i, j) != e.vals[s] {
				t.Fatalf("(%d,%d) = %v, slot %d holds %v", i, j, tile.At(i, j), s, e.vals[s])
			}
		}
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// FuzzSlabEncodeReuse drives one Slab through a random sequence of
// encodes (kind, tile) and Resets, three input bytes per step. After every
// step, each encoding made since the last Reset must still equal the
// exact, separately allocated Encode of its tile stream for stream and
// decode to its tile: reusing the slab's encoder structs and streams after
// a Reset, or handing out a struct twice before one, would break that.
func FuzzSlabEncodeReuse(f *testing.F) {
	f.Add([]byte{1, 0, 50, 1, 1, 10, 0x81, 2, 90, 1, 3, 30})
	f.Add([]byte{0, 4, 100, 0x80, 4, 100, 0, 4, 5, 0, 4, 100})
	f.Add([]byte{7, 2, 60, 8, 3, 20, 0x87, 4, 60, 12, 1, 40, 0x8c, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type kept struct {
			tile *matrix.Tile
			enc  Encoded
		}
		ps := []int{4, 8, 12, 16, 64}
		sl := new(Slab)
		var live []kept
		dec := matrix.NewTile(1, 0, 0)
		for i := 0; i+2 < len(ops) && i < 3*32; i += 3 {
			if ops[i]&0x80 != 0 {
				sl.Reset()
				live = live[:0]
			}
			k := Kind(int(ops[i]&0x7f) % NumKinds)
			p := ps[int(ops[i+1])%len(ps)]
			tile := randomTile(uint64(i)<<8|uint64(ops[i+1]), p, float64(ops[i+2])/255)
			live = append(live, kept{tile, sl.Encode(k, tile)})
			for _, c := range live {
				if !encStreamsEqual(t, c.enc, Encode(c.enc.Kind(), c.tile)) {
					t.Fatalf("step %d: a %v p=%d encoding no longer equals its exact encode", i/3, c.enc.Kind(), c.tile.P)
				}
				if err := c.enc.DecodeInto(dec); err != nil {
					t.Fatalf("step %d: %v p=%d: decode: %v", i/3, c.enc.Kind(), c.tile.P, err)
				}
				if !dec.SameEntries(c.tile) {
					t.Fatalf("step %d: a %v p=%d encoding no longer decodes to its tile", i/3, c.enc.Kind(), c.tile.P)
				}
			}
		}
	})
}

// FuzzMatchesImpliesDecode holds Matches to its contract: an honest
// encoding always matches its tile, and a mutated one matches only if
// it still decodes, without error, to exactly the tile's entries. The
// tile comes from (row, column, value) byte triples; kind and psel pick
// one of the nine matched formats and a p it accepts. what%3 picks the
// mutation — a value set to 0, -0, NaN or ±1 (as to directs), an index
// set to the padding index, or an index set to to's value in [-2, p+1] —
// and what/3 the index stream: a column, BCSR block column, padding
// index, column-list row or DIA diagonal number, or else an offset, COO
// row, SELL width or DIA extent bound. slot picks the position in the
// stream.
func FuzzMatchesImpliesDecode(f *testing.F) {
	f.Add([]byte{0, 3, 9, 4, 7, 200, 7, 7, 1}, uint8(1), uint8(0), uint8(0), uint16(1), uint8(1))
	f.Add([]byte{1, 1, 30, 1, 2, 40, 5, 0, 90}, uint8(4), uint8(1), uint8(5), uint16(3), uint8(0))
	f.Add([]byte{0, 0, 255, 2, 5, 60, 3, 3, 3}, uint8(2), uint8(2), uint8(6), uint16(0), uint8(5))
	f.Add([]byte{9, 1, 10, 9, 2, 11, 10, 6, 12}, uint8(5), uint8(1), uint8(4), uint16(2), uint8(3))
	f.Add([]byte{}, uint8(3), uint8(0), uint8(2), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, ents []byte, kind, psel, what uint8, slot uint16, to uint8) {
		k := matchedKinds[int(kind)%len(matchedKinds)]
		p := []int{8, 16, 12, 5, 3}[int(psel)%5]
		if ValidateP(k, p) != nil {
			p = 8
		}
		tile := matrix.NewTile(p, 0, 0)
		for i := 0; i+2 < len(ents) && i < 3*256; i += 3 {
			v := float64(int(ents[i+2])-128) / 4 // 128 clears the entry
			if ents[i+2] == 255 {
				v = math.NaN()
			}
			tile.Set(int(ents[i])%p, int(ents[i+1])%p, v)
		}
		enc := Encode(k, tile)
		if !Matches(enc, tile) {
			t.Fatalf("%v p=%d: honest encoding does not match its tile", k, p)
		}

		floats := valueStream(enc)
		var streams [][]int32
		switch e := enc.(type) {
		case *CSREnc:
			streams = [][]int32{e.colIdx, e.offsets}
		case *BCSREnc:
			streams = [][]int32{e.colIdx, e.offsets}
		case *COOEnc:
			streams = [][]int32{e.cols, e.rows}
		case *ELLEnc:
			streams = [][]int32{e.idx}
		case *SELLEnc:
			streams = [][]int32{e.idx, e.widths}
		case *CSCEnc:
			streams = [][]int32{e.rows, e.offsets}
		case *LILEnc:
			streams = [][]int32{e.rows, e.offsets}
		case *DIAEnc:
			streams = [][]int32{e.diagNo, e.ext}
		}
		var ints []int32
		if len(streams) > 0 {
			ints = streams[int(what/3)%len(streams)]
		}
		s := int(slot)
		switch op := what % 3; {
		case op == 0 && len(floats) > 0:
			floats[s%len(floats)] = []float64{0, math.Copysign(0, -1), math.NaN(), 1, -1}[int(to)%5]
		case op == 1 && len(ints) > 0:
			ints[s%len(ints)] = ellPad // a padding index, or a negative one
		case op == 2 && len(ints) > 0:
			ints[s%len(ints)] = int32(int(to)%(p+4)) - 2 // -2 … p+1
		default:
			return
		}
		if !Matches(enc, tile) {
			return
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v p=%d: mutated encoding matches but does not decode: %v", k, p, err)
		}
		if !dec.SameEntries(tile) {
			t.Fatalf("%v p=%d: mutated encoding matches but decodes to other entries", k, p)
		}
	})
}
