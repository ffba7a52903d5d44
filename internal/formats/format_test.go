package formats

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"copernicus/internal/matrix"
	"copernicus/internal/xrand"
)

// randomTile builds a random p×p tile with the given density.
func randomTile(seed uint64, p int, density float64) *matrix.Tile {
	r := xrand.New(seed)
	t := matrix.NewTile(p, 0, 0)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if r.Float64() < density {
				t.Set(i, j, r.ValueIn(-4, 4))
			}
		}
	}
	return t
}

// fig1Tile reproduces the 8×8 example of Fig. 1: non-zeros at (0,3),
// (4,7), and (7,7).
func fig1Tile() *matrix.Tile {
	t := matrix.NewTile(8, 0, 0)
	t.Set(0, 3, 1)
	t.Set(4, 7, 2)
	t.Set(7, 7, 3)
	return t
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Dense: "DENSE", CSR: "CSR", CSC: "CSC", BCSR: "BCSR", COO: "COO",
		DOK: "DOK", LIL: "LIL", ELL: "ELL", DIA: "DIA",
		SELL: "SELL", ELLCOO: "ELL+COO", JDS: "JDS", SELLCS: "SELL-C-sig",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind %d String = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind String = %q", Kind(99).String())
	}
}

// TestParse: every format resolves from its name in any case, and the
// error names an unknown one.
func TestParse(t *testing.T) {
	for _, k := range All() {
		for _, name := range []string{k.String(), strings.ToLower(k.String())} {
			if got, err := Parse(name); err != nil || got != k {
				t.Errorf("Parse(%q) = %v, %v; want %v", name, got, err, k)
			}
		}
	}
	if _, err := Parse("CSX"); err == nil || err.Error() != `unknown format "CSX"` {
		t.Errorf("Parse(CSX) error = %v", err)
	}
}

func TestFormatLists(t *testing.T) {
	if len(Core()) != 8 {
		t.Fatalf("Core() has %d formats, want 8", len(Core()))
	}
	if len(Sparse()) != 7 {
		t.Fatalf("Sparse() has %d formats, want 7 (the paper's set)", len(Sparse()))
	}
	if len(All()) != int(numKinds) {
		t.Fatalf("All() has %d formats, want %d", len(All()), int(numKinds))
	}
	seen := map[Kind]bool{}
	for _, k := range All() {
		if seen[k] {
			t.Fatalf("duplicate kind %v in All()", k)
		}
		seen[k] = true
	}
}

// TestRoundTripAllFormats is the central property test: for every format,
// encode→decode is the identity on random tiles across sizes and
// densities.
func TestRoundTripAllFormats(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			check := func(seed uint64) bool {
				r := xrand.New(seed)
				p := []int{8, 16, 32}[r.Intn(3)]
				density := []float64{0, 0.01, 0.1, 0.3, 0.7, 1}[r.Intn(6)]
				tile := randomTile(seed, p, density)
				enc := Encode(k, tile)
				dec, err := Decode(enc)
				if err != nil {
					t.Logf("decode error: %v", err)
					return false
				}
				return dec.EqualValues(tile)
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRoundTripStructured covers the structured shapes the random tiles
// miss: diagonal, single row, single column, and checkerboard tiles.
func TestRoundTripStructured(t *testing.T) {
	shapes := map[string]func(p int) *matrix.Tile{
		"diagonal": func(p int) *matrix.Tile {
			tl := matrix.NewTile(p, 0, 0)
			for i := 0; i < p; i++ {
				tl.Set(i, i, float64(i+1))
			}
			return tl
		},
		"single-row": func(p int) *matrix.Tile {
			tl := matrix.NewTile(p, 0, 0)
			for j := 0; j < p; j++ {
				tl.Set(p/2, j, float64(j+1))
			}
			return tl
		},
		"single-col": func(p int) *matrix.Tile {
			tl := matrix.NewTile(p, 0, 0)
			for i := 0; i < p; i++ {
				tl.Set(i, p/2, float64(i+1))
			}
			return tl
		},
		"checkerboard": func(p int) *matrix.Tile {
			tl := matrix.NewTile(p, 0, 0)
			for i := 0; i < p; i++ {
				for j := (i % 2); j < p; j += 2 {
					tl.Set(i, j, 1)
				}
			}
			return tl
		},
		"anti-diagonal": func(p int) *matrix.Tile {
			tl := matrix.NewTile(p, 0, 0)
			for i := 0; i < p; i++ {
				tl.Set(i, p-1-i, float64(i+1))
			}
			return tl
		},
	}
	for name, mk := range shapes {
		for _, k := range All() {
			for _, p := range []int{8, 16, 32} {
				tile := mk(p)
				enc := Encode(k, tile)
				dec, err := Decode(enc)
				if err != nil {
					t.Fatalf("%s/%s p=%d: decode: %v", k, name, p, err)
				}
				if !dec.EqualValues(tile) {
					t.Fatalf("%s/%s p=%d: round trip mismatch", k, name, p)
				}
			}
		}
	}
}

func TestFig1KnownAnswerCSR(t *testing.T) {
	e := encodeCSR(fig1Tile(), nil)
	// Paper Fig. 1b: offsets 1,1,1,1,2,2,2,3; indices 3,7,7.
	wantOff := []int32{1, 1, 1, 1, 2, 2, 2, 3}
	for i, w := range wantOff {
		if e.offsets[i] != w {
			t.Fatalf("offsets[%d] = %d, want %d", i, e.offsets[i], w)
		}
	}
	wantIdx := []int32{3, 7, 7}
	for i, w := range wantIdx {
		if e.colIdx[i] != w {
			t.Fatalf("colIdx[%d] = %d, want %d", i, e.colIdx[i], w)
		}
	}
}

func TestFig1KnownAnswerCOO(t *testing.T) {
	e := encodeCOO(fig1Tile(), nil)
	// Paper Fig. 1d: tuples (0,3), (4,7), (7,7).
	want := [][2]int32{{0, 3}, {4, 7}, {7, 7}}
	if e.Tuples() != 3 {
		t.Fatalf("tuples = %d, want 3", e.Tuples())
	}
	for i, w := range want {
		if e.rows[i] != w[0] || e.cols[i] != w[1] {
			t.Fatalf("tuple %d = (%d,%d), want (%d,%d)", i, e.rows[i], e.cols[i], w[0], w[1])
		}
	}
}

func TestFig1KnownAnswerDIA(t *testing.T) {
	e := encodeDIA(fig1Tile(), nil)
	// Paper Fig. 1h: diagonals 0 (holding the (7,7) entry) and 3 (holding
	// (0,3) and (4,7)).
	if e.Diagonals() != 2 {
		t.Fatalf("diagonals = %d, want 2", e.Diagonals())
	}
	if e.diagNo[0] != 0 || e.diagNo[1] != 3 {
		t.Fatalf("diagonal numbers = %v, want [0 3]", e.diagNo)
	}
}

func TestFig1KnownAnswerBCSR(t *testing.T) {
	e := encodeBCSR(fig1Tile(), 4, nil)
	// Paper Fig. 1c: offsets 1,2 — one block in each block row — and block
	// columns 0 and 4.
	if e.offsets[0] != 1 || e.offsets[1] != 2 {
		t.Fatalf("offsets = %v, want [1 2]", e.offsets)
	}
	if e.colIdx[0] != 0 || e.colIdx[1] != 4 {
		t.Fatalf("block columns = %v, want [0 4]", e.colIdx)
	}
	if len(e.vals) != 32 {
		t.Fatalf("block values = %d, want 32 (two 4x4 blocks)", len(e.vals))
	}
}

func TestFig1KnownAnswerELL(t *testing.T) {
	e := encodeELL(fig1Tile(), nil)
	if e.Width() != 1 {
		t.Fatalf("ELL width = %d, want 1 (longest row has one non-zero)", e.Width())
	}
	// Row 0 holds column 3; rows 1-3 padded.
	if e.idx[0] != 3 || e.idx[1] != ellPad {
		t.Fatalf("ELL idx start = %v", e.idx[:2])
	}
}

// TestFootprintInvariants checks the byte accounting identities for every
// format: lanes sum to the total, useful ≤ total, useful = nnz·4.
func TestFootprintInvariants(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			check := func(seed uint64) bool {
				r := xrand.New(seed)
				p := []int{8, 16, 32}[r.Intn(3)]
				tile := randomTile(seed, p, 0.25)
				enc := Encode(k, tile)
				f := enc.Footprint()
				if f.UsefulBytes != tile.NNZ()*matrix.BytesPerValue {
					t.Logf("%v: useful %d vs nnz %d", k, f.UsefulBytes, tile.NNZ())
					return false
				}
				if f.ValueLaneBytes+f.IndexLaneBytes != f.TotalBytes() {
					t.Logf("%v: lanes %d+%d != total %d", k, f.ValueLaneBytes, f.IndexLaneBytes, f.TotalBytes())
					return false
				}
				u := f.Utilization()
				return u >= 0 && u <= 1
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCOOUtilizationConstant reproduces the §6.3 observation: COO's
// bandwidth utilization is pinned near 1/3 at any density (the sentinel
// tuple pulls it fractionally below).
func TestCOOUtilizationConstant(t *testing.T) {
	for _, d := range []float64{0.05, 0.2, 0.5, 0.9} {
		tile := randomTile(5, 16, d)
		u := Encode(COO, tile).Footprint().Utilization()
		if u > 1.0/3.0+1e-9 || u < 0.30 {
			t.Errorf("COO utilization at density %v = %.4f, want ~1/3", d, u)
		}
	}
}

// TestDIAUtilizationDiagonal reproduces §6.3: DIA on a pure diagonal tile
// utilizes nearly the whole bandwidth (only the header word is overhead).
func TestDIAUtilizationDiagonal(t *testing.T) {
	tile := matrix.NewTile(16, 0, 0)
	for i := 0; i < 16; i++ {
		tile.Set(i, i, 1)
	}
	u := Encode(DIA, tile).Footprint().Utilization()
	want := 16.0 * matrix.BytesPerValue / (17.0 * matrix.BytesPerValue)
	if u != want {
		t.Fatalf("DIA diagonal utilization = %.4f, want %.4f", u, want)
	}
}

// TestDenseUtilizationIsDensity: dense transmits everything, so its
// utilization equals the tile density.
func TestDenseUtilizationIsDensity(t *testing.T) {
	check := func(seed uint64) bool {
		tile := randomTile(seed, 16, 0.3)
		u := Encode(Dense, tile).Footprint().Utilization()
		return u == tile.Density()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStatsInvariants checks the structural stats every format reports.
func TestStatsInvariants(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			check := func(seed uint64) bool {
				r := xrand.New(seed)
				p := []int{8, 16, 32}[r.Intn(3)]
				tile := randomTile(seed, p, 0.2)
				s := Encode(k, tile).Stats()
				if s.NNZ != tile.NNZ() || s.NonZeroRows != tile.NonZeroRows() {
					return false
				}
				// Every format must perform at least the non-zero rows'
				// dot products and at most p.
				return s.DotRows >= s.NonZeroRows && s.DotRows <= p
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestELLDotRowsIsP(t *testing.T) {
	tile := fig1Tile()
	if s := Encode(ELL, tile).Stats(); s.DotRows != 8 {
		t.Fatalf("ELL DotRows = %d, want 8 (cannot skip all-zero rows)", s.DotRows)
	}
	if s := Encode(CSR, tile).Stats(); s.DotRows != 3 {
		t.Fatalf("CSR DotRows = %d, want 3", s.DotRows)
	}
}

func TestBCSRDotRowsCoversBlocks(t *testing.T) {
	// One non-zero in one block row: BCSR processes all 4 rows of that
	// block row even though only one is non-zero.
	tile := matrix.NewTile(8, 0, 0)
	tile.Set(1, 1, 5)
	s := Encode(BCSR, tile).Stats()
	if s.DotRows != 4 || s.Blocks != 1 || s.BlockRows != 1 {
		t.Fatalf("BCSR stats = %+v, want DotRows=4 Blocks=1 BlockRows=1", s)
	}
}

func TestEmptyTileAllFormats(t *testing.T) {
	for _, k := range All() {
		tile := matrix.NewTile(8, 0, 0)
		enc := Encode(k, tile)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: empty tile decode: %v", k, err)
		}
		if dec.NNZ() != 0 {
			t.Fatalf("%v: empty tile decoded with %d non-zeros", k, dec.NNZ())
		}
		if f := enc.Footprint(); f.UsefulBytes != 0 {
			t.Fatalf("%v: empty tile claims %d useful bytes", k, f.UsefulBytes)
		}
	}
}

// corruptionTile is the source tile of every corruptionCases encoding.
func corruptionTile() *matrix.Tile { return randomTile(9, 8, 0.3) }

// corruptionCase is one stream corruption of an encoding of a source
// tile. Strict cases must fail to decode; the others may instead decode
// to a different valid tile.
type corruptionCase struct {
	name    string
	corrupt func() Encoded
	strict  bool
}

// corruptionCases returns the stream corruptions of encodings of tile
// that TestCorruptionDetection and TestCorruptionNeverMatches run.
func corruptionCases(tile *matrix.Tile) []corruptionCase {
	return []corruptionCase{
		{"csr column out of range", func() Encoded {
			e := encodeCSR(tile, nil)
			e.colIdx[0] = 99
			return e
		}, false},
		{"csr offsets decrease", func() Encoded {
			e := encodeCSR(tile, nil)
			e.offsets[3] = e.offsets[2] - 1
			e.offsets[e.p-1] = int32(len(e.vals)) // keep the total consistent
			return e
		}, false},
		{"csr offset overruns stream", func() Encoded {
			// The fuzz-found class: a middle offset larger than the
			// stream, with the final offset still consistent.
			e := encodeCSR(tile, nil)
			e.offsets[0] = int32(len(e.vals)) + 10
			return e
		}, false},
		// The CSR and COO kernels multiply every stored entry, so a
		// coordinate stored twice, or a stored zero, must not decode:
		// the seal would hand back the source tile (the last write wins,
		// a 0 leaves no entry) while the kernel adds both products, or
		// multiplies the zero into a NaN.
		{"csr duplicate column in a row", func() Encoded {
			e := encodeCSR(tile, nil)
			i := int(e.skip[0])
			start, _ := e.RowRange(i)
			return insertRowEntry(e, i, int(start), e.colIdx[start], 5)
		}, true},
		{"csr explicit zero", func() Encoded {
			e := encodeCSR(tile, nil)
			for _, i := range e.skip {
				if start, _ := e.RowRange(int(i)); e.colIdx[start] > 0 {
					return insertRowEntry(e, int(i), int(start), 0, 0)
				}
			}
			panic("formats: every non-empty row starts at column 0")
		}, true},
		// The streams stay honest, but the derived fields the kernel and
		// Stats read disagree with them: the kernel walks row skip[1]
		// twice and never row skip[0], and Stats prices one row too many.
		{"csr skip list and nzr disagree with the offsets", func() Encoded {
			e := encodeCSR(tile, nil)
			e.nzr++
			e.skip[0] = e.skip[1]
			return e
		}, true},
		{"csr nzr disagrees with the offsets", func() Encoded {
			e := encodeCSR(tile, nil)
			e.nzr--
			return e
		}, true},
		{"coo repeated coordinate", func() Encoded {
			e := encodeCOO(tile, nil)
			e.rows = slices.Insert(e.rows, 0, e.rows[0])
			e.cols = slices.Insert(e.cols, 0, e.cols[0])
			e.vals = slices.Insert(e.vals, 0, 5)
			return e
		}, true},
		{"coo tuples out of order", func() Encoded {
			e := encodeCOO(tile, nil)
			e.rows[0], e.rows[1] = e.rows[1], e.rows[0]
			e.cols[0], e.cols[1] = e.cols[1], e.cols[0]
			e.vals[0], e.vals[1] = e.vals[1], e.vals[0]
			return e
		}, true},
		{"csc offset overruns stream", func() Encoded {
			e := encodeCSC(tile, nil)
			e.offsets[0] = int32(len(e.vals)) + 10
			return e
		}, false},
		{"bcsr offset overruns blocks", func() Encoded {
			e := encodeBCSR(tile, 4, nil)
			e.offsets[0] = int32(len(e.colIdx)) + 3
			return e
		}, false},
		{"csc row out of range", func() Encoded {
			e := encodeCSC(tile, nil)
			e.rows[0] = -2
			return e
		}, false},
		// The column-list kernel multiplies every stored entry, so a
		// column that stores a row twice, or stores a zero, must not
		// decode: the seal would hand back the source tile (the last
		// write wins, a 0 leaves no entry) while the kernel adds both
		// products, or multiplies the zero into a NaN.
		{"csc duplicate row in a column", func() Encoded {
			e := encodeCSC(tile, nil)
			j := int(e.skip[0])
			start, _ := e.ColRange(j)
			return insertColEntry(e, j, int(start), e.rows[start], 5)
		}, true},
		{"csc explicit zero", func() Encoded {
			e := encodeCSC(tile, nil)
			for _, j := range e.skip {
				if start, _ := e.ColRange(int(j)); e.rows[start] > 0 {
					return insertColEntry(e, int(j), int(start), 0, 0)
				}
			}
			panic("formats: every non-empty column starts at row 0")
		}, true},
		{"bcsr bad block column", func() Encoded {
			e := encodeBCSR(tile, 4, nil)
			e.colIdx[0] = 3 // not block-aligned
			return e
		}, false},
		{"coo missing sentinel", func() Encoded {
			e := encodeCOO(tile, nil)
			e.rows[len(e.rows)-1] = 0
			return e
		}, false},
		{"coo out of range", func() Encoded {
			e := encodeCOO(tile, nil)
			e.cols[0] = 64
			return e
		}, false},
		{"dok bad key", func() Encoded {
			e := encodeDOK(tile, nil)
			for s, k := range e.keys {
				if k != dokEmpty {
					e.keys[s] = dokKey(20, 20)
					break
				}
			}
			return e
		}, false},
		{"lil rows not ascending", func() Encoded {
			e := encodeLIL(tile, nil)
			for j := range e.p {
				if rows := e.ColRows(j); len(rows) >= 2 {
					rows[0], rows[1] = rows[1], rows[0]
					break
				}
			}
			return e
		}, false},
		{"ell column out of range", func() Encoded {
			e := encodeELL(tile, nil)
			for i, v := range e.idx {
				if v != ellPad {
					e.idx[i] = 88
					break
				}
			}
			return e
		}, false},
		{"dia out of extent", func() Encoded {
			// Push the last diagonal's hi one row past the diagonal's
			// in-tile rows [max(0, -d), min(p, p-d)), with a value in
			// that row; its lane ends the stream, so growing the stream
			// keeps the lanes and extents consistent.
			e := encodeDIA(tile, nil)
			k := len(e.diagNo) - 1
			end := min(e.p, e.p-int(e.diagNo[k])) + 1
			e.lanes = append(e.lanes, make([]float64, end-int(e.ext[2*k+1]))...)
			e.lanes[len(e.lanes)-1] = 7
			e.ext[2*k+1] = int32(end)
			return e
		}, true},
		{"dia empty extent", func() Encoded {
			// Empty the first diagonal's extent and drop its slots, which
			// start the stream, so the lanes still match the extents.
			e := encodeDIA(tile, nil)
			e.lanes = e.lanes[e.ext[1]-e.ext[0]:]
			e.ext[1] = e.ext[0]
			return e
		}, true},
		{"dia lanes short of extents", func() Encoded {
			e := encodeDIA(tile, nil)
			e.lanes = e.lanes[:len(e.lanes)-1]
			return e
		}, true},
		{"dia lanes past extents", func() Encoded {
			e := encodeDIA(tile, nil)
			e.lanes = append(e.lanes, 7)
			return e
		}, true},
		{"dia extent bounds short of diagonals", func() Encoded {
			e := encodeDIA(tile, nil)
			e.ext = e.ext[:len(e.ext)-1]
			return e
		}, true},
		{"jds broken permutation", func() Encoded {
			e := encodeJDS(tile, nil)
			e.perm[0] = e.perm[1]
			return e
		}, false},
		{"sell width out of range", func() Encoded {
			e := encodeSELL(tile, 4, nil)
			e.widths[0] = int32(e.p + 1)
			return e
		}, false},
		// The ELL-family kernels end a row at its first padding slot, so
		// every decoder of the family rejects a row that is not
		// left-packed: an entry after a pad, or a pad holding a value.
		{"ell entry after padding", func() Encoded {
			e := encodeELL(tile, nil)
			swapPastPad(e.idx, e.vals, e.w)
			return e
		}, true},
		{"ell padded slot holds a value", func() Encoded {
			e := encodeELL(tile, nil)
			e.vals[firstPadAfterEntry(e.idx, e.w)] = 7
			return e
		}, true},
		{"sell entry after padding", func() Encoded {
			e := encodeSELL(tile, 4, nil)
			base, w := sliceWithPad(e.idx, e.widths, e.c)
			swapPastPad(e.idx[base:], e.vals[base:], w)
			return e
		}, true},
		{"sell padded slot holds a value", func() Encoded {
			e := encodeSELL(tile, 4, nil)
			base, w := sliceWithPad(e.idx, e.widths, e.c)
			e.vals[base+firstPadAfterEntry(e.idx[base:base+e.c*w], w)] = 7
			return e
		}, true},
		{"sell-c-sigma entry after padding", func() Encoded {
			e := encodeSELLCS(tile, SELLSlice, SELLCSigmaWindow, nil)
			base, w := sliceWithPad(e.idx, e.widths, e.c)
			swapPastPad(e.idx[base:], e.vals[base:], w)
			return e
		}, true},
		{"sell-c-sigma padded slot holds a value", func() Encoded {
			e := encodeSELLCS(tile, SELLSlice, SELLCSigmaWindow, nil)
			base, w := sliceWithPad(e.idx, e.widths, e.c)
			e.vals[base+firstPadAfterEntry(e.idx[base:base+e.c*w], w)] = 7
			return e
		}, true},
		// A row that stores one column twice decodes, last write wins,
		// to one entry, while the kernel adds both products.
		{"ell repeated column in a row", func() Encoded {
			e := encodeELL(tile, nil)
			for i := 0; i < e.p; i++ {
				if row := e.idx[i*e.w : (i+1)*e.w]; e.w >= 2 && row[1] != ellPad {
					row[1] = row[0]
					return e
				}
			}
			panic("formats: no ELL row holds two entries")
		}, true},
		{"ell+coo entry after padding", func() Encoded {
			e := encodeELLCOO(tile, ELLWidth, nil)
			swapPastPad(e.idx, e.vals, e.w)
			return e
		}, true},
		{"ell+coo padded slot holds a value", func() Encoded {
			e := encodeELLCOO(tile, ELLWidth, nil)
			e.vals[firstPadAfterEntry(e.idx, e.w)] = 7
			return e
		}, true},
		// Set drops a stored 0, so a decoder that took one would hand
		// back a tile with fewer entries than the stream claims.
		{"ell+coo rectangle explicit zero", func() Encoded {
			e := encodeELLCOO(tile, ELLWidth, nil)
			e.vals[0] = 0
			return e
		}, true},
		{"ell+coo spill explicit zero", func() Encoded {
			e := encodeELLCOO(tile, 1, nil)
			e.sval[0] = 0
			return e
		}, true},
		// A spill tuple that repeats its rectangle row's entry decodes,
		// last write wins, to the spill's value while the kernel adds
		// both products.
		{"ell+coo spill repeats a rectangle column", func() Encoded {
			e := encodeELLCOO(tile, 1, nil)
			i := e.srow[0]
			e.srow = slices.Insert(e.srow, 0, i)
			e.scol = slices.Insert(e.scol, 0, e.idx[int(i)*e.w])
			e.sval = slices.Insert(e.sval, 0, 5)
			return e
		}, true},
		{"ell+coo spill tuples out of order", func() Encoded {
			e := encodeELLCOO(tile, 1, nil)
			e.srow[0], e.srow[1] = e.srow[1], e.srow[0]
			e.scol[0], e.scol[1] = e.scol[1], e.scol[0]
			e.sval[0], e.sval[1] = e.sval[1], e.sval[0]
			return e
		}, true},
	}
}

// insertRowEntry stores (col, v) at stream position at, inside row i,
// shifting the offsets of i and the rows after it.
func insertRowEntry(e *CSREnc, i, at int, col int32, v float64) *CSREnc {
	e.colIdx = slices.Insert(e.colIdx, at, col)
	e.vals = slices.Insert(e.vals, at, v)
	for k := i; k < e.p; k++ {
		e.offsets[k]++
	}
	return e
}

// insertColEntry stores (row, v) at stream position at, inside column j,
// shifting the offsets of j and the columns after it.
func insertColEntry(e *CSCEnc, j, at int, row int32, v float64) *CSCEnc {
	e.rows = slices.Insert(e.rows, at, row)
	e.vals = slices.Insert(e.vals, at, v)
	for k := j; k < e.p; k++ {
		e.offsets[k]++
	}
	return e
}

// firstPadAfterEntry returns the offset of the first padding slot that
// follows an entry in a row of the w-wide rectangle idx.
func firstPadAfterEntry(idx []int32, w int) int {
	for base := 0; base+w <= len(idx); base += w {
		for k := 1; k < w && idx[base] != ellPad; k++ {
			if idx[base+k] == ellPad {
				return base + k
			}
		}
	}
	panic("formats: no rectangle row holds an entry before a pad")
}

// swapPastPad moves the last entry of a row of the w-wide rectangle past
// the padding slot after it, leaving the row's entries intact but no
// longer left-packed.
func swapPastPad(idx []int32, vals []float64, w int) {
	k := firstPadAfterEntry(idx[:len(idx)/w*w], w)
	idx[k-1], idx[k] = idx[k], idx[k-1]
	vals[k-1], vals[k] = vals[k], vals[k-1]
}

// sliceWithPad returns the stream offset and width of the first slice of
// a sliced-ELL encoding whose rectangle has a row with an entry before a
// pad.
func sliceWithPad(idx, widths []int32, c int) (base, w int) {
	for _, w32 := range widths {
		w = int(w32)
		for r := 0; r < c && w > 1; r++ {
			row := idx[base+r*w : base+(r+1)*w]
			if row[0] != ellPad && row[w-1] == ellPad {
				return base, w
			}
		}
		base += c * w
	}
	panic("formats: no slice holds an entry before a pad")
}

// TestCorruptionDetection injects stream corruption per format and checks
// the decoder reports ErrCorrupt rather than silently mis-decoding.
func TestCorruptionDetection(t *testing.T) {
	tile := corruptionTile()
	for _, c := range corruptionCases(tile) {
		t.Run(c.name, func(t *testing.T) {
			enc := c.corrupt()
			dec, err := Decode(enc)
			if err == nil {
				if c.strict {
					t.Fatal("corrupted stream decoded without error")
				}
				// Corruption may accidentally produce a valid different
				// encoding; it must at least not equal the source tile.
				if dec.EqualValues(tile) {
					t.Fatal("corrupted stream decoded to the original tile without error")
				}
				return
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
		})
	}
}

// TestAcceptedDecodeMatchesKernel: whenever DecodeInto accepts an
// encoding from the corruption table, the encoding's own kernel computes
// the decoded tile's product — for a finite operand, and with +Inf or
// -Inf in each column in turn, so a stored zero or a stored entry the
// decode drops shows up. Non-finite results must sit in the same rows;
// finite ones agree within the engine's 1e-9 verify tolerance.
func TestAcceptedDecodeMatchesKernel(t *testing.T) {
	tile := corruptionTile()
	p := tile.P
	base := testOperand(p, 5)
	xs := [][]float64{base}
	for j := 0; j < p; j++ {
		for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
			x := slices.Clone(base)
			x[j] = inf
			xs = append(xs, x)
		}
	}
	for _, c := range corruptionCases(tile) {
		t.Run(c.name, func(t *testing.T) {
			enc := c.corrupt()
			dec, err := Decode(enc)
			if err != nil {
				return
			}
			for n, x := range xs {
				got, want := make([]float64, p), make([]float64, p)
				enc.SpMV(x, got)
				refSpMV(dec, x, want)
				for i := range want {
					finite := !math.IsNaN(want[i]) && !math.IsInf(want[i], 0)
					if finite != (!math.IsNaN(got[i]) && !math.IsInf(got[i], 0)) ||
						finite && math.Abs(got[i]-want[i]) > 1e-9 {
						t.Fatalf("operand %d row %d: kernel %v, decoded tile %v", n, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestDecodeIntoReusedTileMatchesFresh decodes every format's encodings of
// the golden corpus, shuffled across formats and partition sizes, into one
// recycled tile — with failed decodes of a corrupt stream mixed in — and
// requires each result to equal a fresh Decode, so nothing an earlier
// decode staged leaks into a later one.
func TestDecodeIntoReusedTileMatchesFresh(t *testing.T) {
	var encs []Encoded
	for _, tile := range goldenTiles(t) {
		for _, k := range All() {
			encs = append(encs, Encode(k, tile))
		}
	}
	xrand.New(7).Shuffle(len(encs), func(i, j int) { encs[i], encs[j] = encs[j], encs[i] })
	// Stages (0,0) and (1,1), then fails on an out-of-range tuple.
	corrupt := &COOEnc{p: 8, rows: []int32{0, 1, 9, cooSentinel}, cols: []int32{0, 1, 0, cooSentinel},
		vals: []float64{1, 2, 3, 0}}
	reused := matrix.NewTile(1, 0, 0)
	for n, e := range encs {
		if n%5 == 0 {
			if err := corrupt.DecodeInto(reused); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("corrupt COO stream: got %v, want ErrCorrupt", err)
			}
		}
		if err := e.DecodeInto(reused); err != nil {
			t.Fatalf("%v p=%d: DecodeInto: %v", e.Kind(), e.P(), err)
		}
		fresh, err := Decode(e)
		if err != nil {
			t.Fatalf("%v p=%d: Decode: %v", e.Kind(), e.P(), err)
		}
		if !reused.EqualValues(fresh) {
			t.Fatalf("%v p=%d: reused-tile decode differs from a fresh decode", e.Kind(), e.P())
		}
	}
}

func TestEncodeUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Encode with unknown kind did not panic")
		}
	}()
	Encode(Kind(12345), matrix.NewTile(8, 0, 0))
}

// TestSELLTighterThanELL: slicing can only shrink the padded rectangle.
func TestSELLTighterThanELL(t *testing.T) {
	check := func(seed uint64) bool {
		tile := randomTile(seed, 16, 0.15)
		ell := Encode(ELL, tile).Footprint().TotalBytes()
		sell := Encode(SELL, tile).Footprint().TotalBytes()
		// SELL adds one width word per slice but saves per-slice padding.
		return sell <= ell+4*matrix.BytesPerOffset
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestJDSNoPadding: JDS stores exactly nnz values.
func TestJDSNoPadding(t *testing.T) {
	check := func(seed uint64) bool {
		tile := randomTile(seed, 16, 0.2)
		e := encodeJDS(tile, nil)
		return len(e.vals) == tile.NNZ()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSELLCSShrinksRectangles: σ-window sorting concentrates long rows
// into the same slices, so SELL-C-σ's padded rectangles never exceed
// unsorted SELL's (the permutation vector is its fixed price).
func TestSELLCSShrinksRectangles(t *testing.T) {
	check := func(seed uint64) bool {
		tile := randomTile(seed, 16, 0.15)
		sell := Encode(SELL, tile).Footprint()
		scs := Encode(SELLCS, tile).Footprint()
		permBytes := 16 * matrix.BytesPerIndex
		return scs.TotalBytes() <= sell.TotalBytes()+permBytes
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestSELLCSWindowLocality: the permutation never moves a row outside
// its σ window.
func TestSELLCSWindowLocality(t *testing.T) {
	tile := randomTile(3, 16, 0.3)
	e := encodeSELLCS(tile, SELLSlice, SELLCSigmaWindow, nil)
	for pos, orig := range e.perm {
		if pos/SELLCSigmaWindow != int(orig)/SELLCSigmaWindow {
			t.Fatalf("row %d moved to position %d, outside its sigma window", orig, pos)
		}
	}
}

// TestELLCOOCapsWidth: the hybrid never exceeds the configured cap.
func TestELLCOOCapsWidth(t *testing.T) {
	// A tile with one full row would force plain ELL to width p.
	tile := matrix.NewTile(16, 0, 0)
	for j := 0; j < 16; j++ {
		tile.Set(3, j, 1)
	}
	e := encodeELLCOO(tile, ELLWidth, nil)
	if e.Width() != ELLWidth {
		t.Fatalf("hybrid width = %d, want %d", e.Width(), ELLWidth)
	}
	if e.spill() != 16-ELLWidth {
		t.Fatalf("spill = %d, want %d", e.spill(), 16-ELLWidth)
	}
}
