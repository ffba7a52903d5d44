package formats

import (
	"fmt"
	"math"
	"testing"

	"copernicus/internal/matrix"
	"copernicus/internal/xrand"
)

// matchedKinds are the formats Matches compares without decoding: the six
// row-major formats, the column lists of CSC and LIL, and DIA.
var matchedKinds = []Kind{Dense, CSR, BCSR, COO, ELL, SELL, CSC, LIL, DIA}

// matchTiles returns the tiles an honest encoding must match at edge p:
// the adversarial shapes (empty, full, one row, one column, diagonal,
// jagged, corners), a tile holding NaN entries, and boundary tiles of a
// partitioned matrix whose edges are not multiples of p.
func matchTiles(t *testing.T, p int) map[string]*matrix.Tile {
	t.Helper()
	tiles := adversarialTiles(p)
	nan := randomTile(21, p, 0.3)
	nan.Set(0, p-1, math.NaN())
	nan.Set(p-1, 0, math.NaN())
	tiles["nan"] = nan

	n := 3*p - p/2 - 1 // the last block row and column are short
	r := xrand.New(uint64(p))
	b := matrix.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Float64() < 0.2 {
				b.Add(i, j, r.ValueIn(-4, 4))
			}
		}
	}
	pt := matrix.Partition(b.Build(), p)
	if len(pt.Tiles) != 9 {
		t.Fatalf("p=%d: %d non-zero partition tiles, want 9", p, len(pt.Tiles))
	}
	for _, tl := range pt.Tiles {
		if tl.Row+p > n || tl.Col+p > n {
			tiles[fmt.Sprintf("boundary(%d,%d)", tl.Row, tl.Col)] = tl
		}
	}
	return tiles
}

// TestMatchesHonestEncodings: for the nine matched formats, an honest
// Encode of a tile matches it — at every p the warmup uses and more —
// and so does the slab-carved encode the warmup makes.
func TestMatchesHonestEncodings(t *testing.T) {
	var sl Slab
	for _, p := range []int{8, 16, 32, 64} {
		for name, tile := range matchTiles(t, p) {
			for _, k := range matchedKinds {
				if !Matches(Encode(k, tile), tile) {
					t.Errorf("p=%d %s: honest %v encoding does not match its tile", p, name, k)
				}
				if !Matches(sl.Encode(k, tile), tile) {
					t.Errorf("p=%d %s: slab %v encoding does not match its tile", p, name, k)
				}
				sl.Reset()
			}
		}
	}
}

// TestMatchesOtherKindsFalse: the four formats without a matcher (JDS,
// SELL-C-σ, ELL+COO and DOK) never match, so the warmup decodes them.
func TestMatchesOtherKindsFalse(t *testing.T) {
	other := map[Kind]bool{}
	for _, k := range All() {
		other[k] = true
	}
	for _, k := range matchedKinds {
		delete(other, k)
	}
	if len(other) != 4 {
		t.Fatalf("%d formats without a matcher, want 4", len(other))
	}
	for name, tile := range matchTiles(t, 16) {
		for k := range other {
			if Matches(Encode(k, tile), tile) {
				t.Errorf("%s: %v matched; only the nine matched formats have a matcher", name, k)
			}
		}
	}
}

// TestMatchesRejectsOtherTiles: an encoding never matches a tile with
// other entries or another size.
func TestMatchesRejectsOtherTiles(t *testing.T) {
	tile := randomTile(31, 16, 0.3)
	moved := tile.Clone()
	cols, _ := moved.RowView(2)
	j := int(cols[0])
	moved.Set(2, j, 0)
	moved.Set(2, 15-j, 1.5) // an entry moves within row 2
	changed := tile.Clone()
	changed.Set(5, 5, changed.At(5, 5)+1)
	bigger := randomTile(31, 20, 0.3)
	for _, k := range matchedKinds {
		enc := Encode(k, tile)
		for name, o := range map[string]*matrix.Tile{"moved": moved, "changed": changed} {
			if Matches(enc, o) {
				t.Errorf("%v: encoding matched the %s tile", k, name)
			}
		}
		if Matches(enc, bigger) {
			t.Errorf("%v: a p=16 encoding matched a p=20 tile", k)
		}
	}
}

// TestCorruptionNeverMatches: no TestCorruptionDetection corruption
// matches its source tile, whether it fails to decode or decodes to
// another tile.
func TestCorruptionNeverMatches(t *testing.T) {
	tile := corruptionTile()
	for _, c := range corruptionCases(tile) {
		if Matches(c.corrupt(), tile) {
			t.Errorf("%s: corrupted encoding matches its source tile", c.name)
		}
	}
}

// TestMatchesRejectsNearMisses: encodings that differ from an honest one
// in a single place the per-entry compare alone would not see — a stray
// stored value outside the tile's entries, a tuple moved to another row,
// a misaligned block that still covers every entry, a column-list entry
// moved to the next column, a diagonal renumbered — never match, and
// each either fails to decode or decodes to other entries.
func TestMatchesRejectsNearMisses(t *testing.T) {
	tile := matrix.NewTile(8, 0, 0)
	for i := 0; i < 4; i++ {
		tile.Set(i, 3, float64(i+1)) // column 3 of block column 0
	}
	tile.Set(5, 7, 6) // so DIA's diagonal 2 spans rows 1–5, with 2–4 zero
	tile.Set(6, 1, -2)
	tile.Set(6, 2, 5) // so ELL's rectangle is 2 wide
	cases := map[string]func() Encoded{
		"dense stray value": func() Encoded {
			e := encodeDense(tile, nil)
			e.val[5*8+5] = 4
			return e
		},
		"bcsr stray in-block value": func() Encoded {
			e := encodeBCSR(tile, 4, nil)
			e.vals[0] = 4 // slot (0,0) of the first block
			return e
		},
		"bcsr misaligned block": func() Encoded {
			e := encodeBCSR(tile, 4, nil)
			e.colIdx[0] = 3 // covers columns 3–6; move each row's value to slot 0
			for r := 0; r < 4; r++ {
				e.vals[r*4], e.vals[r*4+3] = e.vals[r*4+3], 0
			}
			return e
		},
		"ell entry in a padding slot": func() Encoded {
			e := encodeELL(tile, nil)
			e.idx[e.w-1] = 5 // row 0 holds one entry; its last slot was padding
			return e
		},
		"sell trailing padding slots": func() Encoded {
			e := encodeSELL(tile, 4, nil)
			e.idx = append(e.idx, ellPad, ellPad)
			e.vals = append(e.vals, 0, 0)
			return e
		},
		"coo tuple in another row": func() Encoded {
			e := encodeCOO(tile, nil)
			e.rows[len(e.rows)-2] = 7 // (6,2) becomes (7,2)
			return e
		},
		"csc entry moved to the neighbouring column": func() Encoded {
			e := encodeCSC(tile, nil)
			e.offsets[0]++ // column 1's only entry, (6,1), becomes (6,0)
			return e
		},
		"lil entry moved to the neighbouring column": func() Encoded {
			e := encodeLIL(tile, nil)
			e.offsets[0]++
			return e
		},
		"dia stray non-zero inside an extent": func() Encoded {
			e := encodeDIA(tile, nil)
			off := 0
			for k, d := range e.diagNo {
				if d == 2 {
					e.lanes[off+3-int(e.ext[2*k])] = 4 // (3,5), between (1,3) and (5,7)
					return e
				}
				off += int(e.ext[2*k+1] - e.ext[2*k])
			}
			panic("no diagonal 2")
		},
		"dia diagonal number shifted by one": func() Encoded {
			e := encodeDIA(tile, nil)
			e.diagNo[len(e.diagNo)-1]++ // (0,3) becomes (0,4): extent [0,1) stays in range
			return e
		},
	}
	for name, corrupt := range cases {
		enc := corrupt()
		if Matches(enc, tile) {
			t.Errorf("%s: matches", name)
		}
		if dec, err := Decode(enc); err == nil && dec.SameEntries(tile) {
			t.Errorf("%s: decodes to the tile, so it is no near miss", name)
		}
	}
}

// TestMatchesStoredZeroOrNegZero: a stored 0 or -0 where the tile has an
// entry never matches: the decode drops it, so the decoded tile lacks
// the entry.
func TestMatchesStoredZeroOrNegZero(t *testing.T) {
	tile := randomTile(41, 8, 0.4)
	for _, z := range []float64{0, math.Copysign(0, -1)} {
		for _, k := range matchedKinds {
			enc := Encode(k, tile)
			vals := valueStream(enc)
			for n, v := range vals {
				if v == 0 {
					continue
				}
				vals[n] = z
				break
			}
			if Matches(enc, tile) {
				t.Errorf("%v: encoding storing %g in place of an entry matches", k, z)
			}
		}
	}
}

// TestMatchesNonCanonicalSource: a source tile read from a CSR that
// breaks its invariants — a stored zero, a repeated column — decodes to
// a tile without the zero or the repeat, so no encoding of it matches.
func TestMatchesNonCanonicalSource(t *testing.T) {
	for name, m := range map[string]*matrix.CSR{
		"stored zero":     {Rows: 8, Cols: 8, RowPtr: []int{0, 2, 2, 2, 3, 3, 3, 3, 3}, Col: []int{1, 4, 6}, Val: []float64{1.5, 0, 2.5}},
		"repeated column": {Rows: 8, Cols: 8, RowPtr: []int{0, 2, 2, 2, 3, 3, 3, 3, 3}, Col: []int{4, 4, 6}, Val: []float64{1.5, 3, 2.5}},
	} {
		tile := matrix.Partition(m, 8).Tiles[0]
		for _, k := range matchedKinds {
			enc := Encode(k, tile)
			if Matches(enc, tile) {
				t.Errorf("%s: %v matched the source tile", name, k)
			}
			if dec, err := Decode(enc); err == nil && dec.SameEntries(tile) {
				t.Errorf("%s: %v decode reproduced the source tile", name, k)
			}
		}
	}
}

// valueStream returns the stored value stream of a matched encoding.
func valueStream(e Encoded) []float64 {
	switch e := e.(type) {
	case *DenseEnc:
		return e.val
	case *CSREnc:
		return e.vals
	case *BCSREnc:
		return e.vals
	case *COOEnc:
		return e.vals
	case *ELLEnc:
		return e.vals
	case *SELLEnc:
		return e.vals
	case *CSCEnc:
		return e.vals
	case *LILEnc:
		return e.vals
	case *DIAEnc:
		return e.lanes
	}
	panic("formats: no value stream for " + e.Kind().String())
}

// TestMatchesAllocsZero: Matches allocates nothing on an honest encoding
// of any matched format; the column-list cursors and the DIA lane table
// come from the pooled scratch.
func TestMatchesAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, p := range []int{8, 32} {
		tile := randomTile(51, p, 0.3)
		for _, k := range matchedKinds {
			enc := Encode(k, tile)
			allocs := testing.AllocsPerRun(50, func() {
				if !Matches(enc, tile) {
					t.Fatalf("p=%d %v: honest encoding does not match its tile", p, k)
				}
			})
			if allocs != 0 {
				t.Errorf("p=%d %v: Matches made %v allocations, want 0", p, k, allocs)
			}
		}
	}
}
