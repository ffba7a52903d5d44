package formats

import (
	"slices"
	"testing"

	"copernicus/internal/matrix"
)

// TestCSRSkipListMatchesFullWalk: the skip-list SpMV visits exactly the
// non-empty rows the full offset walk visits, in the same order, with the
// same per-row accumulation — outputs must be bit-identical on every
// adversarial tile shape, including all-empty and mostly-empty tiles.
func TestCSRSkipListMatchesFullWalk(t *testing.T) {
	const p = 32
	for name, tile := range adversarialTiles(p) {
		e := Encode(CSR, tile).(*CSREnc)
		x := make([]float64, p)
		for j := range x {
			x[j] = float64(j%7) - 2.5
		}
		skip := make([]float64, p)
		full := make([]float64, p)
		e.SpMV(x, skip)
		e.SpMVFullWalk(x, full)
		for i := range full {
			if skip[i] != full[i] {
				t.Fatalf("%s: y[%d] = %v via skip list, %v via full walk", name, i, skip[i], full[i])
			}
		}
	}
}

// skipIndex returns e's host-kernel index: the skip list of CSR, the
// ELL family, CSC and LIL, or DIA's extent pairs; nil for formats with
// none.
func skipIndex(e Encoded) []int32 {
	switch e := e.(type) {
	case *CSREnc:
		return e.skip
	case *ELLEnc:
		return e.skip
	case *ELLCOOEnc:
		return e.skip
	case *SELLEnc:
		return e.skip
	case *SELLCSEnc:
		return e.skip
	case *CSCEnc:
		return e.skip
	case *LILEnc:
		return e.skip
	case *DIAEnc:
		return e.ext
	}
	return nil
}

// TestSkipIndexContents: every index holds exactly the stored work of a
// hand-checked tile — ascending non-empty rows (CSR, ELL, ELL+COO) or
// columns (CSC, LIL), (row or sorted position, rectangle offset) pairs
// (SELL, SELL-C-σ), and per-diagonal [lo, hi) non-zero extents (DIA),
// with DIA's lanes holding just those extents — and a decode/re-encode
// round trip rebuilds it identically.
func TestSkipIndexContents(t *testing.T) {
	// Non-zeros at (1,1), (1,6), (5,2), (6,5), (6,6) of an 8×8 tile.
	tile := matrix.NewTile(8, 0, 0)
	for _, ij := range [][2]int{{1, 1}, {1, 6}, {5, 2}, {6, 5}, {6, 6}} {
		tile.Set(ij[0], ij[1], float64(ij[0]+ij[1]+1))
	}
	rows, cols := []int32{1, 5, 6}, []int32{1, 2, 5, 6}
	want := map[Kind][]int32{
		CSR:    rows,
		ELL:    rows,
		ELLCOO: rows,
		CSC:    cols,
		LIL:    cols,
		// Both SELL slices are two wide: rows 1, 5, 6 start at slots
		// 1·2, 8+1·2 and 8+2·2.
		SELL: {1, 2, 5, 10, 6, 12},
		// The σ=8 window sorts rows 1, 6, 5 to positions 0-2 of the
		// first slice (width 2); the second slice is empty.
		SELLCS: {0, 0, 1, 2, 2, 4},
		// Diagonals -3, -1, 0, 5: rows 5, 6, 1-6 and 1.
		DIA: {5, 6, 6, 7, 1, 7, 1, 2},
	}
	for k, w := range want {
		e := Encode(k, tile)
		if got := skipIndex(e); !slices.Equal(got, w) {
			t.Fatalf("%v: index = %v, want %v", k, got, w)
		}
		dec, err := Decode(e)
		if err != nil {
			t.Fatal(err)
		}
		if re := skipIndex(Encode(k, dec)); !slices.Equal(re, w) {
			t.Fatalf("%v: re-encoded index = %v, want %v", k, re, w)
		}
	}
	// DIA stores only those extents, back to back: (5,2); (6,5); (1,1),
	// four in-band zeros, (6,6); and (1,6).
	if got, want := Encode(DIA, tile).(*DIAEnc).lanes, []float64{8, 12, 3, 0, 0, 0, 0, 13, 8}; !slices.Equal(got, want) {
		t.Fatalf("DIA lanes = %v, want %v", got, want)
	}
	if n := Encode(CSR, tile).Stats().NonZeroRows; n != len(rows) {
		t.Fatalf("NonZeroRows = %d, skip lists hold %d rows", n, len(rows))
	}
	for _, k := range All() {
		if len(skipIndex(Encode(k, matrix.NewTile(8, 0, 0)))) != 0 {
			t.Fatalf("%v: empty tile has a non-empty index", k)
		}
	}
}
