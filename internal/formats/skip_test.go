package formats

import (
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

// TestCSRSkipListContents: the list holds exactly the non-empty row
// indices, ascending — one entry per NonZeroRows, and it is derived
// metadata: a decode/re-encode round trip rebuilds it identically.
func TestCSRSkipListContents(t *testing.T) {
	tile := matrix.NewTile(16, 0, 0)
	for _, i := range []int{1, 5, 6, 13} {
		tile.Set(i, i, float64(i+1))
	}
	e := Encode(CSR, tile).(*CSREnc)
	want := []int32{1, 5, 6, 13}
	if len(e.skip) != len(want) {
		t.Fatalf("skip = %v, want %v", e.skip, want)
	}
	for k, i := range want {
		if e.skip[k] != i {
			t.Fatalf("skip = %v, want %v", e.skip, want)
		}
	}
	if e.Stats().NonZeroRows != len(want) {
		t.Fatalf("NonZeroRows = %d, skip holds %d rows", e.Stats().NonZeroRows, len(want))
	}
	dec, err := Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	re := Encode(CSR, dec).(*CSREnc)
	if len(re.skip) != len(e.skip) {
		t.Fatalf("re-encoded skip = %v, want %v", re.skip, e.skip)
	}
	for k := range e.skip {
		if re.skip[k] != e.skip[k] {
			t.Fatalf("re-encoded skip = %v, want %v", re.skip, e.skip)
		}
	}
}
