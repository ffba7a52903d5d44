package formats

import (
	"reflect"
	"testing"

	"copernicus/internal/matrix"
	"copernicus/internal/xrand"
)

// checkExactStreams fails unless every stream of e, those of an embedded
// layout included, has cap == len, so an append on one can never write
// into memory another stream owns.
func checkExactStreams(t *testing.T, e Encoded) {
	t.Helper()
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch {
			case f.Kind() == reflect.Struct:
				walk(f)
			case f.Kind() == reflect.Slice && f.Cap() != f.Len():
				t.Fatalf("%v p=%d: stream %s has len %d, cap %d", e.Kind(), e.P(), v.Type().Field(i).Name, f.Len(), f.Cap())
			}
		}
	}
	walk(reflect.ValueOf(e).Elem())
}

// TestSlabStreamsExactZeroedDisjoint hands out streams of mixed sizes —
// empty, small, and above a quarter chunk — and checks each is exactly
// sized, zeroed, and still holds its own marker after every later
// request and an append on each of them.
func TestSlabStreamsExactZeroedDisjoint(t *testing.T) {
	for _, sl := range []*Slab{new(Slab), nil} {
		r := xrand.New(3)
		var ints [][]int32
		var floats [][]float64
		for k := 1; k <= 2000; k++ {
			n := r.Intn(3000)
			if r.Intn(4) != 0 {
				n = r.Intn(100)
			}
			a, b := sl.int32s(n), sl.float64s(n)
			if len(a) != n || cap(a) != n || len(b) != n || cap(b) != n {
				t.Fatalf("request %d of %d: got len/cap %d/%d and %d/%d", k, n, len(a), cap(a), len(b), cap(b))
			}
			for x := range a {
				if a[x] != 0 || b[x] != 0 {
					t.Fatalf("request %d: stream not zeroed at %d", k, x)
				}
				a[x], b[x] = int32(k), float64(k)
			}
			ints, floats = append(ints, a), append(floats, b)
		}
		for k := range ints {
			_ = append(ints[k], -1)
			_ = append(floats[k], -1)
		}
		for k := range ints {
			for x := range ints[k] {
				if ints[k][x] != int32(k+1) || floats[k][x] != float64(k+1) {
					t.Fatalf("stream %d overwritten at %d", k+1, x)
				}
			}
		}
	}
}

// TestSlabEncodingsSurviveCorpus encodes a corpus of tiles of mixed sizes
// in every format through one slab, then checks every encoding: exact
// streams, the same streams as an exactly allocated Encode, and a decode
// back to its own tile.
func TestSlabEncodingsSurviveCorpus(t *testing.T) {
	tiles := goldenTiles(t)
	for seed := uint64(1); seed <= 12; seed++ {
		p := []int{4, 12, 64}[seed%3]
		tiles = append(tiles, randomTile(seed, p, []float64{0.01, 0.1, 0.5, 1}[seed%4]))
	}
	type item struct {
		tile *matrix.Tile
		enc  Encoded
	}
	sl := new(Slab)
	var items []item
	for _, tile := range tiles {
		for _, k := range All() {
			if ValidateP(k, tile.P) == nil {
				items = append(items, item{tile, sl.Encode(k, tile)})
			}
		}
	}
	dec := matrix.NewTile(1, 0, 0)
	for _, it := range items {
		checkExactStreams(t, it.enc)
		exact := Encode(it.enc.Kind(), it.tile)
		checkExactStreams(t, exact)
		if !encStreamsEqual(t, it.enc, exact) {
			t.Fatalf("%v p=%d: slab encoding differs from the exact one", it.enc.Kind(), it.tile.P)
		}
		if err := it.enc.DecodeInto(dec); err != nil {
			t.Fatalf("%v p=%d: decode: %v", it.enc.Kind(), it.tile.P, err)
		}
		if !dec.SameEntries(it.tile) {
			t.Fatalf("%v p=%d: slab encoding no longer decodes to its tile", it.enc.Kind(), it.tile.P)
		}
	}
	for _, b := range []int{2, 8} {
		checkExactStreams(t, EncodeBCSRBlock(randomTile(5, 16, 0.3), b))
	}
	checkExactStreams(t, encodeSELL(randomTile(6, 16, 0.3), 8, nil))
	checkExactStreams(t, EncodeELLCOOCap(randomTile(7, 16, 0.3), 2))
}

// slabPass is one pass of mixed requests through sl: small streams that
// share a chunk, and oversized int32 and float64 streams above a quarter
// chunk. Every stream is checked exact-length and
// zeroed, then marked with its request number; the passes' streams are
// returned for the disjointness check.
func slabPass(t *testing.T, sl *Slab) (ints [][]int32, floats [][]float64) {
	t.Helper()
	sizes := []int{0, 3, 100, slabFloats/4 + 1, 17, slabFloats, 900, slabInts/4 + 5, 1}
	for k, n := range sizes {
		a, b := sl.int32s(n), sl.float64s(n)
		if len(a) != n || cap(a) != n || len(b) != n || cap(b) != n {
			t.Fatalf("request %d of %d: got len/cap %d/%d and %d/%d", k, n, len(a), cap(a), len(b), cap(b))
		}
		for x := range a {
			if a[x] != 0 || b[x] != 0 {
				t.Fatalf("request %d of %d: stream not zeroed at %d", k, n, x)
			}
			a[x], b[x] = int32(k+1), float64(k+1)
		}
		ints, floats = append(ints, a), append(floats, b)
	}
	return ints, floats
}

// TestSlabResetReuses: after Reset a slab hands its memory out again —
// streams still exact-length, zeroed, mutually disjoint and safe to
// append to — and a second identical pass, oversized streams included,
// allocates nothing. A nil slab's Reset is a no-op.
func TestSlabResetReuses(t *testing.T) {
	sl := new(Slab)
	slabPass(t, sl)
	sl.Reset()
	ints, floats := slabPass(t, sl)
	for k := range ints {
		_ = append(ints[k], -1)
		_ = append(floats[k], -1)
	}
	for k := range ints {
		for x := range ints[k] {
			if ints[k][x] != int32(k+1) || floats[k][x] != float64(k+1) {
				t.Fatalf("stream %d overwritten at %d after Reset", k+1, x)
			}
		}
	}

	sizes := []int{3, 100, slabFloats/4 + 1, 17, slabFloats, 900, slabInts/4 + 5}
	pass := func() {
		for _, n := range sizes {
			sl.int32s(n)
			sl.float64s(n)
		}
		sl.Reset()
	}
	pass()
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
		t.Fatalf("a repeated pass after Reset made %v allocations, want 0", allocs)
	}

	var nilSlab *Slab
	nilSlab.Reset()
	if a := nilSlab.int32s(5); len(a) != 5 || cap(a) != 5 {
		t.Fatalf("nil slab after Reset: len/cap %d/%d", len(a), cap(a))
	}
}

// TestSlabOwnsEncoderStructs: a slab hands out its own encoder struct of
// a kind once per Reset, so Encode → Reset → Encode of one kind allocates
// nothing once the slab is warm, in every format. Two Encodes of one kind
// without a Reset between them get distinct structs, and both encodings
// decode to their own tiles.
func TestSlabOwnsEncoderStructs(t *testing.T) {
	a, b := randomTile(21, 16, 0.3), randomTile(22, 16, 0.1)
	dec := matrix.NewTile(1, 0, 0)
	for _, k := range All() {
		sl := new(Slab)
		sl.Encode(k, a)
		sl.Reset()
		allocs := testing.AllocsPerRun(50, func() {
			sl.Encode(k, a)
			sl.Reset()
		})
		if allocs != 0 && !raceEnabled {
			t.Errorf("%v: Encode → Reset made %v allocations, want 0", k, allocs)
		}
		ea, eb := sl.Encode(k, a), sl.Encode(k, b)
		if ea == eb {
			t.Fatalf("%v: two Encodes without a Reset share one encoder struct", k)
		}
		for _, c := range []struct {
			enc  Encoded
			tile *matrix.Tile
		}{{ea, a}, {eb, b}} {
			if err := c.enc.DecodeInto(dec); err != nil {
				t.Fatalf("%v: decode: %v", k, err)
			}
			if !dec.SameEntries(c.tile) {
				t.Fatalf("%v: an encoding kept beside a second one of its kind no longer decodes to its tile", k)
			}
		}
	}
}

// reflectHostBytes is HostBytes' reference: it walks every field of the
// encoder struct by reflection, an embedded layout's included, so a
// stream added to an encoder and left out of HostBytes' per-format list
// shows up as a difference.
func reflectHostBytes(e Encoded) int64 {
	v := reflect.ValueOf(e).Elem()
	var stream func(f reflect.Value) int64
	stream = func(f reflect.Value) int64 {
		var n int64
		switch f.Kind() {
		case reflect.Struct:
			for i := 0; i < f.NumField(); i++ {
				n += stream(f.Field(i))
			}
		case reflect.Slice:
			n = int64(f.Cap()) * int64(f.Type().Elem().Size())
			for j := 0; f.Type().Elem().Kind() == reflect.Slice && j < f.Len(); j++ {
				n += stream(f.Index(j))
			}
		}
		return n
	}
	return int64(v.Type().Size()) + stream(v)
}

// TestHostBytesCountsEveryStream: HostBytes equals a reflective walk of
// every field of every format's encoding, over tiles from empty to full.
func TestHostBytesCountsEveryStream(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		density := []float64{0, 0.05, 0.3, 1}[seed%4]
		tile := randomTile(seed, 16, density)
		for _, k := range All() {
			e := Encode(k, tile)
			if got, want := HostBytes(e), reflectHostBytes(e); got != want {
				t.Fatalf("%v density %v: HostBytes = %d, reflective walk = %d", k, density, got, want)
			}
		}
	}
}
