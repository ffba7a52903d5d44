package hlsim

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/matrix"
)

// crossCheckTile is an 8×8 tile at origin (16, 24) with an empty row 3
// and a NaN entry, which must round-trip as itself.
func crossCheckTile() *matrix.Tile {
	tl := matrix.NewTile(8, 16, 24)
	tl.Set(0, 1, 2)
	tl.Set(0, 5, 3)
	tl.Set(2, 2, -1)
	tl.Set(7, 0, 4)
	tl.Set(7, 7, math.NaN())
	return tl
}

// TestCrossCheckMismatchMessages encodes a wrong tile in every format, so
// the stream decodes cleanly but not to the original, and requires the
// cross-check to fail with the message naming the first differing local
// row and column: a flipped value, a value swapped for NaN, a shifted
// column, and an extra entry in an empty row. The original's own encoding
// (NaN included) must pass.
func TestCrossCheckMismatchMessages(t *testing.T) {
	cases := []struct {
		name  string
		wrong func(tl *matrix.Tile)
		want  string // after "hlsim: tile (16,24): <format> "
	}{
		{"flipped value", func(tl *matrix.Tile) { tl.Set(0, 5, -3) },
			"decode mismatch at local (0,5): -3 != 3"},
		{"value swapped for NaN", func(tl *matrix.Tile) { tl.Set(2, 2, math.NaN()) },
			"decode mismatch at local (2,2): NaN != -1"},
		{"shifted column", func(tl *matrix.Tile) { tl.Set(0, 5, 0); tl.Set(0, 6, 3) },
			"decode mismatch at local row 0: column 6 != 5"},
		{"extra entry in an empty row", func(tl *matrix.Tile) { tl.Set(3, 4, 1.5) },
			"decode mismatch at local row 3: 1 non-zeros != 0"},
	}
	orig := crossCheckTile()
	dec := matrix.NewTile(1, 0, 0)
	for _, k := range formats.All() {
		if err := formats.Encode(k, orig).DecodeInto(dec); err != nil {
			t.Fatalf("%v: decode of the original: %v", k, err)
		}
		if err := crossCheck(k, orig, dec); err != nil {
			t.Fatalf("%v: original failed its own cross-check: %v", k, err)
		}
		for _, c := range cases {
			wrong := crossCheckTile()
			c.wrong(wrong)
			if err := formats.Encode(k, wrong).DecodeInto(dec); err != nil {
				t.Fatalf("%v %s: decode: %v", k, c.name, err)
			}
			want := fmt.Sprintf("hlsim: tile (16,24): %v %s", k, c.want)
			if err := crossCheck(k, orig, dec); err == nil || err.Error() != want {
				t.Errorf("%v %s: cross-check error %v, want %q", k, c.name, err, want)
			}
		}
	}
}

// TestDecodeCheckRoutes: decodeCheck verifies an honest encoding of the
// nine matched formats without touching the decode tile (a nil one would
// panic) and decodes the other four; a wrong encoding of every format
// gets the decode-and-cross-check message.
func TestDecodeCheckRoutes(t *testing.T) {
	streamed := map[formats.Kind]bool{formats.Dense: true, formats.CSR: true, formats.BCSR: true,
		formats.COO: true, formats.ELL: true, formats.SELL: true,
		formats.CSC: true, formats.LIL: true, formats.DIA: true}
	orig := crossCheckTile()
	wrong := crossCheckTile()
	wrong.Set(0, 5, -3)
	for _, k := range formats.All() {
		dec := matrix.NewTile(1, 0, 0)
		if streamed[k] {
			dec = nil
		}
		if err := decodeCheck(k, orig, formats.Encode(k, orig), dec); err != nil {
			t.Fatalf("%v: honest encoding failed: %v", k, err)
		}
		want := fmt.Sprintf("hlsim: tile (16,24): %v decode mismatch at local (0,5): -3 != 3", k)
		err := decodeCheck(k, orig, formats.Encode(k, wrong), matrix.NewTile(1, 0, 0))
		if err == nil || err.Error() != want {
			t.Errorf("%v: wrong encoding: error %v, want %q", k, err, want)
		}
	}
}

// firstUses are the plan's entry points, each of which may be the first
// use of a format and so lead its one warmup pass.
var firstUses = []struct {
	name string
	use  func(pl *Plan, k formats.Kind, x []float64) error
}{
	{"RunIntoContext", func(pl *Plan, k formats.Kind, x []float64) error {
		var r Result
		return pl.RunIntoContext(context.Background(), k, x, &r)
	}},
	{"RunParallel", func(pl *Plan, k formats.Kind, x []float64) error {
		_, err := pl.RunParallel(k, x, 3)
		return err
	}},
	{"RunSpMM", func(pl *Plan, k formats.Kind, x []float64) error {
		_, err := pl.RunSpMM(k, x, 1)
		return err
	}},
	{"RunExecIntoContext", func(pl *Plan, k formats.Kind, x []float64) error {
		var r Result
		return pl.RunExecIntoContext(context.Background(), k, x, &r, 2)
	}},
	{"Trace", func(pl *Plan, k formats.Kind, _ []float64) error {
		_, err := pl.Trace(k)
		return err
	}},
	{"Schedule", func(pl *Plan, k formats.Kind, _ []float64) error {
		_, err := pl.Schedule(k)
		return err
	}},
	{"KernelCycles", func(pl *Plan, k formats.Kind, _ []float64) error {
		_, err := pl.KernelCycles(context.Background(), k, 60)
		return err
	}},
	{"SpMMCycles", func(pl *Plan, k formats.Kind, _ []float64) error {
		_, err := pl.SpMMCycles(context.Background(), k, 4)
		return err
	}},
}

// TestVerifyReportsWrongEncoding swaps one warmup encoding of a plan for
// the encoding of a tile with one flipped value and requires the first
// use of the format, whichever entry point it is, to fail with the
// cross-check message for that tile: a cycle-model-only use (Trace,
// Schedule, KernelCycles, SpMMCycles) must not price an encoding that
// does not round-trip. The failure is sticky, so a second use of another
// entry point reports it too.
func TestVerifyReportsWrongEncoding(t *testing.T) {
	t.Cleanup(func() { planTileHook = nil })
	m := gen.Random(64, 0.1, 13)
	x := testVectorFor(m.Cols)
	for _, fu := range firstUses {
		for _, k := range formats.Core() {
			pl, err := NewPlan(Default(), m, 16)
			if err != nil {
				t.Fatal(err)
			}
			ti := len(pl.pt.Tiles) / 2
			tile := pl.pt.Tiles[ti]
			wrong := tile.Clone()
			var i, j int
			var v float64
			for i = 0; i < tile.P; i++ {
				if cols, vals := tile.RowView(i); len(cols) > 0 {
					j, v = int(cols[0]), vals[0]
					break
				}
			}
			wrong.Set(i, j, v+1)
			planTileHook = func(hk formats.Kind, hti int, enc formats.Encoded) formats.Encoded {
				if hk == k && hti == ti {
					return formats.Encode(k, wrong)
				}
				return enc
			}
			want := fmt.Sprintf("hlsim: tile (%d,%d): %v decode mismatch at local (%d,%d): %g != %g",
				tile.Row, tile.Col, k, i, j, v+1, v)
			err = fu.use(pl, k, x)
			planTileHook = nil
			if err == nil || err.Error() != want {
				t.Errorf("%v, first use %s: error %v, want %q", k, fu.name, err, want)
			}
			if _, err := pl.KernelCycles(context.Background(), k, 1); err == nil || err.Error() != want {
				t.Errorf("%v, after first use %s: KernelCycles error %v, want the sticky %q", k, fu.name, err, want)
			}
		}
	}
}

// TestVerifyReportsLowestFailingTile plants wrong encodings at several
// tiles of a plan whose warmup fans out over four workers, delays the
// lowest so that other workers find the higher ones first, and requires
// the first use, whichever entry point it is, to name the lowest every
// time — the tile a serial pass would report.
func TestVerifyReportsLowestFailingTile(t *testing.T) {
	t.Cleanup(func() { planTileHook = nil })
	m := gen.Random(256, 0.05, 17)
	x := testVectorFor(m.Cols)
	usePool(t, 3)
	for _, fu := range firstUses {
		for run := 0; run < 10; run++ {
			pl := mustPlan(t, m, 16)
			pl.SetWorkers(4)
			n := len(pl.pt.Tiles)
			bad := map[int]bool{n / 3: true, n / 2: true, n - 1: true}
			planTileHook = func(k formats.Kind, ti int, enc formats.Encoded) formats.Encoded {
				if !bad[ti] {
					return enc
				}
				if ti == n/3 {
					// Let the other workers reach the higher bad tiles
					// first.
					time.Sleep(5 * time.Millisecond)
				}
				wrong := pl.pt.Tiles[ti].Clone()
				wrong.Set(0, 0, 1e300)
				return formats.Encode(k, wrong)
			}
			err := fu.use(pl, formats.CSR, x)
			planTileHook = nil
			lo := pl.pt.Tiles[n/3]
			prefix := fmt.Sprintf("hlsim: tile (%d,%d): CSR decode mismatch", lo.Row, lo.Col)
			if err == nil || len(err.Error()) < len(prefix) || err.Error()[:len(prefix)] != prefix {
				t.Fatalf("first use %s, run %d: error %v, want %q…", fu.name, run, err, prefix)
			}
		}
	}
}
