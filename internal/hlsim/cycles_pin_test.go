package hlsim

import (
	"context"
	"errors"
	"testing"

	"copernicus/internal/formats"
	"copernicus/internal/matrix"
)

// Test helpers unwrapping the cycle model's error returns: the model only
// errors on a Kind it has no equations for, which in these tests is a
// test bug, not a property under test.

func mustDecomp(t *testing.T, c Config, enc formats.Encoded) int {
	t.Helper()
	v, err := c.decompCycles(enc, enc.Stats())
	if err != nil {
		t.Fatalf("decompCycles(%v): %v", enc.Kind(), err)
	}
	return v
}

func mustCompute(t *testing.T, c Config, enc formats.Encoded) int {
	t.Helper()
	tr, _, err := runTile(c, enc)
	if err != nil {
		t.Fatalf("runTile(%v): %v", enc.Kind(), err)
	}
	return tr.ComputeCycles
}

func mustSigma(t *testing.T, c Config, enc formats.Encoded) float64 {
	t.Helper()
	v, err := c.Sigma(enc)
	if err != nil {
		t.Fatalf("Sigma(%v): %v", enc.Kind(), err)
	}
	return v
}

func mustDirectCompute(t *testing.T, c Config, enc formats.Encoded) int {
	t.Helper()
	v, err := c.directComputeCycles(enc)
	if err != nil {
		t.Fatalf("directComputeCycles(%v): %v", enc.Kind(), err)
	}
	return v
}

func mustSigmaDirect(t *testing.T, c Config, enc formats.Encoded) float64 {
	t.Helper()
	v, err := c.SigmaDirect(enc)
	if err != nil {
		t.Fatalf("SigmaDirect(%v): %v", enc.Kind(), err)
	}
	return v
}

// pinTile is the fixed tile every pinned cycle count below is computed
// on: the paper's Fig. 1 example extended with one denser row, so block,
// diagonal, slice and jagged structures are all non-trivial.
func pinTile() *matrix.Tile {
	tile := matrix.NewTile(8, 0, 0)
	tile.Set(0, 3, 1)
	tile.Set(2, 1, 4)
	tile.Set(2, 5, 5)
	tile.Set(2, 6, 6)
	tile.Set(4, 7, 2)
	tile.Set(7, 7, 3)
	return tile
}

// TestCycleModelPinned is the analytic model's drift guard: one case per
// implemented format kind, asserting the exact decompression, compute
// and memory cycles the default configuration produces on
// pinTile. The backend refactor moved the call path of these functions
// (core → backend.Analytic → Plan); this table pins their values, so any
// seam that silently shifts a constant fails here rather than in a
// regenerated artifact diff. A calibration change must consciously update
// this table.
func TestCycleModelPinned(t *testing.T) {
	cfg := Default()
	tile := pinTile()
	cases := []struct {
		kind                 formats.Kind
		decomp, compute, mem int
	}{
		{formats.Dense, 0, 32, 36},
		{formats.CSR, 32, 48, 11},
		{formats.BCSR, 13, 45, 28},
		{formats.COO, 14, 30, 10},
		{formats.LIL, 26, 42, 11},
		{formats.ELL, 8, 40, 16},
		{formats.DIA, 56, 72, 20},
		{formats.CSC, 176, 192, 11},
		{formats.DOK, 23, 39, 12},
		{formats.SELL, 10, 42, 13},
		{formats.ELLCOO, 12, 44, 16},
		{formats.JDS, 23, 39, 13},
		{formats.SELLCS, 26, 58, 15},
	}
	if len(cases) != formats.NumKinds {
		t.Fatalf("pin table covers %d kinds, formats implements %d", len(cases), formats.NumKinds)
	}
	for _, tc := range cases {
		enc := formats.Encode(tc.kind, tile)
		if got := mustDecomp(t, cfg, enc); got != tc.decomp {
			t.Errorf("%v: DecompCycles = %d, pinned %d", tc.kind, got, tc.decomp)
		}
		if got := mustCompute(t, cfg, enc); got != tc.compute {
			t.Errorf("%v: ComputeCycles = %d, pinned %d", tc.kind, got, tc.compute)
		}
		if got := cfg.memCycles(enc.Footprint()); got != tc.mem {
			t.Errorf("%v: MemCycles = %d, pinned %d", tc.kind, got, tc.mem)
		}
	}
}

// fakeEncoded reports an out-of-range Kind to the cycle model — the only
// way to reach its default branches now that Encode covers every Kind.
type fakeEncoded struct{ formats.Encoded }

func (fakeEncoded) Kind() formats.Kind { return formats.Kind(formats.NumKinds + 7) }

// TestUnknownKindIsErrorNotPanic: the cycle model refuses unmodelled
// kinds with ErrUnknownFormat instead of panicking (the error is plumbed
// through Characterize/Sweep; services map it to a client fault).
func TestUnknownKindIsErrorNotPanic(t *testing.T) {
	cfg := Default()
	enc := fakeEncoded{formats.Encode(formats.CSR, pinTile())}
	if _, err := cfg.decompCycles(enc, enc.Stats()); !errors.Is(err, ErrUnknownFormat) {
		t.Fatalf("decompCycles error = %v, want ErrUnknownFormat", err)
	}
	if _, err := cfg.Sigma(enc); !errors.Is(err, ErrUnknownFormat) {
		t.Fatalf("Sigma error = %v, want ErrUnknownFormat", err)
	}
	if _, err := cfg.directComputeCycles(enc); !errors.Is(err, ErrUnknownFormat) {
		t.Fatalf("directComputeCycles error = %v, want ErrUnknownFormat", err)
	}
	if _, _, err := runTile(cfg, enc); !errors.Is(err, ErrUnknownFormat) {
		t.Fatalf("runTile error = %v, want ErrUnknownFormat", err)
	}
}

// TestPlanRejectsOutOfRangeKind: a Kind outside [0, NumKinds) is an error
// from every Plan entry point, never an index panic.
func TestPlanRejectsOutOfRangeKind(t *testing.T) {
	pl, err := NewPlan(Default(), randomTileMatrix(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, pl.Matrix().Cols)
	for _, k := range []formats.Kind{-1, formats.Kind(formats.NumKinds), 99} {
		if _, err := pl.RunContext(context.Background(), k, x); !errors.Is(err, ErrUnknownFormat) {
			t.Errorf("Run(%d) error = %v, want ErrUnknownFormat", int(k), err)
		}
		if _, err := pl.Trace(k); !errors.Is(err, ErrUnknownFormat) {
			t.Errorf("Trace(%d) error = %v, want ErrUnknownFormat", int(k), err)
		}
		if _, err := pl.Schedule(k); !errors.Is(err, ErrUnknownFormat) {
			t.Errorf("Schedule(%d) error = %v, want ErrUnknownFormat", int(k), err)
		}
	}
}

// randomTileMatrix builds a small deterministic matrix for plan tests.
func randomTileMatrix(t *testing.T) *matrix.CSR {
	t.Helper()
	b := matrix.NewBuilder(16, 16)
	for i := 0; i < 16; i++ {
		b.Add(i, i, float64(i+1))
		b.Add(i, (i*5+2)%16, float64(i)+0.5)
	}
	return b.Build()
}
