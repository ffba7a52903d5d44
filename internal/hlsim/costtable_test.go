package hlsim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/matrix"
	"copernicus/internal/scenario"
)

// denseMaxPPlan plans a fully dense 1024×1024 matrix at p = 1024, the
// largest partition size the service accepts: one tile holding p² entries,
// the worst case of every format's cycle counts. Its tests check
// arithmetic only, and warming a million-entry tile takes about 20 s under
// -race, so they skip there.
func denseMaxPPlan(t *testing.T) *Plan {
	t.Helper()
	if raceEnabled {
		t.Skip("arithmetic only; a dense p = 1024 warmup is slow under -race")
	}
	const p = 1024
	m := gen.Random(p, 1, 5)
	if m.NNZ() != p*p {
		t.Fatalf("dense generator gave %d non-zeros, want %d", m.NNZ(), p*p)
	}
	pl, err := NewPlan(Default(), m, p)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(pl.Partitioning().Tiles); n != 1 {
		t.Fatalf("%d tiles, want 1", n)
	}
	return pl
}

// TestCostTableFitsDenseTileAtMaxP: under Default(), a fully dense tile at
// p = 1024 prices in every format with each count inside the packed
// table's uint32, and the table holds the counts runTile computes. CSC is
// the largest, at about 5.4e8 cycles, so the table has about 8× headroom.
func TestCostTableFitsDenseTileAtMaxP(t *testing.T) {
	pl := denseMaxPPlan(t)
	tile := pl.Partitioning().Tiles[0]
	var maxK formats.Kind
	maxCycles := 0
	for _, k := range formats.All() {
		tr, _, err := runTile(pl.Config(), formats.Encode(k, tile))
		if err != nil {
			t.Fatal(err)
		}
		tt, err := pl.Trace(k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		got := tt[0]
		if got.MemCycles != tr.MemCycles || got.DecompCycles != tr.DecompCycles || got.ComputeCycles != tr.ComputeCycles {
			t.Fatalf("%v: packed table gives mem/decomp/compute %d/%d/%d, runTile %d/%d/%d",
				k, got.MemCycles, got.DecompCycles, got.ComputeCycles, tr.MemCycles, tr.DecompCycles, tr.ComputeCycles)
		}
		for _, v := range []int{tr.MemCycles, tr.DecompCycles, tr.ComputeCycles, tr.DotRows} {
			if v > maxCycles {
				maxK, maxCycles = k, v
			}
		}
	}
	t.Logf("largest count: %v at %d cycles (%.1f%% of uint32)", maxK, maxCycles, 100*float64(maxCycles)/math.MaxUint32)
	if maxK != formats.CSC || maxCycles < 5e8 || maxCycles > 6e8 {
		t.Fatalf("largest count is %v at %d cycles, want CSC at about 5.4e8", maxK, maxCycles)
	}
}

// TestCostTableOverflowIsTileError: a Config whose counts leave uint32
// makes the warmup fail with an error naming the tile, from every entry
// point, rather than pricing a wrapped count. Formats the huge latency
// does not reach still price.
func TestCostTableOverflowIsTileError(t *testing.T) {
	cfg := Default()
	cfg.BRAMReadLatency = 1 << 32
	m := gen.Random(64, 0.1, 3)
	pl, err := NewPlan(cfg, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	first := pl.Partitioning().Tiles[0]
	tr, _, err := runTile(cfg, formats.Encode(formats.CSR, first))
	if err != nil {
		t.Fatal(err)
	}
	if tr.DecompCycles <= math.MaxUint32 {
		t.Fatalf("CSR decompression of the first tile is %d cycles, want beyond uint32", tr.DecompCycles)
	}
	want := fmt.Sprintf("tile (%d,%d): cycle count %d does not fit", first.Row, first.Col, tr.DecompCycles)
	check := func(entry string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: got error %v, want one containing %q", entry, err, want)
		}
	}
	tt, err := pl.Trace(formats.CSR)
	if tt != nil {
		t.Fatalf("Trace returned %d tiles beside its error", len(tt))
	}
	check("Trace", err)
	r, err := pl.RunContext(context.Background(), formats.CSR, testVectorFor(m.Cols))
	if r != nil {
		t.Fatal("RunContext returned a result beside its error")
	}
	check("RunContext", err)
	_, err = pl.KernelCycles(context.Background(), formats.CSR, 60)
	check("KernelCycles", err)
	if _, err := pl.Trace(formats.Dense); err != nil {
		t.Fatalf("Dense does not read BRAMReadLatency, but: %v", err)
	}
}

// TestSpMMCyclesWidensAtMaxN: at cols = scenario.MaxN the per-tile SpMM
// compute of a dense p = 1024 tile is far beyond uint32; SpMMCycles must
// equal the same model recomputed in uint64 from runTile's counts.
func TestSpMMCyclesWidensAtMaxN(t *testing.T) {
	pl := denseMaxPPlan(t)
	tile := pl.Partitioning().Tiles[0]
	td := uint64(pl.Config().DotLatency(pl.P()))
	for _, k := range []formats.Kind{formats.Dense, formats.CSR, formats.CSC, formats.ELL, formats.JDS} {
		tr, _, err := runTile(pl.Config(), formats.Encode(k, tile))
		if err != nil {
			t.Fatal(err)
		}
		comp := uint64(tr.DecompCycles) + uint64(tr.DotRows)*uint64(scenario.MaxN)*td
		want := max(uint64(tr.MemCycles), comp)
		if want <= math.MaxUint32 {
			t.Fatalf("%v: recomputed %d cycles fits uint32; the test needs a wider one", k, want)
		}
		got, err := pl.SpMMCycles(context.Background(), k, scenario.MaxN)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: SpMMCycles(%d) = %d, uint64 recomputation = %d", k, scenario.MaxN, got, want)
		}
	}
}

// TestMemoryBytesTracksExecHeap: building a format's exec encodings grows
// Plan.MemoryBytes by what it grows the live heap, for every format.
// MemoryBytes counts requested bytes, while the heap rounds each object up
// to its size class, so MemoryBytes may fall short (by about 5% for
// BCSR, the lowest). It may fall short by at most 20% and exceed the heap
// growth by at most 2%; counting values at the modelled 4 bytes, as
// Footprint does, reads about half.
func TestMemoryBytesTracksExecHeap(t *testing.T) {
	m := gen.Random(2048, 0.01, 17)
	x := testVectorFor(m.Cols)
	ctx := context.Background()
	var ms runtime.MemStats
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, k := range formats.All() {
		pl, err := NewPlan(Default(), m, 64)
		if err != nil {
			t.Fatal(err)
		}
		r := Result{Y: make([]float64, m.Rows)}
		if err := pl.RunIntoContext(ctx, k, x, &r); err != nil {
			t.Fatal(err)
		}
		pl.ensureSpans()
		// One exec run of another format first, so pooled dispatch state
		// exists before the measured build.
		other := formats.CSR
		if k == other {
			other = formats.COO
		}
		if err := pl.RunExecIntoContext(ctx, other, x, &r, 1); err != nil {
			t.Fatal(err)
		}
		mb0, h0 := pl.MemoryBytes(), heap()
		if err := pl.RunExecIntoContext(ctx, k, x, &r, 1); err != nil {
			t.Fatal(err)
		}
		mb, h := pl.MemoryBytes()-mb0, heap()-h0
		ratio := float64(mb) / float64(h)
		t.Logf("%v: MemoryBytes +%d B, heap +%d B (%.3f)", k, mb, h, ratio)
		if ratio < 0.8 || ratio > 1.02 {
			t.Errorf("%v: MemoryBytes grew %d B for %d B of heap (ratio %.3f, want 0.8..1.02)", k, mb, h, ratio)
		}
		runtime.KeepAlive(pl) // the exec encodings must be live when heap() reads
	}
}

// TestDIAHostBytesBoundedByExtent: a DIA encoding holds on the host only
// each stored diagonal's [lo, hi) extent of non-zeros — its struct, 12 B
// a diagonal (number and extent pair) and 8 B an extent slot — not the
// modelled p slots a diagonal, so a scattered matrix's resident DIA exec
// stays within a small multiple of its nnz.
func TestDIAHostBytesBoundedByExtent(t *testing.T) {
	const p = 64
	tile := matrix.NewTile(p, 0, 0)
	for _, ij := range [][2]int{{0, 63}, {63, 0}, {10, 20}, {30, 40}, {31, 41}, {40, 2}, {5, 5}, {60, 60}} {
		tile.Set(ij[0], ij[1], float64(ij[0]-ij[1])+0.5)
	}
	e := formats.Encode(formats.DIA, tile).(*formats.DIAEnc)
	slots := 0
	for k := range e.Diagonals() {
		lo, hi := -1, 0
		for i, v := range e.Lane(k) {
			if v != 0 {
				if lo < 0 {
					lo = i
				}
				hi = i + 1
			}
		}
		slots += hi - lo
	}
	want := int64(unsafe.Sizeof(formats.DIAEnc{})) + int64(12*e.Diagonals()+8*slots)
	if got := formats.HostBytes(e); got != want {
		t.Fatalf("HostBytes = %d for %d diagonals and %d extent slots, want %d", got, e.Diagonals(), slots, want)
	}
	// The modelled lanes keep all p slots.
	if got, want := e.Footprint().ValueLaneBytes, e.Diagonals()*p*matrix.BytesPerValue; got != want {
		t.Fatalf("Footprint value lane = %d B, want %d", got, want)
	}

	m := gen.Random(8192, 0.002, 1)
	pl, err := NewPlan(Default(), m, 256)
	if err != nil {
		t.Fatal(err)
	}
	r := Result{Y: make([]float64, m.Rows)}
	if err := pl.RunExecIntoContext(context.Background(), formats.DIA, testVectorFor(m.Cols), &r, 1); err != nil {
		t.Fatal(err)
	}
	const limit = 32 << 20
	if mb := pl.MemoryBytes(); mb >= limit {
		t.Fatalf("MemoryBytes after the DIA exec build = %d B for %d non-zeros, want under %d", mb, m.NNZ(), limit)
	}
}
