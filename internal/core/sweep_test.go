package core

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"copernicus/internal/backend"
	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/scenario"
	"copernicus/internal/workloads"
)

func sweepInputs() ([]workloads.Workload, []formats.Kind, []int) {
	c := workloads.Config{Scale: 128, RandomDim: 128, BandDim: 128, Seed: 0xC0FE}
	ws := append(workloads.RandomSuite(c), workloads.BandSuite(c)...)
	return ws, formats.Core(), []int{8, 16}
}

// TestSweepParallelMatchesSerial: the worker-pool sweep must produce
// byte-identical results — same order, same values — as a serial run.
func TestSweepParallelMatchesSerial(t *testing.T) {
	ws, kinds, ps := sweepInputs()

	serial := New()
	serial.SetWorkers(1)
	want, err := serial.SweepKernelsWith(context.Background(), nil, ws, spmvOnly, kinds, ps)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 4, 7} {
		par := New()
		par.SetWorkers(workers)
		got, err := par.SweepKernelsWith(context.Background(), nil, ws, spmvOnly, kinds, ps)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result %d diverges:\n got %+v\nwant %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestEnginesLeaveNoGoroutines: engines have no Close, so whatever an
// engine's sweeps fan out over must not outlive them. Fifty fresh engines
// each run a small sweep at the default worker count (tile-parallel
// warmup included) and the goroutine count returns to its baseline.
func TestEnginesLeaveNoGoroutines(t *testing.T) {
	c := workloads.Config{Scale: 128, RandomDim: 128, BandDim: 128, Seed: 0xC0FE}
	ws := workloads.RandomSuite(c)[3:4] // density 0.1: every tile non-zero at p=8
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		if _, err := New().SweepKernelsWith(context.Background(), nil, ws, spmvOnly,
			[]formats.Kind{formats.CSR, formats.COO}, []int{8}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after 50 engine sweeps, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepRepeatDeterministic: re-running a sweep on the same engine
// (warm plan cache) must reproduce the cold run exactly.
func TestSweepRepeatDeterministic(t *testing.T) {
	ws, kinds, ps := sweepInputs()
	e := New()
	cold, err := e.SweepKernelsWith(context.Background(), nil, ws, spmvOnly, kinds, ps)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e.SweepKernelsWith(context.Background(), nil, ws, spmvOnly, kinds, ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if warm[i] != cold[i] {
			t.Fatalf("result %d changed between cold and warm sweep", i)
		}
	}
}

// TestSweepOrdering: results come out workload-major, then partition
// size, then format — the same order the serial pre-plan engine emitted.
func TestSweepOrdering(t *testing.T) {
	ws, kinds, ps := sweepInputs()
	e := New()
	rs, err := e.SweepKernelsWith(context.Background(), nil, ws, spmvOnly, kinds, ps)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, w := range ws {
		for _, p := range ps {
			for _, k := range kinds {
				r := rs[i]
				if r.Workload != w.ID || r.P != p || r.Format != k {
					t.Fatalf("result %d is %s/%v/p=%d, want %s/%v/p=%d",
						i, r.Workload, r.Format, r.P, w.ID, k, p)
				}
				i++
			}
		}
	}
}

// TestSetWorkers: the knob clamps and reports as documented.
func TestSetWorkers(t *testing.T) {
	e := New()
	if e.Workers() < 1 {
		t.Fatalf("default workers %d", e.Workers())
	}
	e.SetWorkers(3)
	if e.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", e.Workers())
	}
	e.SetWorkers(0)
	if e.Workers() < 1 {
		t.Fatalf("reset workers %d", e.Workers())
	}
	e.SetWorkers(-5)
	if e.Workers() < 1 {
		t.Fatalf("negative workers %d", e.Workers())
	}
}

// TestWarmGroupAllocatesOneY: the formats of a sweep group share one
// output buffer, so a warm group over the eight core formats allocates
// less than one more Y (rows × 8 B) than a warm group of one format. The
// matrix has 4096 rows so that Y outweighs the per-format Result rows.
func TestWarmGroupAllocatesOneY(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	m := gen.Band(4096, 3, 5)
	kinds := formats.Core()
	e := New()
	e.SetWorkers(1)
	group := func(ks []formats.Kind) uint64 {
		// The least of a few runs, so an allocation elsewhere in the
		// process during one of them does not count.
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := e.sweepGroup(context.Background(), backend.Analytic{}, "band", m, scenario.Default(), 16, ks); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	group(kinds) // warm the plan and every format
	one, all := group(kinds[:1]), group(kinds)
	if y := uint64(m.Rows * 8); all >= one+y {
		t.Fatalf("warm group of %d formats allocated %d B, of 1 format %d B: %d B more, want < one Y (%d B)",
			len(kinds), all, one, all-one, y)
	}
}
