package hlsim

import (
	"context"
	"math"
	"runtime"
	"testing"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/matrix"
)

// TestPlanRunMatchesFreshRun: a reused plan must reproduce a fresh
// plan's first run bit for bit — aggregates and functional output alike — for every
// format.
func TestPlanRunMatchesFreshRun(t *testing.T) {
	cfg := Default()
	m := gen.Random(100, 0.06, 21)
	x := testVectorFor(m.Cols)
	pl, err := NewPlan(cfg, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range formats.All() {
		fresh, err := mustPlan(t, m, 16).RunContext(context.Background(), k, x)
		if err != nil {
			t.Fatal(err)
		}
		// Run twice on the shared plan; the second call exercises the
		// fully cached path.
		for call := 0; call < 2; call++ {
			got, err := pl.RunContext(context.Background(), k, x)
			if err != nil {
				t.Fatal(err)
			}
			if got.MemCycles != fresh.MemCycles || got.ComputeCycles != fresh.ComputeCycles ||
				got.DecompCycles != fresh.DecompCycles || got.PipelinedCycles != fresh.PipelinedCycles ||
				got.IdleComputeCycles != fresh.IdleComputeCycles || got.StallMemCycles != fresh.StallMemCycles ||
				got.DotRows != fresh.DotRows || got.NNZ != fresh.NNZ || got.Footprint != fresh.Footprint ||
				got.NonZeroTiles != fresh.NonZeroTiles || got.TotalTiles != fresh.TotalTiles {
				t.Fatalf("%v call %d: aggregates diverge from a fresh plan's run", k, call)
			}
			if got.Sigma() != fresh.Sigma() || got.BalanceRatio() != fresh.BalanceRatio() {
				t.Fatalf("%v call %d: derived metrics diverge", k, call)
			}
			for i := range fresh.Y {
				if got.Y[i] != fresh.Y[i] {
					t.Fatalf("%v call %d: Y[%d] = %v, want %v", k, call, i, got.Y[i], fresh.Y[i])
				}
			}
		}
	}
}

// TestPlanSharedAcrossEntryPoints: one plan serves RunParallel, RunSpMM,
// Trace, and Schedule in turn, each matching a fresh plan's first call.
func TestPlanSharedAcrossEntryPoints(t *testing.T) {
	cfg := Default()
	m := gen.Random(96, 0.08, 23)
	x := testVectorFor(m.Cols)
	pl, err := NewPlan(cfg, m, 8)
	if err != nil {
		t.Fatal(err)
	}
	k := formats.CSR

	par, err := pl.RunParallel(k, x, 4)
	if err != nil {
		t.Fatal(err)
	}
	freshPar, err := mustPlan(t, m, 8).RunParallel(k, x, 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.TotalCycles != freshPar.TotalCycles || par.Efficiency() != freshPar.Efficiency() {
		t.Fatalf("parallel run diverges: %d vs %d cycles", par.TotalCycles, freshPar.TotalCycles)
	}

	const cols = 3
	b := make([]float64, m.Cols*cols)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	mm, err := pl.RunSpMM(k, b, cols)
	if err != nil {
		t.Fatal(err)
	}
	freshMM, err := mustPlan(t, m, 8).RunSpMM(k, b, cols)
	if err != nil {
		t.Fatal(err)
	}
	if mm.PipelinedCycles != freshMM.PipelinedCycles {
		t.Fatalf("SpMM cycles diverge: %d vs %d", mm.PipelinedCycles, freshMM.PipelinedCycles)
	}
	for i := range freshMM.Y {
		if mm.Y[i] != freshMM.Y[i] {
			t.Fatalf("SpMM Y[%d] = %v, want %v", i, mm.Y[i], freshMM.Y[i])
		}
	}

	tr, err := pl.Trace(k)
	if err != nil {
		t.Fatal(err)
	}
	freshTr, err := mustPlan(t, m, 8).Trace(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != len(freshTr) {
		t.Fatalf("trace lengths %d vs %d", len(tr), len(freshTr))
	}
	for i := range tr {
		if tr[i] != freshTr[i] {
			t.Fatalf("trace[%d] = %+v, want %+v", i, tr[i], freshTr[i])
		}
	}

	sc, err := pl.Schedule(k)
	if err != nil {
		t.Fatal(err)
	}
	freshSc, err := mustPlan(t, m, 8).Schedule(k)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Makespan != freshSc.Makespan {
		t.Fatalf("makespan %d vs %d", sc.Makespan, freshSc.Makespan)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanRunDoesNotReencode: once a format is cached, repeated SpMV
// calls on a shared plan allocate only the Result and its output vector
// — no tiles, no encodings, no decode buffers. The allocation count must
// be a small constant independent of matrix size.
func TestPlanRunDoesNotReencode(t *testing.T) {
	cfg := Default()
	for _, n := range []int{64, 256} {
		m := gen.Random(n, 0.05, 29)
		x := testVectorFor(m.Cols)
		pl, err := NewPlan(cfg, m, 16)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pl.RunContext(context.Background(), formats.COO, x); err != nil {
			t.Fatal(err) // warm the format cache
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := pl.RunContext(context.Background(), formats.COO, x); err != nil {
				t.Fatal(err)
			}
		})
		// Result struct + Y vector (+ small constant slack); re-encoding
		// or re-partitioning would show up as hundreds of allocations.
		if allocs > 4 {
			t.Fatalf("n=%d: %v allocs per cached Run, want <= 4", n, allocs)
		}
	}
}

// TestPlanVerifiesFunctionalOutput: the plan's sparse-aware functional
// path must still match the software reference.
func TestPlanFunctionalCorrectness(t *testing.T) {
	cfg := Default()
	m := gen.Circuit(150, 31)
	x := testVectorFor(m.Cols)
	want := m.MulVec(x)
	pl, err := NewPlan(cfg, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range formats.Core() {
		res, err := pl.RunContext(context.Background(), k, x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(res.Y[i]-want[i]) > 1e-9 {
				t.Fatalf("%v: y[%d] = %v, want %v", k, i, res.Y[i], want[i])
			}
		}
	}
}

// TestPlanNaNEntries: the decode cross-check must tolerate NaN matrix
// entries (the Matrix Market loader admits them) — NaN round-trips
// through every encoder and must not read as stream corruption.
func TestPlanNaNEntries(t *testing.T) {
	b := matrix.NewBuilder(16, 16)
	b.Add(2, 3, math.NaN())
	b.Add(5, 5, 1.5)
	m := b.Build()
	pl, err := NewPlan(Default(), m, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = 1
	}
	for _, k := range formats.Core() {
		res, err := pl.RunContext(context.Background(), k, x)
		if err != nil {
			t.Fatalf("%v: NaN entry rejected: %v", k, err)
		}
		if !math.IsNaN(res.Y[2]) || res.Y[5] != 1.5 {
			t.Fatalf("%v: Y = %v, want NaN at 2 and 1.5 at 5", k, res.Y)
		}
	}
}

// TestPlanArgumentErrors: the plan rejects bad vectors, lane counts, and
// operand shapes.
func TestPlanArgumentErrors(t *testing.T) {
	m := gen.Random(32, 0.1, 37)
	pl, err := NewPlan(Default(), m, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.RunContext(context.Background(), formats.CSR, make([]float64, 31)); err == nil {
		t.Fatal("short vector accepted")
	}
	if _, err := pl.RunParallel(formats.CSR, make([]float64, 32), 0); err == nil {
		t.Fatal("zero lanes accepted")
	}
	if _, err := pl.RunSpMM(formats.CSR, make([]float64, 5), 2); err == nil {
		t.Fatal("misshapen operand accepted")
	}
	if _, err := NewPlan(Config{}, m, 8); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestFirstRunIntoAllocationBoundedByInput pins the cold path's memory
// to the input size rather than the dimension: on a 16384² matrix with
// ~54k non-zeros at p=256, the whole cold warmup of every format, Dense
// included — a Trace (the one warmup pass, encoding, pricing and
// decode-verifying all 4096 tiles) plus the first RunIntoContext (the
// functional row copy) — may allocate at most
// 64·(nnz + tiles·(p+1) + n) bytes. A p×p buffer per tile, such as a
// Dense encoding or a dense decode staging, would cost
// 4096·256²·8 B = 2 GiB here; the warmup must reuse one per worker.
func TestFirstRunIntoAllocationBoundedByInput(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volumes are inflated under -race")
	}
	const n, p = 16384, 256
	m := gen.Random(n, 0.0002, 99)
	pl, err := NewPlan(Default(), m, p)
	if err != nil {
		t.Fatal(err)
	}
	tiles := len(pl.Partitioning().Tiles)
	bound := uint64(64 * (m.NNZ() + tiles*(p+1) + n))
	x := testVectorFor(n)
	var ms runtime.MemStats
	for _, k := range formats.All() {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := pl.Trace(k); err != nil {
			t.Fatal(err)
		}
		var r Result
		if err := pl.RunIntoContext(context.Background(), k, x, &r); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		got := ms.TotalAlloc - before
		t.Logf("%v: cold warmup allocated %d B (bound %d B)", k, got, bound)
		if got > bound {
			t.Errorf("%v: Trace plus first RunIntoContext allocated %d B, bound 64·(nnz %d + tiles %d·(p+1) + n %d) = %d B",
				k, got, m.NNZ(), tiles, n, bound)
		}
	}
}

// TestWarmupAllocsPerEncode bounds the warmup's heap objects: encoding,
// pricing and decode-verifying every tile of a Random(4096, 0.002) plan
// at p=32 (a first-use Trace) in each core format may make at most 0.1
// heap objects per (tile, format) on average: the streams come from the
// participant's slab and the encoder struct is the slab's own, so what is
// left is the per-pass table and trace. Allocating every stream of every
// encoding separately costs about 4; a heap encoder struct per encode
// costs 1.
func TestWarmupAllocsPerEncode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	m := gen.Random(4096, 0.002, 7)
	pl, err := NewPlan(Default(), m, 32)
	if err != nil {
		t.Fatal(err)
	}
	tiles := len(pl.Partitioning().Tiles)
	var ms runtime.MemStats
	var total uint64
	for _, k := range formats.Core() {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if _, err := pl.Trace(k); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		got := ms.Mallocs - before
		t.Logf("%v: %.2f heap objects per tile", k, float64(got)/float64(tiles))
		total += got
	}
	encodes := tiles * len(formats.Core())
	if per := float64(total) / float64(encodes); per > 0.1 {
		t.Fatalf("warmup made %d heap objects for %d (tile, format) encodes: %.2f each, want <= 0.1", total, encodes, per)
	}
}
