package hlsim

import (
	"context"
	"errors"
	"testing"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
)

// TestKernelCyclesSingleIterationIsPipelined: a one-iteration kernel is
// exactly the pre-kernel-axis model — KernelCycles(k, 1) must equal the
// per-tile pipelined total for every format, the bit-identity the golden
// sweep test in internal/core depends on.
func TestKernelCyclesSingleIterationIsPipelined(t *testing.T) {
	cfg := Default()
	m := gen.Random(100, 0.06, 83)
	pl, err := NewPlan(cfg, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	x := testVectorFor(m.Cols)
	for _, k := range formats.All() {
		var r Result
		if err := pl.RunIntoContext(context.Background(), k, x, &r); err != nil {
			t.Fatal(err)
		}
		got, err := pl.KernelCycles(ctx, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != r.PipelinedCycles {
			t.Fatalf("%v: KernelCycles(1) = %d, PipelinedCycles = %d", k, got, r.PipelinedCycles)
		}
	}
}

// TestKernelCyclesAmortizedPin: the cg:60 amortization formula, recomputed
// per tile from the plan's own cycle records — first iteration pays
// max(mem, decomp+dot), the 59 warm iterations pay max(mem, dot) with the
// decomposition state resident.
func TestKernelCyclesAmortizedPin(t *testing.T) {
	cfg := Default()
	m := gen.Random(100, 0.06, 83)
	pl, err := NewPlan(cfg, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const iters = 60
	for _, k := range []formats.Kind{formats.CSR, formats.Dense, formats.SELLCS} {
		pf, err := pl.format(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		var want uint64
		for _, tc := range pf.tiles {
			mem, comp := uint64(tc.mem), uint64(tc.compute)
			want += max(mem, comp) + (iters-1)*max(mem, comp-uint64(tc.decomp))
		}
		got, err := pl.KernelCycles(ctx, k, iters)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: KernelCycles(%d) = %d, per-tile recomputation = %d", k, iters, got, want)
		}
		one, err := pl.KernelCycles(ctx, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got <= one {
			t.Fatalf("%v: 60 iterations (%d cycles) not more expensive than 1 (%d)", k, got, one)
		}
		// Amortization: warm iterations never cost more than cold ones, so
		// 60 iterations cost at most 60× one iteration.
		if got > 60*one {
			t.Fatalf("%v: KernelCycles(60) = %d exceeds 60 x KernelCycles(1) = %d", k, got, 60*one)
		}
	}
}

// TestKernelCyclesLinearInWarmIterations: beyond the first iteration the
// model is an affine function of N — each additional iteration adds the
// same warm per-tile sum.
func TestKernelCyclesLinearInWarmIterations(t *testing.T) {
	cfg := Default()
	m := gen.Random(80, 0.08, 89)
	pl, err := NewPlan(cfg, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c1, err := pl.KernelCycles(ctx, formats.CSR, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := pl.KernelCycles(ctx, formats.CSR, 2)
	if err != nil {
		t.Fatal(err)
	}
	warm := c2 - c1
	for _, n := range []uint64{3, 10, 60, 1000} {
		got, err := pl.KernelCycles(ctx, formats.CSR, int(n))
		if err != nil {
			t.Fatal(err)
		}
		if want := c1 + (n-1)*warm; got != want {
			t.Fatalf("KernelCycles(%d) = %d, want %d + %d x %d = %d", n, got, c1, n-1, warm, want)
		}
	}
}

// TestSpMMCyclesSingleColumnIsPipelined: SpMM against a 1-column dense
// operand is an SpMV — per tile, decomp + DotRows·1·td is exactly
// ComputeCycles, so the total must equal the pipelined SpMV cycles.
func TestSpMMCyclesSingleColumnIsPipelined(t *testing.T) {
	cfg := Default()
	m := gen.Random(100, 0.06, 83)
	pl, err := NewPlan(cfg, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	x := testVectorFor(m.Cols)
	for _, k := range formats.All() {
		var r Result
		if err := pl.RunIntoContext(context.Background(), k, x, &r); err != nil {
			t.Fatal(err)
		}
		got, err := pl.SpMMCycles(ctx, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != r.PipelinedCycles {
			t.Fatalf("%v: SpMMCycles(1) = %d, PipelinedCycles = %d", k, got, r.PipelinedCycles)
		}
		wide, err := pl.SpMMCycles(ctx, k, 8)
		if err != nil {
			t.Fatal(err)
		}
		if wide < got {
			t.Fatalf("%v: SpMMCycles(8) = %d below SpMMCycles(1) = %d", k, wide, got)
		}
	}
}

// TestRunKernelIntoOutputIndependentOfIterations: the exec iteration loop
// holds the operand fixed, so the functional output after 60 iterations is
// bit-identical to one RunExecIntoContext — the property that lets the verified
// single-SpMV output stand for the whole kernel.
func TestRunKernelIntoOutputIndependentOfIterations(t *testing.T) {
	cfg := Default()
	m := gen.Random(96, 0.07, 97)
	x := testVectorFor(m.Cols)
	pl, err := NewPlan(cfg, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var ref, got Result
	if err := pl.RunExecIntoContext(context.Background(), formats.CSR, x, &ref, 2); err != nil {
		t.Fatal(err)
	}
	if err := pl.RunKernelInto(ctx, formats.CSR, x, &got, 2, 60); err != nil {
		t.Fatal(err)
	}
	for i := range ref.Y {
		if got.Y[i] != ref.Y[i] {
			t.Fatalf("Y[%d] = %v after 60 iterations, %v after one", i, got.Y[i], ref.Y[i])
		}
	}
}

// TestRunKernelIntoWarmZeroAllocs: the timed unit of the native backend's
// multi-iteration measurements must stay allocation-free once warm, like
// the single-SpMV loop it wraps.
func TestRunKernelIntoWarmZeroAllocs(t *testing.T) {
	cfg := Default()
	m := gen.Random(256, 0.05, 61)
	x := testVectorFor(m.Cols)
	pl, err := NewPlan(cfg, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var r Result
	for i := 0; i < 3; i++ {
		if err := pl.RunKernelInto(ctx, formats.CSR, x, &r, 2, 4); err != nil {
			t.Fatal(err)
		}
	}
	if raceEnabled {
		// The race detector's own bookkeeping allocates across a
		// multi-iteration loop; the warm calls above still exercise the
		// path functionally. The 0-alloc claim is asserted without -race.
		t.Skip("alloc counts are unreliable under -race")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := pl.RunKernelInto(ctx, formats.CSR, x, &r, 2, 4); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per warm RunKernelInto, want 0", allocs)
	}
}

// TestRunKernelIntoCancelBetweenIterations: cancellation is observed at
// iteration boundaries only — a canceled context still completes a
// one-iteration call (each iteration runs uncancellable, keeping timing
// pure) but stops a multi-iteration kernel after its first pass.
func TestRunKernelIntoCancelBetweenIterations(t *testing.T) {
	cfg := Default()
	m := gen.Random(96, 0.07, 97)
	x := testVectorFor(m.Cols)
	pl, err := NewPlan(cfg, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	var r Result
	if err := pl.RunKernelInto(context.Background(), formats.CSR, x, &r, 1, 2); err != nil {
		t.Fatal(err) // warm the format so the canceled calls are pure loop
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := pl.RunKernelInto(canceled, formats.CSR, x, &r, 1, 1); err != nil {
		t.Fatalf("iters=1 under canceled ctx: %v, want nil (no boundary to observe)", err)
	}
	if err := pl.RunKernelInto(canceled, formats.CSR, x, &r, 1, 60); !errors.Is(err, context.Canceled) {
		t.Fatalf("iters=60 under canceled ctx: %v, want context.Canceled", err)
	}
}

// TestKernelArgumentErrors: non-positive iteration and column counts are
// rejected up front by all three entry points.
func TestKernelArgumentErrors(t *testing.T) {
	cfg := Default()
	m := gen.Random(64, 0.1, 79)
	x := testVectorFor(m.Cols)
	pl, err := NewPlan(cfg, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := pl.KernelCycles(ctx, formats.CSR, 0); err == nil {
		t.Fatal("KernelCycles(0) accepted")
	}
	if _, err := pl.SpMMCycles(ctx, formats.CSR, 0); err == nil {
		t.Fatal("SpMMCycles(0) accepted")
	}
	var r Result
	if err := pl.RunKernelInto(ctx, formats.CSR, x, &r, 1, 0); err == nil {
		t.Fatal("RunKernelInto(iters=0) accepted")
	}
}
