package backend

import (
	"context"
	"testing"

	"copernicus/internal/formats"
	"copernicus/internal/hlsim"
	"copernicus/internal/scenario"
)

// TestAnalyticKernelAmortizedSeconds: for an iterative kernel the analytic
// backend's seconds are exactly the amortized cycle total at the plan's
// clock — no arithmetic beyond CycleSeconds(KernelCycles) — and the
// resolved iteration count is recorded.
func TestAnalyticKernelAmortizedSeconds(t *testing.T) {
	pl := testPlan(t)
	x := ones(pl.Matrix().Cols)
	ctx := context.Background()
	for _, k := range []formats.Kind{formats.CSR, formats.SELLCS} {
		meas, err := Analytic{}.Evaluate(ctx, pl, scenario.MustParse("cg:60"), k, x)
		if err != nil {
			t.Fatal(err)
		}
		cycles, err := pl.KernelCycles(ctx, k, 60)
		if err != nil {
			t.Fatal(err)
		}
		if want := pl.Config().CycleSeconds(cycles); meas.Seconds != want {
			t.Fatalf("%v: cg:60 seconds %v, want CycleSeconds(KernelCycles(60)) = %v", k, meas.Seconds, want)
		}
		if meas.Iterations != 60 {
			t.Fatalf("%v: cg:60 Iterations = %d", k, meas.Iterations)
		}
		if meas.Measured {
			t.Fatalf("%v: analytic kernel measurement marked Measured", k)
		}

		spmv, err := Analytic{}.Evaluate(ctx, pl, scenario.Default(), k, x)
		if err != nil {
			t.Fatal(err)
		}
		if spmv.Iterations != 1 {
			t.Fatalf("%v: spmv Iterations = %d", k, spmv.Iterations)
		}
		if meas.Seconds <= spmv.Seconds {
			t.Fatalf("%v: 60 amortized iterations (%v s) not above one SpMV (%v s)", k, meas.Seconds, spmv.Seconds)
		}
	}
}

// TestAnalyticSpMMSeconds: spmm:k routes through the SpMM per-tile model,
// with the column count recorded as the iteration count.
func TestAnalyticSpMMSeconds(t *testing.T) {
	pl := testPlan(t)
	x := ones(pl.Matrix().Cols)
	ctx := context.Background()
	meas, err := Analytic{}.Evaluate(ctx, pl, scenario.MustParse("spmm:8"), formats.CSR, x)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := pl.SpMMCycles(ctx, formats.CSR, 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := pl.Config().CycleSeconds(cycles); meas.Seconds != want {
		t.Fatalf("spmm:8 seconds %v, want CycleSeconds(SpMMCycles(8)) = %v", meas.Seconds, want)
	}
	if meas.Iterations != 8 {
		t.Fatalf("spmm:8 Iterations = %d", meas.Iterations)
	}
}

// TestAnalyticBFSResolvesLevels: the data-dependent kernel records the
// matrix's own frontier level count as its iteration count.
func TestAnalyticBFSResolvesLevels(t *testing.T) {
	pl := testPlan(t)
	x := ones(pl.Matrix().Cols)
	meas, err := Analytic{}.Evaluate(context.Background(), pl, scenario.MustParse("bfs"), formats.CSR, x)
	if err != nil {
		t.Fatal(err)
	}
	if want := scenario.BFSLevels(pl.Matrix()); meas.Iterations != want {
		t.Fatalf("bfs Iterations = %d, BFSLevels = %d", meas.Iterations, want)
	}
}

// TestNativeRecordsIterations: the native backend resolves the spec's
// iteration count, times that many exec passes as one invocation, and
// reports the count alongside the measurement.
func TestNativeRecordsIterations(t *testing.T) {
	pl := testPlan(t)
	x := ones(pl.Matrix().Cols)
	n := &Native{Runs: 2}
	meas, err := n.EvaluateInto(context.Background(), pl, scenario.MustParse("cg:3"), formats.CSR, x, new(hlsim.Result))
	if err != nil {
		t.Fatal(err)
	}
	if meas.Iterations != 3 {
		t.Fatalf("native cg:3 Iterations = %d", meas.Iterations)
	}
	if !meas.Measured || meas.Seconds <= 0 {
		t.Fatalf("native cg:3 measurement = {Measured: %v, Seconds: %v}", meas.Measured, meas.Seconds)
	}
	spmv, err := n.EvaluateInto(context.Background(), pl, scenario.Default(), formats.CSR, x, new(hlsim.Result))
	if err != nil {
		t.Fatal(err)
	}
	if spmv.Iterations != 1 {
		t.Fatalf("native spmv Iterations = %d", spmv.Iterations)
	}
}
