package backend

import (
	"context"

	"copernicus/internal/formats"
	"copernicus/internal/hlsim"
	"copernicus/internal/scenario"
)

// Analytic is the paper's instrument: the deterministic HLS-derived cycle
// model of internal/hlsim, costed at the plan's configured clock. For the
// spmv kernel it is bit-identical to the pre-backend characterization
// path — EvaluateInto is exactly Plan.RunIntoContext followed by
// Result.Seconds, with no arithmetic of its own (the golden test in
// internal/core enforces this).
// Iterative kernels are priced by the amortized model
// (hlsim.Plan.KernelCycles): the one-time per-tile decomposition is paid
// on the first iteration only, warm iterations pay max(mem, dot); spmm:k
// uses the RunSpMM per-tile model (decomposition once, dots × columns).
type Analytic struct{}

// ID returns "analytic".
func (Analytic) ID() string { return "analytic" }

// Parallelizable is true: the model is a pure function of its inputs.
func (Analytic) Parallelizable() bool { return true }

// Evaluate is EvaluateInto on a fresh Result, for callers that keep
// each point's run.
func (a Analytic) Evaluate(ctx context.Context, pl *hlsim.Plan, sc scenario.Spec, k formats.Kind, x []float64) (Measurement, error) {
	return a.EvaluateInto(ctx, pl, sc, k, x, new(hlsim.Result))
}

// EvaluateInto runs the point through the modelled accelerator into run
// and reports the kernel's amortized modelled seconds. Cancellation
// aborts a cold plan's warmup between tile chunks; a warm point is pure
// arithmetic and runs to completion.
func (Analytic) EvaluateInto(ctx context.Context, pl *hlsim.Plan, sc scenario.Spec, k formats.Kind, x []float64, run *hlsim.Result) (Measurement, error) {
	if err := pl.RunIntoContext(ctx, k, x, run); err != nil {
		return Measurement{}, err
	}
	iters := sc.Iterations(pl.Matrix())
	if sc.Kernel == scenario.SpMV {
		// The pre-kernel-axis expression, untouched: seconds is
		// run.Seconds() itself, not a recomputation that happens to be
		// equal.
		return Measurement{Run: run, Seconds: run.Seconds(), Iterations: 1}, nil
	}
	var (
		cycles uint64
		err    error
	)
	if sc.Kernel == scenario.SpMM {
		cycles, err = pl.SpMMCycles(ctx, k, iters)
	} else {
		cycles, err = pl.KernelCycles(ctx, k, iters)
	}
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		Run:        run,
		Seconds:    pl.Config().CycleSeconds(cycles),
		Iterations: iters,
	}, nil
}
