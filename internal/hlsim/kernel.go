package hlsim

import (
	"context"
	"fmt"

	"copernicus/internal/formats"
)

// Iteration-aware kernel costing and execution. hlsim speaks plain
// iteration counts — the kernel taxonomy (cg vs jacobi vs bfs) lives in
// internal/scenario; by the time a kernel reaches this layer it is just
// "N SpMV-shaped passes over the encoded operand" or "one SpMM with k
// columns", which is all the cycle model and the exec path distinguish.

// KernelCycles prices an N-iteration SpMV kernel on format k with the
// one-time decomposition amortized: iterative kernels stream the same
// encoded tiles every iteration, so a tile's structure needs decompressing
// only on first touch — the first iteration pays the full pipelined cost
// max(mem, decomp+dot), warm iterations pay max(mem, dot) with the tile's
// decomposition state resident.
//
// Per tile, with dot = ComputeCycles - DecompCycles:
//
//	cycles(N) = max(mem, decomp+dot) + (N-1) · max(mem, dot)
//
// summed over all non-zero tiles. N = 1 is exactly the per-tile
// max(mem, compute) sum — i.e. Result.PipelinedCycles — so a spmv kernel
// point is bit-identical to the pre-kernel-axis model (the golden test in
// internal/core pins this). Like every use of the plan, the first call
// for a format runs its one warmup pass (encode, price, decode and
// cross-check every tile), so a format whose encoding does not round-trip
// returns the cross-check error here rather than a cycle count. ctx
// cancels only that warmup; a warm call is pure arithmetic over the
// cached tile table.
func (pl *Plan) KernelCycles(ctx context.Context, k formats.Kind, iters int) (uint64, error) {
	if iters < 1 {
		return 0, fmt.Errorf("hlsim: KernelCycles with %d iterations", iters)
	}
	pf, err := pl.format(ctx, k)
	if err != nil {
		return 0, err
	}
	if iters == 1 {
		return pf.agg.PipelinedCycles, nil
	}
	warm := uint64(iters - 1)
	var total uint64
	for _, tc := range pf.tiles {
		dot := uint64(tc.compute) - uint64(tc.decomp)
		total += tc.pipelined() + warm*max(uint64(tc.mem), dot)
	}
	return total, nil
}

// SpMMCycles prices one SpMM against a dense operand with `cols` columns
// on format k: per tile the decomposition runs once and every non-zero
// row's dot repeats per column, overlapped against the tile's single
// memory stream — the same per-tile model as RunSpMM, without
// materializing the functional product. cols = 1 equals the SpMV
// pipelined total exactly (dot latency is per row per column).
func (pl *Plan) SpMMCycles(ctx context.Context, k formats.Kind, cols int) (uint64, error) {
	if cols < 1 {
		return 0, fmt.Errorf("hlsim: SpMMCycles with %d columns", cols)
	}
	pf, err := pl.format(ctx, k)
	if err != nil {
		return 0, err
	}
	colDot := uint64(cols) * uint64(pl.cfg.DotLatency(pl.p))
	var total uint64
	for _, tc := range pf.tiles {
		total += max(uint64(tc.mem), uint64(tc.decomp)+uint64(tc.dotRows)*colDot)
	}
	return total, nil
}

// RunKernelInto is the exec-path iteration loop: `iters` back-to-back
// tile-parallel multiplications through format k's own encoded layout
// (RunExecIntoContext), the unit the native backend times for
// multi-iteration kernels. The operand is held fixed across iterations —
// each pass does exactly the traversal and flop work of one solver
// iteration's SpMV while keeping the loop allocation-free and the output
// independent of the iteration count (solver vector updates are BLAS1 work
// the characterization deliberately excludes; the verified functional output
// is that of a single A·x).
//
// The warm path performs zero allocations per call and every iteration
// reuses the plan's cached leader/waiter exec state. A cancelable ctx is
// checked *between* iterations — the granularity a 60-iteration
// measurement needs to abort promptly — while each iteration itself runs
// uncancellable, exactly like the single-SpMV timed loop, so the warm
// inner multiplication polls nothing and timing it stays pure. (Cold
// warmup — the format's warmup pass and the exec build — consequently
// runs to completion of the first iteration; callers wanting cancelable
// warmup warm the format with RunExecIntoContext first, as the native
// backend does.)
func (pl *Plan) RunKernelInto(ctx context.Context, k formats.Kind, x []float64, r *Result, threads, iters int) error {
	if iters < 1 {
		return fmt.Errorf("hlsim: RunKernelInto with %d iterations", iters)
	}
	for it := 0; it < iters; it++ {
		if it > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := pl.RunExecIntoContext(context.Background(), k, x, r, threads); err != nil {
			return err
		}
	}
	return nil
}
