// Package backend is the characterization seam of Copernicus: it
// separates *what* a (workload, format, partition size) point costs from
// *how* that cost is obtained. The paper's primary instrument — the
// analytic HLS cycle model of internal/hlsim — becomes one Backend among
// possibly many; a second, Native, measures real wall time of the warm
// streaming SpMV on the host CPU. Because both backends evaluate the same
// encode-once hlsim.Plan, everything upstream of costing (partitioning,
// encoding, the decode cross-check, the functional SpMV that is verified
// against the software reference) is shared bit for bit, and only the
// cost axis differs — which is exactly what makes model-vs-measured
// cross-validation meaningful.
//
// Plans deliberately stay backend-independent: a Plan holds the sparse
// partitioning, the per-format encodings, and the analytic cycle tables,
// all of which every backend reuses. Keying plan caches by backend would
// only duplicate encode work; backend identity instead keys *results*
// (core.Result.Backend, the service result cache, report artifacts).
package backend

import (
	"context"
	"fmt"
	"sort"

	"copernicus/internal/formats"
	"copernicus/internal/hlsim"
	"copernicus/internal/scenario"
)

// Measurement is one costed evaluation of a (plan, kernel, format) point.
type Measurement struct {
	// Run is the caller's Result buffer, handed to EvaluateInto and
	// returned here filled: the functional SpMV output (verified upstream
	// against the software reference) and the plan's cached analytic
	// cycle totals. It stays valid until the next EvaluateInto on the
	// same buffer, which overwrites it and may reuse its Y. Structural
	// metrics — σ, balance, per-tile cycle means, utilizations — derive
	// from Run under every backend: they describe the format and the
	// modelled hardware, not the costing method or the kernel's
	// iteration count.
	Run *hlsim.Result

	// Seconds is the backend's cost of one full kernel invocation of the
	// point — all Iterations of it, not one SpMV: amortized modelled
	// cycles at the configured clock for Analytic, measured wall time of
	// the warm exec iteration loop for Native. For the spmv kernel this
	// is the cost of one SpMV, exactly as before the kernel axis.
	Seconds float64

	// Iterations is the kernel's resolved SpMV-shaped iteration count
	// that Seconds covers: 1 for spmv, N for cg:N/jacobi:N/pagerank:N,
	// the column count for spmm:k, and the matrix's frontier level count
	// for bfs.
	Iterations int

	// Measured is true when Seconds is a wall-clock measurement rather
	// than a model prediction.
	Measured bool

	// Runs and Threads record the measurement methodology for measured
	// backends: the number of timed repetitions (Seconds is their
	// minimum) and the requested SpMV fan-out — an upper bound on the
	// goroutines each multiplication spread its block rows over, since a
	// busy worker pool lends fewer helpers. Zero for modelled backends.
	Runs    int
	Threads int

	// Degraded is true when the requested backend could not produce this
	// measurement and a fallback costing stood in (Native falling back to
	// the analytic model after transient measurement failures exhaust
	// their retry budget or trip the breaker); DegradedReason says why.
	// A degraded measurement is complete and correct under the fallback —
	// Measured is false, and the annotation rides the result row so
	// clients can see which points lost their wall-clock costing.
	Degraded       bool
	DegradedReason string
}

// Backend costs characterization points on prepared streaming plans.
// Implementations must be safe for concurrent use.
type Backend interface {
	// ID is the backend's short stable identifier ("analytic",
	// "native"). It keys result caches, names CLI flags and service
	// query parameters, and is recorded in every Result and benchmark
	// artifact, so it must never change for an existing backend.
	ID() string

	// EvaluateInto costs one (plan, kernel, format) point, multiplying by
	// x, which it must not modify: the engine shares one x across every
	// point of a matrix. It writes the functional run into the caller's
	// run, reusing run.Y when its capacity suffices, and returns it as
	// Measurement.Run; an x that overlaps a run.Y the call would reuse is
	// rejected. A sweep group holds one Result for all its formats, so a
	// warm point allocates no output vector. The kernel spec selects what
	// is priced or measured: one SpMV, an SpMM, or an N-iteration solver
	// loop (Analytic amortizes the one-time decomposition over the
	// iterations; Native times the real exec iteration loop). The plan's
	// encode-once state is shared across backends and kernels;
	// EvaluateInto pays only per-evaluation work (the functional product,
	// which the modelled path copies from the plan for an operand it has
	// seen, plus timing for measured backends). A canceled ctx aborts
	// promptly — between warmup tile chunks for every backend, and
	// between iterations and timed samples for measured ones — returning
	// ctx.Err() without corrupting shared plan state; run's contents are
	// then unspecified.
	EvaluateInto(ctx context.Context, pl *hlsim.Plan, sc scenario.Spec, k formats.Kind, x []float64, run *hlsim.Result) (Measurement, error)

	// Parallelizable reports whether concurrent EvaluateInto calls preserve
	// result quality. The analytic model is pure and parallelizes
	// freely; wall-clock measurement under contention is noise, so the
	// engine serializes sweep groups when this is false.
	Parallelizable() bool
}

// registry holds the named backends selectable from CLIs and services.
// Construction is cheap and stateless, so For returns fresh values.
var registry = map[string]func() Backend{
	"analytic": func() Backend { return Analytic{} },
	"native":   func() Backend { return &Native{} },
}

// For resolves a backend by its ID. The empty string selects the
// analytic default, preserving pre-backend behavior everywhere a
// backend is optional.
func For(id string) (Backend, error) {
	if id == "" {
		id = "analytic"
	}
	mk, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("backend: unknown backend %q (want one of %v)", id, IDs())
	}
	return mk(), nil
}

// IDs lists the selectable backend identifiers, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
