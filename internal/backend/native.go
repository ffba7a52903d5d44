package backend

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"copernicus/internal/faults"
	"copernicus/internal/formats"
	"copernicus/internal/hlsim"
	"copernicus/internal/resilience"
	"copernicus/internal/scenario"
)

// Native measures what the analytic backend predicts: the real wall time of
// the warm tile-parallel kernel through the format's own executable layout
// (Plan.RunExecIntoContext, driven per iteration by Plan.RunKernelInto) on
// the host CPU. It reuses the encode-once plan, so partitioning, encoding,
// and the decode cross-check are identical to the analytic path and excluded
// from the timing — the measurement covers exactly the iteration traversal
// the model prices, walking the format's real encoded layout. A
// multi-iteration kernel spec (cg:60, spmm:8, ...) times the whole resolved
// iteration loop as one unit, so the reported seconds is the measured
// counterpart of the analytic amortized kernel cost.
//
// Methodology — unchanged from the single-SpMV path: one untimed warm-up
// call triggers encode/verify, the resident exec encodings, and any
// growth of the caller's output buffer; the timed phase then takes Runs
// samples and reports their minimum (the least-disturbed observation of
// a deterministic computation). Samples shorter than minSample are batched — several
// kernel invocations per timer read — so clock granularity cannot
// dominate small matrices (a 60-iteration kernel usually self-batches
// past the threshold at batch 1). Threads selects the fan-out of each
// SpMV (1..GOMAXPROCS; the recorded Measurement.Threads is the requested
// count, 1 when unset).
//
// Lock ordering: the timed region holds the process-wide measureMu while
// RunExecIntoContext borrows helpers from hlsim's process-wide worker
// pool, the one pool that warmups and exec builds borrow from too. The two are
// independent — pool workers only run tile passes and format kernels and
// never take measureMu (or any backend lock), and measureMu holders never
// wait for a *specific* worker (dispatch is non-blocking and a busy pool
// lends fewer helpers) — so a thread-count sweep holding the lock cannot
// deadlock against concurrent warmups or exec runs on other plans.
//
// The absolute numbers are host CPU nanoseconds, not accelerator cycles:
// they are comparable across formats and thread counts on one machine
// (rank orderings, ns-per-nnz trends, parallel speedups), not to the
// modelled FPGA latencies.
type Native struct {
	// Runs is the number of timed samples; the minimum is reported.
	// Zero or negative selects DefaultRuns.
	Runs int

	// Threads is the SpMV fan-out: block rows are spread over up to this
	// many goroutines per multiplication. Zero selects 1 (the serial
	// kernel walk); values above GOMAXPROCS are rejected, since the extra
	// goroutines could only time-slice and distort the measurement.
	Threads int
}

// WithThreads sets the SpMV fan-out of a native backend value. Only the
// native backend has a measured fan-out, and counts beyond GOMAXPROCS are
// rejected: the extra goroutines could only time-slice and distort the
// measurement.
func WithThreads(b Backend, threads int) (Backend, error) {
	nb, ok := b.(*Native)
	if !ok {
		return nil, fmt.Errorf("threads applies only to the native backend, not %q", b.ID())
	}
	if maxT := runtime.GOMAXPROCS(0); threads < 1 || threads > maxT {
		return nil, fmt.Errorf("threads %d outside [1, GOMAXPROCS=%d]", threads, maxT)
	}
	nb.Threads = threads
	return nb, nil
}

// DefaultRuns is the min-of-k sample count used when Native.Runs is
// unset.
const DefaultRuns = 5

// minSample is the shortest timed sample the measurement accepts before
// batching multiple SpMVs per timer read.
const minSample = 100 * time.Microsecond

// maxBatch bounds the batching so calibration cannot run away on
// degenerate (near-empty) matrices.
const maxBatch = 4096

// measureMu serializes the timed region across every Native value in the
// process. Wall-clock samples contend for the same cores no matter which
// instance takes them — Parallelizable() already makes Engine sweeps
// serial, but independent callers (concurrent service requests resolve a
// fresh Native each) would otherwise time each other's load. One
// measurement at a time is a property of the host, not of an instance.
var measureMu sync.Mutex

// ptNativeMeasure lets the chaos suite fail the timed phase of a native
// evaluation: a transient injection exercises the retry, a persistent
// one trips the breaker into analytic degradation.
var ptNativeMeasure = faults.Point("backend.native.measure")

// Measurement resilience, process-wide like measureMu: a flaky timed
// phase (injected fault, or a future real source like a perf-counter
// hiccup) is retried with backoff; past the breaker threshold, native
// evaluations degrade to the analytic model — annotated, not failed —
// until the cooldown admits a probe. Fresh Native values are resolved
// per request, so per-instance state would never accumulate; host
// measurement health is a property of the process.
var (
	measureBreaker atomic.Pointer[resilience.Breaker]

	natRetries  atomic.Uint64 // retried measurement attempts
	natDegraded atomic.Uint64 // evaluations degraded to analytic
	natFailures atomic.Uint64 // measurement attempts that failed
)

// measureRetry is the timed-phase retry policy: a few quick attempts
// with jittered millisecond backoff. Classification is the package
// default (transient errors and recovered panics retry; context
// cancellations and plain errors do not).
var measureRetry = resilience.Policy{
	MaxAttempts: 3,
	BaseDelay:   time.Millisecond,
	MaxDelay:    10 * time.Millisecond,
	OnRetry:     func(int, error, time.Duration) { natRetries.Add(1) },
}

func init() {
	// Threshold 3 / 5s cooldown: a persistently failing timed phase stops
	// burning its 3-attempt retry budget per row after 3 consecutive
	// degraded evaluations, and measurement is re-probed twice a minute.
	measureBreaker.Store(resilience.NewBreaker(3, 5*time.Second))
}

// SetMeasureBreaker replaces the measurement breaker — tests inject
// thresholds and clocks. nil restores the default.
func SetMeasureBreaker(b *resilience.Breaker) {
	if b == nil {
		b = resilience.NewBreaker(3, 5*time.Second)
	}
	measureBreaker.Store(b)
}

// NativeStats is the failure observability of native measurement,
// surfaced on /v1/stats.
type NativeStats struct {
	Retries  uint64                     `json:"retries"`
	Degraded uint64                     `json:"degraded"`
	Failures uint64                     `json:"failures"`
	Breaker  resilience.BreakerSnapshot `json:"breaker"`
}

// NativeMeasureStats snapshots the native measurement failure counters
// and breaker state.
func NativeMeasureStats() NativeStats {
	return NativeStats{
		Retries:  natRetries.Load(),
		Degraded: natDegraded.Load(),
		Failures: natFailures.Load(),
		Breaker:  measureBreaker.Load().Snapshot(),
	}
}

// ResetNativeMeasureStats zeroes the counters and restores a fresh
// default breaker — test isolation.
func ResetNativeMeasureStats() {
	natRetries.Store(0)
	natDegraded.Store(0)
	natFailures.Store(0)
	SetMeasureBreaker(nil)
}

// ID returns "native".
func (*Native) ID() string { return "native" }

// Parallelizable is false: concurrent wall-clock samples contend for
// cores and inflate each other, so sweeps serialize native points.
func (*Native) Parallelizable() bool { return false }

// EvaluateInto measures the warm kernel of one (plan, kernel, format)
// point into r: the timed unit is one full kernel invocation — the spec's
// resolved iteration count of back-to-back exec SpMVs. A canceled ctx
// aborts the run between the warmup's tile chunks, between iterations,
// between calibration batches, and between timed samples — a measurement
// loop is never left mid-flight holding the process-wide measurement
// lock.
func (n *Native) EvaluateInto(ctx context.Context, pl *hlsim.Plan, sc scenario.Spec, k formats.Kind, x []float64, r *hlsim.Result) (Measurement, error) {
	threads := n.Threads
	if threads <= 0 {
		threads = 1
	}
	if maxT := runtime.GOMAXPROCS(0); threads > maxT {
		return Measurement{}, fmt.Errorf("backend: native threads %d exceeds GOMAXPROCS %d", threads, maxT)
	}
	iters := sc.Iterations(pl.Matrix())
	// Warm-up: encode, decode-verify, the resident exec encodings, and
	// any growth of r's output buffer all happen here, outside the timed
	// region. The warm RunKernelInto path is allocation-free, so the
	// samples below time pure kernel work.
	if err := pl.RunExecIntoContext(ctx, k, x, r, threads); err != nil {
		return Measurement{}, err
	}
	if err := ctx.Err(); err != nil {
		return Measurement{}, err
	}

	runs := n.Runs
	if runs <= 0 {
		runs = DefaultRuns
	}

	// The timed phase runs behind the process-wide breaker with a bounded
	// retry: a transiently failing measurement is re-sampled per policy,
	// and a persistently failing one — retry budget exhausted, breaker
	// past its threshold — degrades this evaluation to the analytic model
	// with an annotation instead of erroring the sweep row. The warm-up
	// above already verified the point, so the fallback costs only the
	// modelled pricing.
	br := measureBreaker.Load()
	if err := br.Allow(); err != nil {
		return n.degrade(ctx, pl, sc, k, x, r, "measurement breaker open")
	}
	var meas Measurement
	err := resilience.Retry(ctx, measureRetry, func(ctx context.Context) error {
		m, merr := n.measure(ctx, pl, k, x, r, threads, iters, runs)
		if merr != nil {
			natFailures.Add(1)
			return merr
		}
		meas = m
		return nil
	})
	switch {
	case err == nil:
		br.Success()
		return meas, nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		br.Cancel() // aborted, not unhealthy
		return Measurement{}, err
	case resilience.Retryable(err):
		br.Failure()
		return n.degrade(ctx, pl, sc, k, x, r, fmt.Sprintf("measurement failed after %d attempts: %v", measureRetry.MaxAttempts, err))
	default:
		br.Cancel() // a plain error says nothing about measurement health
		return Measurement{}, err
	}
}

// measure is one attempt at the timed phase: calibrate the batch size,
// then take runs min-of-k samples, all under the process-wide
// measurement lock.
func (n *Native) measure(ctx context.Context, pl *hlsim.Plan, k formats.Kind, x []float64, r *hlsim.Result, threads, iters, runs int) (Measurement, error) {
	if err := ptNativeMeasure.Hit(); err != nil {
		return Measurement{}, err
	}
	measureMu.Lock()
	defer measureMu.Unlock()

	// Calibrate the batch size so one sample is long enough to trust.
	batch := 1
	for batch < maxBatch {
		if err := ctx.Err(); err != nil {
			return Measurement{}, err
		}
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := pl.RunKernelInto(ctx, k, x, r, threads, iters); err != nil {
				return Measurement{}, err
			}
		}
		if time.Since(start) >= minSample {
			break
		}
		batch *= 2
	}

	best := time.Duration(1<<63 - 1)
	for s := 0; s < runs; s++ {
		if err := ctx.Err(); err != nil {
			return Measurement{}, err
		}
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := pl.RunKernelInto(ctx, k, x, r, threads, iters); err != nil {
				return Measurement{}, err
			}
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return Measurement{
		Run:        r,
		Seconds:    best.Seconds() / float64(batch),
		Iterations: iters,
		Measured:   true,
		Runs:       runs,
		Threads:    threads,
	}, nil
}

// degrade falls back to the analytic model for a point whose wall-clock
// measurement is unavailable, writing the modelled run into the same r
// and annotating the Measurement so the degradation is visible on the
// result row (core.Result.Degraded, the service's degraded/degraded_reason
// fields).
func (n *Native) degrade(ctx context.Context, pl *hlsim.Plan, sc scenario.Spec, k formats.Kind, x []float64, r *hlsim.Result, reason string) (Measurement, error) {
	natDegraded.Add(1)
	m, err := (Analytic{}).EvaluateInto(ctx, pl, sc, k, x, r)
	if err != nil {
		return Measurement{}, err
	}
	m.Degraded = true
	m.DegradedReason = "native: " + reason + "; analytic fallback"
	return m, nil
}
