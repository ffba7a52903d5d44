package backend

import (
	"context"
	"strings"
	"testing"
	"time"

	"copernicus/internal/faults"
	"copernicus/internal/formats"
	"copernicus/internal/hlsim"
	"copernicus/internal/resilience"
	"copernicus/internal/scenario"
)

// resetMeasure restores the process-wide measurement state between tests:
// counters, breaker, and any armed fault point.
func resetMeasure(t *testing.T) {
	t.Helper()
	ResetNativeMeasureStats()
	t.Cleanup(func() {
		faults.DisarmAll()
		ResetNativeMeasureStats()
	})
}

// TestNativeRetriesTransientFault: a single transient failure of the
// timed phase is retried and the evaluation still returns a real
// measurement.
func TestNativeRetriesTransientFault(t *testing.T) {
	resetMeasure(t)
	pl := testPlan(t)
	x := ones(pl.Matrix().Cols)
	faults.Point("backend.native.measure").Arm(faults.Injection{Times: 1, Transient: true})

	n := &Native{Runs: 1}
	m, err := n.EvaluateInto(context.Background(), pl, scenario.MustParse("spmv"), formats.CSR, x, new(hlsim.Result))
	if err != nil {
		t.Fatalf("EvaluateInto: %v", err)
	}
	if !m.Measured || m.Degraded {
		t.Fatalf("want measured non-degraded result after retry, got Measured=%v Degraded=%v", m.Measured, m.Degraded)
	}
	st := NativeMeasureStats()
	if st.Retries < 1 || st.Failures < 1 {
		t.Fatalf("stats should record the retried failure: %+v", st)
	}
	if st.Breaker.State != "closed" || st.Breaker.Failures != 0 {
		t.Fatalf("a retried success must leave the breaker closed and clean: %+v", st.Breaker)
	}
}

// TestNativeDegradesOnPersistentFault: a persistently failing timed
// phase exhausts the retry budget and degrades to the annotated
// analytic fallback instead of erroring the row.
func TestNativeDegradesOnPersistentFault(t *testing.T) {
	resetMeasure(t)
	pl := testPlan(t)
	x := ones(pl.Matrix().Cols)
	faults.Point("backend.native.measure").Arm(faults.Injection{Transient: true})

	sc := scenario.MustParse("spmv")
	n := &Native{Runs: 1}
	run := new(hlsim.Result)
	m, err := n.EvaluateInto(context.Background(), pl, sc, formats.CSR, x, run)
	if err != nil {
		t.Fatalf("EvaluateInto: %v", err)
	}
	if m.Run != run {
		t.Fatal("the analytic fallback must write into the caller's Result")
	}
	if m.Measured {
		t.Fatal("degraded measurement must not claim Measured")
	}
	if !m.Degraded || !strings.Contains(m.DegradedReason, "analytic fallback") {
		t.Fatalf("want degraded annotation, got Degraded=%v reason=%q", m.Degraded, m.DegradedReason)
	}
	// The fallback is the analytic model's answer, bit for bit.
	want, err := (Analytic{}).Evaluate(context.Background(), pl, sc, formats.CSR, x)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seconds != want.Seconds || m.Iterations != want.Iterations {
		t.Fatalf("degraded costing %v/%d != analytic %v/%d", m.Seconds, m.Iterations, want.Seconds, want.Iterations)
	}
	st := NativeMeasureStats()
	if st.Degraded != 1 {
		t.Fatalf("degraded counter = %d, want 1", st.Degraded)
	}
	if st.Failures < uint64(measureRetry.MaxAttempts) {
		t.Fatalf("failures = %d, want every attempt counted (>= %d)", st.Failures, measureRetry.MaxAttempts)
	}
}

// TestNativeBreakerOpensAndShortCircuits: after threshold consecutive
// degraded evaluations the breaker opens and further evaluations skip
// the retry loop entirely, degrading immediately; after the cooldown a
// half-open probe readmits measurement and a success re-closes it.
func TestNativeBreakerOpensAndShortCircuits(t *testing.T) {
	resetMeasure(t)
	pl := testPlan(t)
	x := ones(pl.Matrix().Cols)
	sc := scenario.MustParse("spmv")

	now := time.Unix(0, 0)
	SetMeasureBreaker(resilience.NewBreakerClock(2, time.Minute, func() time.Time { return now }))
	pt := faults.Point("backend.native.measure")
	pt.Arm(faults.Injection{Transient: true})

	n := &Native{Runs: 1}
	for i := 0; i < 2; i++ {
		m, err := n.EvaluateInto(context.Background(), pl, sc, formats.CSR, x, new(hlsim.Result))
		if err != nil || !m.Degraded {
			t.Fatalf("eval %d: want degraded, got err=%v Degraded=%v", i, err, m.Degraded)
		}
	}
	st := NativeMeasureStats()
	if st.Breaker.State != "open" || st.Breaker.Trips != 1 {
		t.Fatalf("breaker should be open after threshold: %+v", st.Breaker)
	}

	// Open breaker: the fault point is no longer even reached.
	hitsBefore := pt.Hits()
	m, err := n.EvaluateInto(context.Background(), pl, sc, formats.CSR, x, new(hlsim.Result))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Degraded || !strings.Contains(m.DegradedReason, "breaker open") {
		t.Fatalf("want immediate breaker-open degradation, got %+v", m)
	}
	if pt.Hits() != hitsBefore {
		t.Fatal("open breaker must short-circuit before the timed phase")
	}

	// Cooldown elapses, fault cleared: the half-open probe measures and
	// closes the breaker.
	now = now.Add(2 * time.Minute)
	pt.Disarm()
	m, err = n.EvaluateInto(context.Background(), pl, sc, formats.CSR, x, new(hlsim.Result))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Measured || m.Degraded {
		t.Fatalf("probe should measure for real, got %+v", m)
	}
	if s := measureBreaker.Load().Snapshot(); s.State != "closed" {
		t.Fatalf("successful probe must close the breaker, got %+v", s)
	}
}

// TestNativePlainErrorPropagates: a non-transient measurement error is
// neither retried nor degraded — it propagates, and it does not count
// against the breaker.
func TestNativePlainErrorPropagates(t *testing.T) {
	resetMeasure(t)
	pl := testPlan(t)
	x := ones(pl.Matrix().Cols)
	faults.Point("backend.native.measure").Arm(faults.Injection{Times: 1})

	n := &Native{Runs: 1}
	_, err := n.EvaluateInto(context.Background(), pl, scenario.MustParse("spmv"), formats.CSR, x, new(hlsim.Result))
	if err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("want injected error to propagate, got %v", err)
	}
	st := NativeMeasureStats()
	if st.Retries != 0 {
		t.Fatalf("plain errors must not retry: %+v", st)
	}
	if st.Breaker.Failures != 0 {
		t.Fatalf("plain errors say nothing about measurement health: %+v", st.Breaker)
	}
}

// TestNativeCanceledContextPropagates: cancellation during the timed
// phase aborts cleanly without tripping or charging the breaker.
func TestNativeCanceledContextPropagates(t *testing.T) {
	resetMeasure(t)
	pl := testPlan(t)
	x := ones(pl.Matrix().Cols)

	// Warm the plan first so cancellation lands in the timed phase.
	n := &Native{Runs: 1}
	if _, err := n.EvaluateInto(context.Background(), pl, scenario.MustParse("spmv"), formats.CSR, x, new(hlsim.Result)); err != nil {
		t.Fatal(err)
	}
	ResetNativeMeasureStats()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := n.EvaluateInto(ctx, pl, scenario.MustParse("spmv"), formats.CSR, x, new(hlsim.Result))
	if err == nil {
		t.Fatal("want cancellation error")
	}
	st := NativeMeasureStats()
	if st.Breaker.Failures != 0 || st.Degraded != 0 {
		t.Fatalf("cancellation must not charge the breaker or degrade: %+v", st)
	}
}
