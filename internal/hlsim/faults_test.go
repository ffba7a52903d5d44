package hlsim

import (
	"context"
	"errors"
	"testing"

	"copernicus/internal/faults"
	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/matrix"
	"copernicus/internal/resilience"
)

// The tests below drive the plan's containment points (faultpoints.go):
// a panic or injected error in any warmup worker or exec span must
// surface as a structured error, leave the slot idle (never poisoned),
// keep both pools at full capacity, and — after the fault clears — let a
// retry produce output bit-identical to a fault-free run.

func TestEncodePanicContained(t *testing.T) {
	t.Cleanup(faults.DisarmAll)
	m := gen.Random(192, 0.05, 311)
	x := testVectorFor(m.Cols)
	pl, err := NewPlan(Default(), m, 16)
	if err != nil {
		t.Fatal(err)
	}
	faults.Point("hlsim.encode.tile").Arm(faults.Injection{Kind: faults.KindPanic, Times: 1})
	_, err = pl.RunContext(context.Background(), formats.CSR, x)
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *resilience.PanicError", err)
	}
	if pe.Point != "hlsim.encode.tile" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v, want point hlsim.encode.tile with stack", pe)
	}
	// The slot was abandoned unpublished: the retry (fault exhausted)
	// re-encodes cleanly and matches a never-faulted plan bit for bit.
	faults.DisarmAll()
	r, err := pl.RunContext(context.Background(), formats.CSR, x)
	if err != nil {
		t.Fatalf("retry after contained panic: %v", err)
	}
	ref, err := mustPlan(t, m, 16).RunContext(context.Background(), formats.CSR, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Y {
		if r.Y[i] != ref.Y[i] {
			t.Fatalf("y[%d] = %g after retry, want %g (bit-identical)", i, r.Y[i], ref.Y[i])
		}
	}
}

func mustPlan(t *testing.T, m *matrix.CSR, p int) *Plan {
	t.Helper()
	pl, err := NewPlan(Default(), m, p)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestEncodeInjectedErrorNotSticky(t *testing.T) {
	t.Cleanup(faults.DisarmAll)
	m := gen.Random(128, 0.06, 313)
	x := testVectorFor(m.Cols)
	pl, err := NewPlan(Default(), m, 16)
	if err != nil {
		t.Fatal(err)
	}
	faults.Point("hlsim.encode.tile").Arm(faults.Injection{Kind: faults.KindError, Times: 1})
	if _, err := pl.RunContext(context.Background(), formats.ELL, x); !errors.Is(err, faults.Injected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	// Unlike a model error, an injected fault is not sticky: the very
	// next call (injection exhausted) succeeds on the same plan.
	if _, err := pl.RunContext(context.Background(), formats.ELL, x); err != nil {
		t.Fatalf("slot poisoned by injected encode fault: %v", err)
	}
}

func TestVerifyFaultRetriesInFull(t *testing.T) {
	t.Cleanup(faults.DisarmAll)
	m := gen.Random(128, 0.06, 317)
	x := testVectorFor(m.Cols)
	pl, err := NewPlan(Default(), m, 16)
	if err != nil {
		t.Fatal(err)
	}
	faults.Point("hlsim.verify.tile").Arm(faults.Injection{Kind: faults.KindError, Times: 1})
	if _, err := pl.RunContext(context.Background(), formats.COO, x); !errors.Is(err, faults.Injected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if _, err := pl.RunContext(context.Background(), formats.COO, x); err != nil {
		t.Fatalf("verify not retried after injected fault: %v", err)
	}

	faults.Point("hlsim.verify.tile").Arm(faults.Injection{Kind: faults.KindPanic, Times: 1})
	pl2 := mustPlan(t, m, 16)
	_, err = pl2.RunContext(context.Background(), formats.COO, x)
	var pe *resilience.PanicError
	if !errors.As(err, &pe) || pe.Point != "hlsim.verify.tile" {
		t.Fatalf("err = %v, want PanicError at hlsim.verify.tile", err)
	}
	faults.DisarmAll()
	if _, err := pl2.RunContext(context.Background(), formats.COO, x); err != nil {
		t.Fatalf("verify slot poisoned by contained panic: %v", err)
	}
}

func TestExecBuildFaultContained(t *testing.T) {
	t.Cleanup(faults.DisarmAll)
	m := gen.Random(128, 0.06, 331)
	x := testVectorFor(m.Cols)
	pl := mustPlan(t, m, 16)
	var r Result
	faults.Point("hlsim.exec.build").Arm(faults.Injection{Kind: faults.KindError, Times: 1})
	if err := pl.RunExecIntoContext(context.Background(), formats.CSC, x, &r, 2); !errors.Is(err, faults.Injected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if err := pl.RunExecIntoContext(context.Background(), formats.CSC, x, &r, 2); err != nil {
		t.Fatalf("exec slot poisoned by injected build fault: %v", err)
	}
}

// TestExecSpanPanicContained: a panic inside the warm exec hot loop —
// on pool workers and the caller alike — becomes a *resilience.PanicError,
// the pool parks back to full capacity, and the same plan retries to a
// bit-identical result.
func TestExecSpanPanicContained(t *testing.T) {
	t.Cleanup(faults.DisarmAll)
	m := gen.Random(192, 0.05, 337)
	x := testVectorFor(m.Cols)
	pl := mustPlan(t, m, 16)
	pool := usePool(t, 3)

	// Warm first so the fault lands in the multiplication, not the warmup.
	var ref Result
	if err := pl.RunExecIntoContext(context.Background(), formats.CSR, x, &ref, 4); err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), ref.Y...)

	for i := 0; i < 10; i++ {
		faults.Point("hlsim.exec.span").Arm(faults.Injection{Kind: faults.KindPanic, Times: 1})
		var r Result
		err := pl.RunExecIntoContext(context.Background(), formats.CSR, x, &r, 4)
		var pe *resilience.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("run %d: err = %v, want *resilience.PanicError", i, err)
		}
		if pe.Point != "hlsim.exec.span" {
			t.Fatalf("run %d: panic point %q", i, pe.Point)
		}
		if idleWorkers(pool) != pool.size {
			t.Fatalf("run %d: %d idle workers after contained panic, want %d (token leak)",
				i, idleWorkers(pool), pool.size)
		}
	}
	faults.DisarmAll()
	var r Result
	if err := pl.RunExecIntoContext(context.Background(), formats.CSR, x, &r, 4); err != nil {
		t.Fatalf("retry after contained exec panics: %v", err)
	}
	for i := range want {
		if r.Y[i] != want[i] {
			t.Fatalf("y[%d] = %g after contained panics, want %g (bit-identical)", i, r.Y[i], want[i])
		}
	}
}

// TestExecSpanInjectedError: the error-kind injection takes the
// non-panic path through execJob.fail and still stops every participant.
func TestExecSpanInjectedError(t *testing.T) {
	t.Cleanup(faults.DisarmAll)
	m := gen.Random(128, 0.06, 347)
	x := testVectorFor(m.Cols)
	pl := mustPlan(t, m, 16)
	var r Result
	if err := pl.RunExecIntoContext(context.Background(), formats.CSR, x, &r, 2); err != nil {
		t.Fatal(err)
	}
	faults.Point("hlsim.exec.span").Arm(faults.Injection{Kind: faults.KindError, Times: 1})
	if err := pl.RunExecIntoContext(context.Background(), formats.CSR, x, &r, 2); !errors.Is(err, faults.Injected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if err := pl.RunExecIntoContext(context.Background(), formats.CSR, x, &r, 2); err != nil {
		t.Fatalf("warm path broken by injected span error: %v", err)
	}
}

// TestEncodePoolNoLeakOnPanic: warmup helpers park again even when the
// pass panics, so repeated contained faults never drain the shared pool.
func TestEncodePoolNoLeakOnPanic(t *testing.T) {
	t.Cleanup(faults.DisarmAll)
	m := gen.Random(256, 0.05, 353)
	x := testVectorFor(m.Cols)
	pool := usePool(t, 3)
	for i := 0; i < 10; i++ {
		pl := mustPlan(t, m, 16)
		pl.SetWorkers(4)
		faults.Point("hlsim.encode.tile").Arm(faults.Injection{Kind: faults.KindPanic, Times: 1})
		_, err := pl.RunContext(context.Background(), formats.CSR, x)
		var pe *resilience.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("run %d: err = %v, want *resilience.PanicError", i, err)
		}
		if idleWorkers(pool) != pool.size {
			t.Fatalf("run %d: %d idle workers after contained panic, want %d", i, idleWorkers(pool), pool.size)
		}
	}
}
