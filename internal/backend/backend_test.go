package backend

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/hlsim"
	"copernicus/internal/scenario"
)

func testPlan(t *testing.T) *hlsim.Plan {
	t.Helper()
	m := gen.Random(128, 0.05, 11)
	pl, err := hlsim.NewPlan(hlsim.Default(), m, 16)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func ones(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

// TestAnalyticMatchesPlanRun: the analytic backend is a pass-through over
// Plan.RunContext — same seconds, same cycle totals, same functional output.
func TestAnalyticMatchesPlanRun(t *testing.T) {
	pl := testPlan(t)
	x := ones(pl.Matrix().Cols)
	for _, k := range formats.Core() {
		want, err := pl.RunContext(context.Background(), k, x)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := Analytic{}.Evaluate(context.Background(), pl, scenario.Default(), k, x)
		if err != nil {
			t.Fatal(err)
		}
		if meas.Measured {
			t.Fatalf("%v: analytic measurement marked Measured", k)
		}
		if meas.Seconds != want.Seconds() {
			t.Fatalf("%v: analytic seconds %v != plan seconds %v", k, meas.Seconds, want.Seconds())
		}
		if meas.Run.PipelinedCycles != want.PipelinedCycles || meas.Run.MemCycles != want.MemCycles {
			t.Fatalf("%v: analytic cycle totals diverge from Plan.RunContext", k)
		}
		for i := range want.Y {
			if meas.Run.Y[i] != want.Y[i] {
				t.Fatalf("%v: functional output diverges at row %d", k, i)
			}
		}
	}
}

// TestNativeMeasures: the native backend produces a positive wall-time
// measurement with its methodology recorded, and the functional output
// still equals the software reference.
func TestNativeMeasures(t *testing.T) {
	pl := testPlan(t)
	x := ones(pl.Matrix().Cols)
	ref := pl.Matrix().MulVec(x)
	n := &Native{Runs: 3}
	meas, err := n.EvaluateInto(context.Background(), pl, scenario.Default(), formats.CSR, x, new(hlsim.Result))
	if err != nil {
		t.Fatal(err)
	}
	if !meas.Measured {
		t.Fatal("native measurement not marked Measured")
	}
	if meas.Seconds <= 0 {
		t.Fatalf("native seconds %v, want > 0", meas.Seconds)
	}
	if meas.Runs != 3 {
		t.Fatalf("native runs %d, want 3", meas.Runs)
	}
	if meas.Threads < 1 {
		t.Fatalf("native threads %d, want >= 1", meas.Threads)
	}
	for i := range ref {
		if math.Abs(meas.Run.Y[i]-ref[i]) > 1e-9 {
			t.Fatalf("native functional output diverges at row %d: %g vs %g", i, meas.Run.Y[i], ref[i])
		}
	}
}

// TestNativeThreads: the fan-out is validated against GOMAXPROCS,
// recorded as the effective count actually used (1 when unset), and a
// multi-thread measurement still reproduces the software reference.
func TestNativeThreads(t *testing.T) {
	pl := testPlan(t)
	x := ones(pl.Matrix().Cols)
	ref := pl.Matrix().MulVec(x)
	maxT := runtime.GOMAXPROCS(0)

	if _, err := (&Native{Threads: maxT + 1}).EvaluateInto(context.Background(), pl, scenario.Default(), formats.CSR, x, new(hlsim.Result)); err == nil {
		t.Fatalf("threads=%d accepted with GOMAXPROCS=%d", maxT+1, maxT)
	}

	for _, threads := range []int{0, 1, maxT} {
		n := &Native{Runs: 2, Threads: threads}
		meas, err := n.EvaluateInto(context.Background(), pl, scenario.Default(), formats.ELL, x, new(hlsim.Result))
		if err != nil {
			t.Fatal(err)
		}
		want := threads
		if want == 0 {
			want = 1
		}
		if meas.Threads != want {
			t.Fatalf("Threads=%d recorded as %d, want effective %d", threads, meas.Threads, want)
		}
		for i := range ref {
			if math.Abs(meas.Run.Y[i]-ref[i]) > 1e-9 {
				t.Fatalf("threads=%d: output diverges at row %d", threads, i)
			}
		}
	}
}

// TestNativeConcurrentEvaluates: concurrent multi-thread EvaluateInto
// calls, each into its own Result, on a shared plan serialize on
// measureMu without deadlocking against the exec worker pool — exec
// workers never take the measurement lock, and dispatch is non-blocking,
// so lock-holders never wait on a specific worker.
func TestNativeConcurrentEvaluates(t *testing.T) {
	pl := testPlan(t)
	x := ones(pl.Matrix().Cols)
	threads := min(2, runtime.GOMAXPROCS(0))
	kinds := []formats.Kind{formats.CSR, formats.ELL, formats.DIA, formats.CSC}
	errs := make(chan error, len(kinds))
	for _, k := range kinds {
		go func(k formats.Kind) {
			_, err := (&Native{Runs: 1, Threads: threads}).EvaluateInto(context.Background(), pl, scenario.Default(), k, x, new(hlsim.Result))
			errs <- err
		}(k)
	}
	for range kinds {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestNativeDefaultRuns: zero Runs selects the documented default.
func TestNativeDefaultRuns(t *testing.T) {
	pl := testPlan(t)
	meas, err := (&Native{}).EvaluateInto(context.Background(), pl, scenario.Default(), formats.COO, ones(pl.Matrix().Cols), new(hlsim.Result))
	if err != nil {
		t.Fatal(err)
	}
	if meas.Runs != DefaultRuns {
		t.Fatalf("default runs %d, want %d", meas.Runs, DefaultRuns)
	}
}

// TestNativePropagatesPlanErrors: an unknown format kind is an error from
// the native backend too, not a panic.
func TestNativePropagatesPlanErrors(t *testing.T) {
	pl := testPlan(t)
	if _, err := (&Native{}).EvaluateInto(context.Background(), pl, scenario.Default(), formats.Kind(99), ones(pl.Matrix().Cols), new(hlsim.Result)); err == nil {
		t.Fatal("native accepted an unknown format kind")
	}
}

// TestFor: the registry resolves IDs, defaults the empty string to
// analytic, and rejects unknown names.
func TestFor(t *testing.T) {
	for id, parallel := range map[string]bool{"analytic": true, "native": false, "": true} {
		b, err := For(id)
		if err != nil {
			t.Fatalf("For(%q): %v", id, err)
		}
		if id != "" && b.ID() != id {
			t.Fatalf("For(%q).ID() = %q", id, b.ID())
		}
		if b.Parallelizable() != parallel {
			t.Fatalf("For(%q).Parallelizable() = %v", id, b.Parallelizable())
		}
	}
	if b, err := For(""); err != nil || b.ID() != "analytic" {
		t.Fatalf("For(\"\") = %v, %v; want analytic", b, err)
	}
	if _, err := For("roofline"); err == nil {
		t.Fatal("unknown backend accepted")
	}
	ids := IDs()
	if len(ids) != 2 || ids[0] != "analytic" || ids[1] != "native" {
		t.Fatalf("IDs() = %v", ids)
	}
}

// staleResult returns a Result left over from another, larger plan, with
// its whole Y buffer overwritten by NaN: whatever EvaluateInto leaves of
// it shows up in a comparison with a fresh Result.
func staleResult(t *testing.T) *hlsim.Result {
	t.Helper()
	other, err := hlsim.NewPlan(hlsim.Default(), gen.Random(200, 0.05, 3), 8)
	if err != nil {
		t.Fatal(err)
	}
	run := new(hlsim.Result)
	if _, err := (Analytic{}).EvaluateInto(context.Background(), other, scenario.MustParse("cg:4"), formats.COO, ones(200), run); err != nil {
		t.Fatal(err)
	}
	y := run.Y[:cap(run.Y)]
	for i := range y {
		y[i] = math.NaN()
	}
	return run
}

// sameBitsY reports whether two outputs hold the same float64 bits.
func sameBitsY(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEvaluateIntoReusedResult: a Result reused from another plan, with a
// longer NaN-filled Y, gives the same Measurement as a fresh one — every
// Run field, Y bit for bit — under the analytic backend for each kernel
// family, and the same Y and Iterations under the native backend. The
// Measurement's Run is the caller's Result.
func TestEvaluateIntoReusedResult(t *testing.T) {
	// The fresh Results run on a plan of their own: a plan keeps the
	// product of its first operand, and a stale buffer's leftovers must
	// not reach the baseline through it.
	pl, fresh := testPlan(t), testPlan(t)
	x := ones(pl.Matrix().Cols)
	ctx := context.Background()
	for _, spec := range []string{"spmv", "cg:7", "spmm:4", "bfs"} {
		sc := scenario.MustParse(spec)
		for _, k := range []formats.Kind{formats.CSR, formats.DIA} {
			run := staleResult(t)
			got, err := Analytic{}.EvaluateInto(ctx, pl, sc, k, x, run)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Analytic{}.EvaluateInto(ctx, fresh, sc, k, x, new(hlsim.Result))
			if err != nil {
				t.Fatal(err)
			}
			if got.Run != run {
				t.Fatalf("%s/%v: Measurement.Run is not the caller's Result", spec, k)
			}
			if !sameBitsY(got.Run.Y, want.Run.Y) {
				t.Fatalf("%s/%v: reused Result's Y differs from a fresh one", spec, k)
			}
			gotRun, wantRun := *got.Run, *want.Run
			gotRun.Y, wantRun.Y = nil, nil
			if !reflect.DeepEqual(gotRun, wantRun) {
				t.Fatalf("%s/%v: reused Run %+v, fresh %+v", spec, k, gotRun, wantRun)
			}
			got.Run, want.Run = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%v: reused Measurement %+v, fresh %+v", spec, k, got, want)
			}
		}
	}

	n := &Native{Runs: 1}
	for _, spec := range []string{"spmv", "cg:3"} {
		sc := scenario.MustParse(spec)
		run := staleResult(t)
		got, err := n.EvaluateInto(ctx, pl, sc, formats.ELL, x, run)
		if err != nil {
			t.Fatal(err)
		}
		want, err := n.EvaluateInto(ctx, fresh, sc, formats.ELL, x, new(hlsim.Result))
		if err != nil {
			t.Fatal(err)
		}
		if got.Run != run || !sameBitsY(got.Run.Y, want.Run.Y) || got.Iterations != want.Iterations {
			t.Fatalf("native %s: reused Result gives Y/Iterations %v/%d, fresh %v/%d",
				spec, got.Run.Y, got.Iterations, want.Run.Y, want.Iterations)
		}
	}
}

// TestEvaluateIntoRejectsAliasedOperand: an x that overlaps the Y buffer
// the call would reuse is rejected by both backends, not multiplied into
// a cleared input.
func TestEvaluateIntoRejectsAliasedOperand(t *testing.T) {
	pl := testPlan(t)
	run := &hlsim.Result{Y: ones(pl.Matrix().Rows)}
	x := run.Y[:pl.Matrix().Cols]
	for _, b := range []Backend{Analytic{}, &Native{Runs: 1}} {
		if _, err := b.EvaluateInto(context.Background(), pl, scenario.Default(), formats.CSR, x, run); err == nil {
			t.Fatalf("%s: an x aliasing run.Y was accepted", b.ID())
		}
	}
}
