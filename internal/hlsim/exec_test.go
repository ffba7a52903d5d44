package hlsim

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
)

// TestRunExecMatchesRunInto: the executable-kernel path must agree with
// the reference CSR-row path for every format at every thread count —
// within FP-reassociation tolerance in general, and bit-for-bit across
// thread counts (block-row decomposition is thread-count-invariant).
func TestRunExecMatchesRunInto(t *testing.T) {
	cfg := Default()
	m := gen.Random(100, 0.06, 51)
	x := testVectorFor(m.Cols)
	pl, err := NewPlan(cfg, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range formats.All() {
		var ref Result
		if err := pl.RunIntoContext(context.Background(), k, x, &ref); err != nil {
			t.Fatal(err)
		}
		var serial Result
		if err := pl.RunExecIntoContext(context.Background(), k, x, &serial, 1); err != nil {
			t.Fatal(err)
		}
		if serial.MemCycles != ref.MemCycles || serial.NNZ != ref.NNZ ||
			serial.Footprint != ref.Footprint || serial.PipelinedCycles != ref.PipelinedCycles {
			t.Fatalf("%v: exec aggregates diverge from RunIntoContext", k)
		}
		for i := range ref.Y {
			if d := math.Abs(serial.Y[i] - ref.Y[i]); d > 1e-11*math.Max(1, math.Abs(ref.Y[i])) {
				t.Fatalf("%v: Y[%d] = %v, reference %v", k, i, serial.Y[i], ref.Y[i])
			}
		}
		for _, threads := range []int{2, 3, runtime.GOMAXPROCS(0)} {
			var r Result
			if err := pl.RunExecIntoContext(context.Background(), k, x, &r, threads); err != nil {
				t.Fatal(err)
			}
			for i := range serial.Y {
				if r.Y[i] != serial.Y[i] {
					t.Fatalf("%v t=%d: Y[%d] = %v != single-thread %v (thread-count variance)",
						k, threads, i, r.Y[i], serial.Y[i])
				}
			}
		}
	}
}

// TestRunExecExactSingleTileColumn: with one tile column per block row,
// every row's products arrive in a single kernel call, so the
// row-ordered kernels must match the reference bit for bit.
func TestRunExecExactSingleTileColumn(t *testing.T) {
	cfg := Default()
	m := gen.Random(48, 0.2, 57)
	x := testVectorFor(m.Cols)
	pl, err := NewPlan(cfg, m, 64) // p > n: a single tile
	if err != nil {
		t.Fatal(err)
	}
	exact := []formats.Kind{
		formats.Dense, formats.CSR, formats.BCSR, formats.ELL, formats.SELL,
		formats.SELLCS, formats.COO, formats.JDS, formats.ELLCOO,
	}
	for _, k := range exact {
		var ref, got Result
		if err := pl.RunIntoContext(context.Background(), k, x, &ref); err != nil {
			t.Fatal(err)
		}
		if err := pl.RunExecIntoContext(context.Background(), k, x, &got, 2); err != nil {
			t.Fatal(err)
		}
		for i := range ref.Y {
			if got.Y[i] != ref.Y[i] {
				t.Fatalf("%v: Y[%d] = %v != reference %v (exact-mode kernel)", k, i, got.Y[i], ref.Y[i])
			}
		}
	}
}

// TestRunExecWarmZeroAllocs: once a format is warm, RunExecIntoContext at
// threads>1 must not allocate — pooled jobs, parked workers, reused Y —
// for every format's kernel.
func TestRunExecWarmZeroAllocs(t *testing.T) {
	cfg := Default()
	m := gen.Random(256, 0.05, 61)
	x := testVectorFor(m.Cols)
	pl, err := NewPlan(cfg, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	threads := max(2, runtime.GOMAXPROCS(0))
	for _, k := range formats.All() {
		t.Run(k.String(), func(t *testing.T) {
			var r Result
			for i := 0; i < 3; i++ { // warm format cache, exec state, and job pool
				if err := pl.RunExecIntoContext(context.Background(), k, x, &r, threads); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				if err := pl.RunExecIntoContext(context.Background(), k, x, &r, threads); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%v allocs per warm RunExecIntoContext at %d threads, want 0", allocs, threads)
			}
		})
	}
}

// TestRunExecConcurrentSharedPlan: many goroutines executing different
// formats on one plan (own Results, shared exec state and pool) must all
// produce correct output — the -race companion to the leader/waiter
// guards on the exec slots.
func TestRunExecConcurrentSharedPlan(t *testing.T) {
	cfg := Default()
	m := gen.Random(128, 0.08, 67)
	x := testVectorFor(m.Cols)
	pl, err := NewPlan(cfg, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	var ref Result
	if err := pl.RunIntoContext(context.Background(), formats.CSR, x, &ref); err != nil {
		t.Fatal(err)
	}
	kinds := formats.All()
	errs := make(chan error, 4*len(kinds))
	for g := 0; g < 4; g++ {
		for _, k := range kinds {
			go func(k formats.Kind) {
				var r Result
				if err := pl.RunExecIntoContext(context.Background(), k, x, &r, 3); err != nil {
					errs <- err
					return
				}
				for i := range ref.Y {
					if d := math.Abs(r.Y[i] - ref.Y[i]); d > 1e-11*math.Max(1, math.Abs(ref.Y[i])) {
						errs <- errors.New(k.String() + ": concurrent exec output diverged")
						return
					}
				}
				errs <- nil
			}(k)
		}
	}
	for i := 0; i < 4*len(kinds); i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunExecCancel: a canceled context aborts both the cold warmup and
// the warm multiplication with ctx.Err(), promptly, and leaves the plan
// reusable.
func TestRunExecCancel(t *testing.T) {
	cfg := Default()
	m := gen.Random(192, 0.05, 71)
	x := testVectorFor(m.Cols)
	pl, err := NewPlan(cfg, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	var r Result
	if err := pl.RunExecIntoContext(canceled, formats.ELL, x, &r, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cold canceled exec: err = %v, want context.Canceled", err)
	}
	if err := pl.RunExecIntoContext(context.Background(), formats.ELL, x, &r, 2); err != nil {
		t.Fatalf("plan poisoned by canceled warmup: %v", err)
	}
	if err := pl.RunExecIntoContext(canceled, formats.ELL, x, &r, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("warm canceled exec: err = %v, want context.Canceled", err)
	}

	// Mid-flight: cancel while a goroutine streams warm multiplications;
	// the in-flight call must return ctx.Err() promptly.
	ctx, cancelMid := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		for {
			var rr Result
			if err := pl.RunExecIntoContext(ctx, formats.ELL, x, &rr, 2); err != nil {
				done <- err
				return
			}
		}
	}()
	time.Sleep(2 * time.Millisecond)
	cancelMid()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-flight cancel: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled exec did not return promptly")
	}
}

// idleWorkers returns how many of p's workers are parked right now.
func idleWorkers(p *workerPool) int { return int(p.idle.Load()) }

// usePool makes a fresh pool of n workers the one every plan's fan-outs
// borrow from, until the test ends: then the default pool is back and
// this one stops. No hlsim test runs in parallel, so no fan-out sees the
// swap.
func usePool(t *testing.T, n int) *workerPool {
	t.Helper()
	p, prev := newPool(n), defaultPool
	defaultPool = p
	t.Cleanup(func() {
		defaultPool = prev
		p.stop()
	})
	return p
}

// TestExecPoolNoLeak: a canceled multi-thread run restores the pool's
// full parked capacity — workers are the tokens, and a worker that
// observes cancellation parks again instead of leaking.
func TestExecPoolNoLeak(t *testing.T) {
	cfg := Default()
	m := gen.Random(192, 0.05, 73)
	x := testVectorFor(m.Cols)
	pl, err := NewPlan(cfg, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	pool := usePool(t, 3)
	var r Result
	if err := pl.RunExecIntoContext(context.Background(), formats.CSR, x, &r, 4); err != nil {
		t.Fatal(err)
	}
	if idleWorkers(pool) != pool.size {
		t.Fatalf("after clean run: %d idle workers, want %d", idleWorkers(pool), pool.size)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 20; i++ {
		if err := pl.RunExecIntoContext(canceled, formats.CSR, x, &r, 4); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if idleWorkers(pool) != pool.size {
			t.Fatalf("after canceled run %d: %d idle workers, want %d (token leak)",
				i, idleWorkers(pool), pool.size)
		}
	}
	if err := pl.RunExecIntoContext(context.Background(), formats.CSR, x, &r, 4); err != nil {
		t.Fatal(err)
	}
}

// TestRunExecArgumentErrors: bad thread counts, mismatched operand
// lengths, and aliased buffers are rejected up front.
func TestRunExecArgumentErrors(t *testing.T) {
	cfg := Default()
	m := gen.Random(64, 0.1, 79)
	x := testVectorFor(m.Cols)
	pl, err := NewPlan(cfg, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	var r Result
	if err := pl.RunExecIntoContext(context.Background(), formats.CSR, x, &r, 0); err == nil {
		t.Fatal("threads=0 accepted")
	}
	if err := pl.RunExecIntoContext(context.Background(), formats.CSR, x[:10], &r, 1); err == nil {
		t.Fatal("short operand accepted")
	}
	if err := pl.RunExecIntoContext(context.Background(), formats.CSR, x, &r, 1); err != nil {
		t.Fatal(err)
	}
	if err := pl.RunExecIntoContext(context.Background(), formats.CSR, r.Y, &r, 1); err == nil {
		t.Fatal("aliased x and r.Y accepted")
	}
}
