package hlsim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"copernicus/internal/faults"
	"copernicus/internal/formats"
	"copernicus/internal/gen"
)

// freshReference runs the same point on an untouched plan — the golden
// outcome a post-cancellation retry must reproduce exactly.
func freshReference(t *testing.T, seed uint64, k formats.Kind, x []float64) *Result {
	t.Helper()
	m := gen.Random(256, 0.05, seed)
	pl, err := NewPlan(Default(), m, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := pl.RunContext(context.Background(), k, x)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPlanCancelMidWarmupLeavesSlotConsistent: canceling a sweep during
// a format's warmup must not leave the per-format slot half-encoded — a
// later characterization of the same format on the same cached plan must
// re-run the encode from scratch and return exactly the results an
// untouched plan produces. The encode hook is the rendezvous: it fires
// at the start of the warmup and cancels the context, so the abort lands
// mid-warmup (after the slot's leader was elected, before any chunk is
// aggregated).
func TestPlanCancelMidWarmupLeavesSlotConsistent(t *testing.T) {
	m := gen.Random(256, 0.05, 41)
	pl, err := NewPlan(Default(), m, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := testVectorFor(m.Cols)

	ctx, cancel := context.WithCancel(context.Background())
	planEncodeHook = func(formats.Kind) { cancel() }
	if _, err := pl.RunContext(ctx, formats.CSR, x); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled warmup returned %v, want context.Canceled", err)
	}
	planEncodeHook = nil

	// The same plan, same format, fresh context: the slot must encode
	// cleanly, not serve a poisoned or partial state.
	got, err := pl.RunContext(context.Background(), formats.CSR, x)
	if err != nil {
		t.Fatalf("post-cancel run on the same plan: %v", err)
	}
	requireSameRun(t, "post-cancel", got, freshReference(t, 41, formats.CSR, x))
}

// requireSameRun fails unless got has want's aggregates and output bit for
// bit.
func requireSameRun(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.MemCycles != want.MemCycles || got.ComputeCycles != want.ComputeCycles ||
		got.DecompCycles != want.DecompCycles || got.Footprint != want.Footprint ||
		got.NNZ != want.NNZ || got.Sigma() != want.Sigma() {
		t.Fatalf("%s: aggregates diverge from an untouched plan", label)
	}
	for i := range want.Y {
		if got.Y[i] != want.Y[i] {
			t.Fatalf("%s: Y[%d] = %v, want %v", label, i, got.Y[i], want.Y[i])
		}
	}
}

// TestPlanCancelLeaderPromotesWaiter: a waiter parked on a canceled
// encode leader must take over the slot under its own (live) context and
// produce correct results, while the canceled leader observes its own
// ctx.Err(). The hook choreographs the race: the leader parks in the
// hook until the waiter is verifiably waiting on the slot, then has its
// context canceled before encoding a single chunk.
func TestPlanCancelLeaderPromotesWaiter(t *testing.T) {
	m := gen.Random(256, 0.05, 43)
	pl, err := NewPlan(Default(), m, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := testVectorFor(m.Cols)

	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	leaderParked := make(chan struct{})
	releaseLeader := make(chan struct{})
	planEncodeHook = func(formats.Kind) {
		if calls.Add(1) == 1 { // the doomed leader
			close(leaderParked)
			<-releaseLeader
		}
	}
	defer func() { planEncodeHook = nil }()

	leaderErr := make(chan error, 1)
	go func() {
		_, err := pl.RunContext(ctx, formats.COO, x)
		leaderErr <- err
	}()
	<-leaderParked

	waiterDone := make(chan *Result, 1)
	go func() {
		r, err := pl.RunContext(context.Background(), formats.COO, x) // background ctx: must survive
		if err != nil {
			t.Errorf("waiter: %v", err)
			waiterDone <- nil
			return
		}
		waiterDone <- r
	}()
	// Give the waiter time to park on the slot's wait channel, then doom
	// the leader. (If the waiter has not parked yet it simply finds the
	// slot idle after the leader aborts — both paths must work.)
	time.Sleep(10 * time.Millisecond)
	cancel()
	close(releaseLeader)

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader returned %v, want context.Canceled", err)
	}
	got := <-waiterDone
	if got == nil {
		t.Fatal("waiter failed")
	}
	want := freshReference(t, 43, formats.COO, x)
	for i := range want.Y {
		if got.Y[i] != want.Y[i] {
			t.Fatalf("waiter Y[%d] = %v, want %v", i, got.Y[i], want.Y[i])
		}
	}
	if n := calls.Load(); n < 2 {
		t.Fatalf("encode ran %d times; the waiter never re-ran the aborted encode", n)
	}
}

// TestPlanCancelMidTraceRetries: a cycle-model-only first use aborted
// mid-warmup must publish nothing — no priced tile table, no byte in
// MemoryBytes — so a later functional run of the same format re-runs the
// whole warmup, cross-check included, and returns exactly what an
// untouched plan returns. The encode hook aborts the pass after its
// leader was elected and before any chunk is priced: it cancels
// KernelCycles' context, and for Trace, which takes no context, it arms
// an injected error at hlsim.encode.tile, which the pass handles exactly
// like a cancellation.
func TestPlanCancelMidTraceRetries(t *testing.T) {
	t.Cleanup(faults.DisarmAll)
	t.Cleanup(func() { planEncodeHook = nil })
	cases := []struct {
		name    string
		abort   func(pl *Plan) error
		wantErr error
	}{
		{"KernelCycles", func(pl *Plan) error {
			ctx, cancel := context.WithCancel(context.Background())
			planEncodeHook = func(formats.Kind) { cancel() }
			_, err := pl.KernelCycles(ctx, formats.ELL, 1)
			return err
		}, context.Canceled},
		{"Trace", func(pl *Plan) error {
			planEncodeHook = func(formats.Kind) {
				faults.Point("hlsim.encode.tile").Arm(faults.Injection{Kind: faults.KindError, Times: 1})
			}
			_, err := pl.Trace(formats.ELL)
			return err
		}, faults.Injected},
	}
	m := gen.Random(256, 0.05, 47)
	x := testVectorFor(m.Cols)
	want := freshReference(t, 47, formats.ELL, x)
	for _, c := range cases {
		pl, err := NewPlan(Default(), m, 8)
		if err != nil {
			t.Fatal(err)
		}
		before := pl.MemoryBytes()
		if err := c.abort(pl); !errors.Is(err, c.wantErr) {
			t.Fatalf("%s: aborted warmup returned %v, want %v", c.name, err, c.wantErr)
		}
		planEncodeHook = nil
		faults.DisarmAll()
		if pl.fmts[formats.ELL].warm.v.Load() != nil || pl.MemoryBytes() != before {
			t.Fatalf("%s: aborted warmup published state (MemoryBytes %d → %d)", c.name, before, pl.MemoryBytes())
		}
		got, err := pl.RunContext(context.Background(), formats.ELL, x)
		if err != nil {
			t.Fatalf("%s: retry after the aborted warmup: %v", c.name, err)
		}
		requireSameRun(t, c.name+" retry", got, want)
	}
}
