package hlsim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

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
	want := freshReference(t, 41, formats.CSR, x)
	if got.MemCycles != want.MemCycles || got.ComputeCycles != want.ComputeCycles ||
		got.DecompCycles != want.DecompCycles || got.Footprint != want.Footprint ||
		got.NNZ != want.NNZ || got.Sigma() != want.Sigma() {
		t.Fatal("post-cancel aggregates diverge from an untouched plan")
	}
	for i := range want.Y {
		if got.Y[i] != want.Y[i] {
			t.Fatalf("post-cancel Y[%d] = %v, want %v", i, got.Y[i], want.Y[i])
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

// TestPlanCancelMidVerifyRetries: cancellation between the encode and
// verify phases must leave the encodings unconsumed so a later caller
// can still run the decode cross-check and get verified results.
func TestPlanCancelMidVerifyRetries(t *testing.T) {
	m := gen.Random(256, 0.05, 47)
	pl, err := NewPlan(Default(), m, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := testVectorFor(m.Cols)
	// Trace warms the encode phase only (no verify, like the cycle-model
	// consumers).
	if _, err := pl.Trace(formats.ELL); err != nil {
		t.Fatal(err)
	}
	// A pre-canceled context aborts in the verify phase (the encode is
	// already cached, so the first ctx check it hits is verify's).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var r Result
	if err := pl.RunIntoContext(ctx, formats.ELL, x, &r); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled verify returned %v, want context.Canceled", err)
	}
	// The retry must verify successfully — the canceled attempt must not
	// have consumed the encodings or marked the slot verified.
	got, err := pl.RunContext(context.Background(), formats.ELL, x)
	if err != nil {
		t.Fatalf("post-cancel verify: %v", err)
	}
	want := freshReference(t, 47, formats.ELL, x)
	for i := range want.Y {
		if got.Y[i] != want.Y[i] {
			t.Fatalf("post-cancel Y[%d] = %v, want %v", i, got.Y[i], want.Y[i])
		}
	}
}
