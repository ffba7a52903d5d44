package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"copernicus/internal/formats"
	"copernicus/internal/scenario"
	"copernicus/internal/workloads"
)

// fakeExec is a GroupExecutor whose groups are workloads named by their
// index; run decides each group's outcome and returns no result when it
// fails.
type fakeExec struct {
	parallel bool
	run      func(ctx context.Context, g int) error
}

func (f fakeExec) ExecuteGroup(ctx context.Context, w workloads.Workload, sc scenario.Spec, p int, kinds []formats.Kind) ([]Result, error) {
	g, err := strconv.Atoi(w.ID)
	if err != nil {
		return nil, err
	}
	if err := f.run(ctx, g); err != nil {
		return nil, err
	}
	return []Result{{Workload: w.ID, P: p}}, nil
}

func (f fakeExec) Parallelizable() bool { return f.parallel }

// fakeSweep runs a sweep of n fake groups (one kernel, one p) through f
// on an engine with the given worker count.
func fakeSweep(ctx context.Context, workers, n int, f fakeExec, yield func(SweepGroup) error) error {
	ws := make([]workloads.Workload, n)
	for i := range ws {
		ws[i].ID = strconv.Itoa(i)
	}
	e := New()
	e.SetWorkers(workers)
	return e.SweepGroupsExecWith(ctx, f, ws, spmvOnly, []formats.Kind{formats.CSR}, []int{8}, yield)
}

// groupIndex is the index a fake group's workload names.
func groupIndex(t *testing.T, g SweepGroup) int {
	t.Helper()
	i, err := strconv.Atoi(g.Workload)
	if err != nil || len(g.Results) != 1 || g.Results[0].Workload != g.Workload {
		t.Fatalf("malformed group %+v", g)
	}
	return i
}

// goroutineID parses the calling goroutine's id from its stack header.
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestSweepOneWorkerComputesOnCaller: with one participant — one worker,
// or any worker count under a non-Parallelizable executor — the caller
// computes each group and then yields it, starting no goroutine.
func TestSweepOneWorkerComputesOnCaller(t *testing.T) {
	for _, c := range []struct {
		workers  int
		parallel bool
	}{{1, true}, {4, false}} {
		const n = 5
		var events []string
		base := runtime.NumGoroutine()
		err := fakeSweep(context.Background(), c.workers, n, fakeExec{parallel: c.parallel, run: func(_ context.Context, g int) error {
			if got := runtime.NumGoroutine(); got != base {
				return fmt.Errorf("group %d ran with %d goroutines, %d before the sweep", g, got, base)
			}
			events = append(events, fmt.Sprint("exec ", g))
			return nil
		}}, func(g SweepGroup) error {
			events = append(events, fmt.Sprint("yield ", groupIndex(t, g)))
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d parallel=%v: %v", c.workers, c.parallel, err)
		}
		var want []string
		for g := range n {
			want = append(want, fmt.Sprint("exec ", g), fmt.Sprint("yield ", g))
		}
		if fmt.Sprint(events) != fmt.Sprint(want) {
			t.Fatalf("workers=%d parallel=%v: events %v, want %v", c.workers, c.parallel, events, want)
		}
	}
}

// TestSweepBlockedFirstGroupKeepsOrder: group 0 cannot finish until
// groups 1–3 have, so whoever claims it blocks while the other
// participants compute past it; groups still arrive in index order.
func TestSweepBlockedFirstGroupKeepsOrder(t *testing.T) {
	for _, workers := range []int{2, 4} {
		const n = 8
		var later sync.WaitGroup
		later.Add(3)
		released := make(chan struct{})
		go func() { later.Wait(); close(released) }()
		var got []int
		err := fakeSweep(context.Background(), workers, n, fakeExec{parallel: true, run: func(_ context.Context, g int) error {
			switch {
			case g == 0:
				select {
				case <-released:
				case <-time.After(10 * time.Second):
					return errors.New("groups 1-3 never finished while group 0 waited")
				}
			case g <= 3:
				later.Done()
			}
			return nil
		}}, func(g SweepGroup) error {
			got = append(got, groupIndex(t, g))
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: yielded groups %v, want %d", workers, got, n)
		}
		for i, g := range got {
			if g != i {
				t.Fatalf("workers=%d: yielded groups %v, want index order", workers, got)
			}
		}
	}
}

// TestSweepTwoFailingGroupsLowestWins: when groups 1 and 3 fail, the
// sweep returns group 1's error — even when group 3 fails first — and
// only group 0 is yielded.
func TestSweepTwoFailingGroupsLowestWins(t *testing.T) {
	errs := map[int]error{1: errors.New("group 1 failed"), 3: errors.New("group 3 failed")}
	for _, workers := range []int{1, 2, 4} {
		var got []int
		err := fakeSweep(context.Background(), workers, 6, fakeExec{parallel: true, run: func(_ context.Context, g int) error {
			if g == 1 {
				time.Sleep(5 * time.Millisecond) // let group 3 fail first
			}
			return errs[g]
		}}, func(g SweepGroup) error {
			got = append(got, groupIndex(t, g))
			return nil
		})
		if err != errs[1] {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, errs[1])
		}
		if fmt.Sprint(got) != "[0]" {
			t.Fatalf("workers=%d: yielded groups %v, want [0]", workers, got)
		}
	}
}

// TestSweepCancelWhileWaitingOnHelper: the caller has computed every
// group it could claim and waits on a group a helper holds; canceling
// ctx then returns ctx.Err() and leaves no goroutine behind.
func TestSweepCancelWhileWaitingOnHelper(t *testing.T) {
	const n = 4
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	caller := goroutineID()
	helperStarted := make(chan struct{})
	callerDone := make(chan struct{})
	canceled := make(chan struct{})
	go func() {
		defer close(canceled)
		select {
		case <-callerDone:
			cancel()
		case <-time.After(10 * time.Second):
		}
	}()
	var once sync.Once
	var callerGroups atomic.Int32
	err := fakeSweep(ctx, 2, n, fakeExec{parallel: true, run: func(ctx context.Context, g int) error {
		if goroutineID() != caller {
			// The helper holds its first group until the sweep is canceled.
			once.Do(func() { close(helperStarted) })
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(10 * time.Second):
				return errors.New("the sweep was never canceled")
			}
		}
		select {
		case <-helperStarted:
		case <-time.After(10 * time.Second):
			return errors.New("the helper never started a group")
		}
		if callerGroups.Add(1) == n-1 {
			close(callerDone)
		}
		return nil
	}}, func(SweepGroup) error { return nil })
	if err != context.Canceled || err != ctx.Err() {
		t.Fatalf("err = %v, want ctx.Err() = %v", err, ctx.Err())
	}
	if got := callerGroups.Load(); got != n-1 {
		t.Fatalf("caller computed %d groups, want %d", got, n-1)
	}
	<-canceled
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after the canceled sweep, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
