package hlsim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitParked blocks until n goroutines are parked in phase.do's select,
// read from the goroutine dump: do has no hook, and a sleep would only
// make the parked path likely.
func waitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, "hlsim.(*phase[") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers parked on the phase", parked, n)
		}
		runtime.Gosched()
	}
}

// TestPhaseBuildsOnce: N concurrent callers run build exactly once and
// all observe the same published pointer.
func TestPhaseBuildsOnce(t *testing.T) {
	var ph phase[int]
	var builds atomic.Int32
	release := make(chan struct{})
	const n = 16
	got := make([]*int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := ph.do(context.Background(), func() (*int, error) {
				builds.Add(1)
				<-release // hold the leader so the others park as waiters
				v := 42
				return &v, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	waitParked(t, n-1)
	close(release)
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("build ran %d times, want 1", b)
	}
	for i, v := range got {
		if v == nil || v != got[0] || *v != 42 {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, v, got[0])
		}
	}
	if ph.v.Load() != got[0] {
		t.Fatal("the published pointer differs from the callers'")
	}
	// Published: later calls never build again.
	if _, err := ph.do(context.Background(), func() (*int, error) {
		t.Fatal("build re-ran after publication")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPhaseFailedLeaderHandsOff: a leader whose build fails leaves the
// phase unpublished, and a waiter parked on it becomes the next leader
// and publishes.
func TestPhaseFailedLeaderHandsOff(t *testing.T) {
	var ph phase[int]
	boom := errors.New("boom")
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := ph.do(context.Background(), func() (*int, error) {
			close(leaderIn)
			<-leaderGo
			return nil, boom
		})
		leaderErr <- err
	}()
	<-leaderIn

	waiterBuilt := make(chan struct{})
	waiterOut := make(chan *int, 1)
	go func() {
		v, err := ph.do(context.Background(), func() (*int, error) {
			close(waiterBuilt)
			v := 7
			return &v, nil
		})
		if err != nil {
			t.Error(err)
		}
		waiterOut <- v
	}()
	waitParked(t, 1) // the waiter is parked on the leader before it fails
	close(leaderGo)
	if err := <-leaderErr; !errors.Is(err, boom) {
		t.Fatalf("leader error = %v, want boom", err)
	}
	v := <-waiterOut
	select {
	case <-waiterBuilt:
	default:
		t.Fatal("waiter did not take over as leader")
	}
	if v == nil || *v != 7 || ph.v.Load() != v {
		t.Fatalf("waiter result %v not published (load = %v)", v, ph.v.Load())
	}
}

// TestPhaseCanceledWaiter: a waiter whose ctx is canceled returns
// ctx.Err() at once, while the leader still completes and publishes.
func TestPhaseCanceledWaiter(t *testing.T) {
	var ph phase[int]
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	leaderOut := make(chan *int, 1)
	go func() {
		v, err := ph.do(context.Background(), func() (*int, error) {
			close(leaderIn)
			<-leaderGo
			v := 3
			return &v, nil
		})
		if err != nil {
			t.Error(err)
		}
		leaderOut <- v
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err := ph.do(ctx, func() (*int, error) {
			t.Error("canceled waiter ran build")
			return nil, nil
		})
		waiterErr <- err
	}()
	waitParked(t, 1)
	cancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter error = %v, want context.Canceled", err)
	}
	if ph.v.Load() != nil {
		t.Fatal("phase published before the leader finished")
	}
	close(leaderGo)
	v := <-leaderOut
	if v == nil || *v != 3 || ph.v.Load() != v {
		t.Fatalf("leader result %v not published (load = %v)", v, ph.v.Load())
	}
}
