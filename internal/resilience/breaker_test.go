package resilience

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock steps time manually so cooldown transitions are deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBreakerTripsAfterThreshold(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreakerClock(3, time.Minute, clk.now)
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("Allow before threshold: %v", err)
		}
		b.Failure()
	}
	if snap := b.Snapshot(); snap.State != "closed" || snap.Failures != 2 {
		t.Fatalf("snapshot before trip: %+v", snap)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow at threshold-1: %v", err)
	}
	b.Failure() // third consecutive failure trips it
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow while open = %v, want ErrBreakerOpen", err)
	}
	if snap := b.Snapshot(); snap.State != "open" || snap.Trips != 1 {
		t.Fatalf("snapshot after trip: %+v", snap)
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b := NewBreaker(2, time.Minute)
	b.Failure()
	b.Success()
	b.Failure()
	if err := b.Allow(); err != nil {
		t.Fatalf("breaker tripped on non-consecutive failures: %v", err)
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreakerClock(1, time.Minute, clk.now)
	b.Failure() // trip immediately (threshold 1)
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("breaker should be open")
	}
	clk.advance(59 * time.Second)
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("cooldown not elapsed; breaker should still refuse")
	}
	clk.advance(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	if snap := b.Snapshot(); snap.State != "half-open" {
		t.Fatalf("state = %s, want half-open", snap.State)
	}
	// Only one probe at a time.
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe failure re-opens; another cooldown is required.
	b.Failure()
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("breaker should re-open after failed probe")
	}
	clk.advance(2 * time.Minute)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	b.Success()
	if snap := b.Snapshot(); snap.State != "closed" || snap.Failures != 0 {
		t.Fatalf("snapshot after recovery: %+v", snap)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed breaker refusing calls: %v", err)
	}
}

func TestBreakerDo(t *testing.T) {
	b := NewBreaker(1, time.Hour)
	boom := errors.New("boom")
	if err := b.Do(func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want %v", err, boom)
	}
	if err := b.Do(func() error { return nil }); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Do while open = %v, want ErrBreakerOpen", err)
	}
}

func TestBreakerReset(t *testing.T) {
	b := NewBreaker(1, time.Hour)
	b.Failure()
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("breaker should be open")
	}
	b.Reset()
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow after Reset: %v", err)
	}
}

// Do runs fn behind the breaker: Allow, then Success/Failure based on
// fn's error (which is returned unchanged).
func (b *Breaker) Do(fn func() error) error {
	if err := b.Allow(); err != nil {
		return err
	}
	err := fn()
	if err != nil {
		b.Failure()
	} else {
		b.Success()
	}
	return err
}

// Reset force-closes the breaker and clears failure history.
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.failures = 0
	b.probing = false
}
