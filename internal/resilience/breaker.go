package resilience

import (
	"errors"
	"sync"
	"time"
)

// ErrBreakerOpen is returned by Breaker.Allow while the
// breaker is open: the protected dependency has failed enough consecutive
// times that further attempts are refused until the cooldown elapses.
// Callers should degrade (fall back to a cheaper path) rather than retry.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// breakerState is the classic three-state circuit-breaker machine.
type breakerState int

const (
	breakerClosed   breakerState = iota // normal operation, failures counted
	breakerOpen                         // refusing calls until cooldown elapses
	breakerHalfOpen                     // one probe in flight decides the fate
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a circuit breaker: closed while the dependency is healthy,
// open (refusing calls) after Threshold consecutive failures, and
// half-open after Cooldown — a single probe call is admitted, and its
// outcome closes or re-opens the circuit. The zero value is unusable;
// construct with NewBreaker. All methods are safe for concurrent use.
//
// The clock is injectable (see NewBreakerClock) so chaos tests can step
// time deterministically instead of sleeping through cooldowns.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    breakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight
	trips    uint64    // lifetime closed→open transitions
}

// NewBreaker returns a closed breaker that trips open after threshold
// consecutive failures (minimum 1) and admits a half-open probe once
// cooldown has elapsed.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return NewBreakerClock(threshold, cooldown, time.Now)
}

// NewBreakerClock is NewBreaker with an injectable clock for tests.
func NewBreakerClock(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// Allow reports whether a call may proceed: nil while closed or for the
// single half-open probe, ErrBreakerOpen otherwise. Every Allow that
// returns nil MUST be paired with exactly one Success or Failure.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return ErrBreakerOpen
		}
		b.state = breakerHalfOpen
		b.probing = true
		return nil
	default: // half-open
		if b.probing {
			return ErrBreakerOpen
		}
		b.probing = true
		return nil
	}
}

// Success records a successful call: it resets the failure count and,
// from half-open, closes the circuit.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	b.state = breakerClosed
}

// Failure records a failed call: from half-open it re-opens immediately;
// while closed it trips the breaker once consecutive failures reach the
// threshold.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.probing = false
		b.state = breakerOpen
		b.openedAt = b.now()
		b.trips++
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = b.now()
			b.trips++
		}
	}
}

// Cancel releases an Allow without recording an outcome — the protected
// call was aborted (context cancellation) before the dependency's health
// could be observed. The failure streak is unchanged and a half-open
// probe slot is returned for the next caller.
func (b *Breaker) Cancel() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// BreakerSnapshot is a point-in-time view for observability surfaces.
type BreakerSnapshot struct {
	State    string `json:"state"`
	Failures int    `json:"failures"`
	Trips    uint64 `json:"trips"`
}

// Snapshot returns the breaker's current state for /v1/stats and tests.
func (b *Breaker) Snapshot() BreakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerSnapshot{State: b.state.String(), Failures: b.failures, Trips: b.trips}
}
