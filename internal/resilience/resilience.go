// Package resilience is the fault-containment substrate of Copernicus:
// retry with capped exponential backoff and full jitter, circuit
// breakers, and structured panic capture.
// Every primitive is context-first — cancellation wins over any retry or
// backoff schedule — and deterministic when seeded, so chaos tests can
// replay a failure byte for byte.
//
// The package sits below every compute layer (it imports nothing from
// this repository), so hlsim, backend, core, jobs, and service can all
// share one vocabulary for "what failed, is it worth retrying, and what
// do we do when it keeps failing":
//
//   - Transient marks an error as worth retrying; IsTransient and
//     Retryable classify (context cancellations are never retryable).
//   - Retry(ctx, policy, fn) re-runs fn under a Policy: capped
//     exponential backoff with full jitter, aborted by ctx at any point.
//   - Breaker trips after consecutive failures and recovers through a
//     half-open probe, so a persistently failing dependency degrades to
//     an immediate ErrBreakerOpen instead of burning retry budgets.
//   - PanicError carries a recovered panic (value, point, stack) as an
//     ordinary error, so a panic in a worker goroutine propagates to the
//     caller like any other failure instead of killing the process.
package resilience

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// Transient wraps err so IsTransient reports true: the failure is
// plausibly temporary (a timing glitch, a busy resource, an injected
// chaos fault) and a retry may succeed. Wrapping nil returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// IsTransient reports whether err (or anything it wraps) was marked with
// Transient. Context cancellations are never transient, even if wrapped:
// retrying work nobody is waiting for is pure waste.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var te *transientError
	return errors.As(err, &te)
}

// Retryable is the default retry classification: transient errors and
// recovered panics are worth another attempt (a panicking computation is
// retried up to the policy bound, then quarantined by the caller);
// context cancellations and plain errors are not.
func Retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if IsTransient(err) {
		return true
	}
	var pe *PanicError
	return errors.As(err, &pe)
}

// Policy configures Retry: how many attempts, how the backoff between
// them grows, and which errors are worth retrying. The zero value is a
// single attempt (no retry).
type Policy struct {
	// MaxAttempts is the total number of attempts, first try included.
	// Values below 1 mean 1.
	MaxAttempts int
	// BaseDelay seeds the backoff: the delay before attempt n+1 is drawn
	// uniformly from [0, min(MaxDelay, BaseDelay·Multiplier^(n-1))] —
	// capped exponential backoff with full jitter. Zero means no delay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff ceiling; zero means uncapped.
	MaxDelay time.Duration
	// Multiplier grows the ceiling per attempt; values below 1 mean 2.
	Multiplier float64
	// Seed makes the jitter deterministic: the same seed replays the
	// same delay schedule. Zero draws from the global source.
	Seed uint64
	// Retryable classifies errors worth another attempt; nil means the
	// package-level Retryable (transient errors and recovered panics).
	Retryable func(error) bool
	// OnRetry, when non-nil, observes each retry decision just before
	// the backoff sleep: the attempt number that failed (1-based), its
	// error, and the chosen delay.
	OnRetry func(attempt int, err error, delay time.Duration)
}

// newSeededRand is the deterministic jitter source used by Retry when a
// Policy carries a non-zero Seed.
func newSeededRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)))
}

// Delay returns the backoff before attempt n+1 (n is the 1-based attempt
// that just failed), drawing the full-jitter fraction from rng (nil uses
// the global source).
func (p Policy) Delay(n int, rng *rand.Rand) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	ceil := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		ceil *= mult
		if p.MaxDelay > 0 && ceil >= float64(p.MaxDelay) {
			ceil = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && ceil > float64(p.MaxDelay) {
		ceil = float64(p.MaxDelay)
	}
	var f float64
	if rng != nil {
		f = rng.Float64()
	} else {
		f = rand.Float64()
	}
	return time.Duration(f * ceil)
}

// Retry runs fn up to p.MaxAttempts times, sleeping the policy's jittered
// backoff between attempts. It returns nil on the first success, the
// last error when attempts are exhausted or the error is not retryable,
// and ctx.Err() if the context is canceled before or between attempts
// (a cancellation mid-sleep is observed immediately; fn is never started
// for a dead context). fn receives the same ctx and must honor it.
func Retry(ctx context.Context, p Policy, fn func(context.Context) error) error {
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	classify := p.Retryable
	if classify == nil {
		classify = Retryable
	}
	var rng *rand.Rand
	if p.Seed != 0 {
		rng = newSeededRand(p.Seed)
	}
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		err = fn(ctx)
		if err == nil {
			return nil
		}
		if attempt >= attempts || !classify(err) {
			return err
		}
		d := p.Delay(attempt, rng)
		if p.OnRetry != nil {
			p.OnRetry(attempt, err, d)
		}
		if d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
	}
}
