package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestTransientClassification(t *testing.T) {
	base := errors.New("boom")
	if IsTransient(base) {
		t.Fatal("plain error classified transient")
	}
	te := Transient(base)
	if !IsTransient(te) {
		t.Fatal("Transient-wrapped error not classified transient")
	}
	if !errors.Is(te, base) {
		t.Fatal("Transient must preserve the wrapped error for errors.Is")
	}
	if !IsTransient(fmt.Errorf("outer: %w", te)) {
		t.Fatal("transient marker lost through fmt.Errorf wrapping")
	}
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) must be nil")
	}
	// Context errors are never transient, even when marked.
	if IsTransient(Transient(context.Canceled)) {
		t.Fatal("canceled context classified transient")
	}
	if IsTransient(Transient(fmt.Errorf("deadline: %w", context.DeadlineExceeded))) {
		t.Fatal("deadline exceeded classified transient")
	}
}

func TestRetryableClassification(t *testing.T) {
	if Retryable(errors.New("plain")) {
		t.Fatal("plain error retryable")
	}
	if !Retryable(Transient(errors.New("flaky"))) {
		t.Fatal("transient error not retryable")
	}
	if !Retryable(Recovered("test.point", "oops")) {
		t.Fatal("recovered panic not retryable")
	}
	if Retryable(context.Canceled) || Retryable(context.DeadlineExceeded) {
		t.Fatal("context errors retryable")
	}
	if Retryable(nil) {
		t.Fatal("nil retryable")
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), Policy{MaxAttempts: 4, Seed: 1}, func(context.Context) error {
		calls++
		if calls < 3 {
			return Transient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestRetryStopsOnPermanentError(t *testing.T) {
	perm := errors.New("permanent")
	calls := 0
	err := Retry(context.Background(), Policy{MaxAttempts: 5, Seed: 1}, func(context.Context) error {
		calls++
		return perm
	})
	if !errors.Is(err, perm) {
		t.Fatalf("err = %v, want %v", err, perm)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (permanent errors are not retried)", calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	flaky := Transient(errors.New("always"))
	calls := 0
	var retries []int
	err := Retry(context.Background(), Policy{
		MaxAttempts: 3,
		Seed:        7,
		OnRetry:     func(attempt int, _ error, _ time.Duration) { retries = append(retries, attempt) },
	}, func(context.Context) error {
		calls++
		return flaky
	})
	if !errors.Is(err, flaky) {
		t.Fatalf("err = %v, want the last transient error", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if len(retries) != 2 || retries[0] != 1 || retries[1] != 2 {
		t.Fatalf("OnRetry attempts = %v, want [1 2]", retries)
	}
}

func TestRetryZeroPolicyIsSingleAttempt(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), Policy{}, func(context.Context) error {
		calls++
		return Transient(errors.New("flaky"))
	})
	if err == nil || calls != 1 {
		t.Fatalf("zero policy: calls=%d err=%v, want 1 attempt and an error", calls, err)
	}
}

func TestRetryHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Retry(ctx, Policy{MaxAttempts: 3}, func(context.Context) error {
		calls++
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("fn ran %d times on a dead context", calls)
	}
}

func TestRetryCancelDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	start := time.Now()
	err := Retry(ctx, Policy{
		MaxAttempts: 2,
		BaseDelay:   time.Hour, // jitter draws from (0, 1h]; cancel must cut it short
		Seed:        99,
		OnRetry:     func(int, error, time.Duration) { cancel() },
	}, func(context.Context) error {
		calls++
		return Transient(errors.New("flaky"))
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v; backoff sleep not interrupted", elapsed)
	}
}

func TestDelayDeterministicWhenSeeded(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Seed: 42}
	seq := func() []time.Duration {
		var errs []time.Duration
		// Reproduce Retry's internal schedule: fresh seeded rng, Delay(1..4).
		rng := newSeededRand(42)
		for n := 1; n <= 4; n++ {
			errs = append(errs, p.Delay(n, rng))
		}
		return errs
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d: %v vs %v — seeded schedule not deterministic", i, a[i], b[i])
		}
	}
	// Ceilings: 1ms, 2ms, 4ms, 8ms (capped). Every draw must respect its ceiling.
	ceil := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond}
	for i, d := range a {
		if d < 0 || d > ceil[i] {
			t.Fatalf("delay %d = %v outside [0, %v]", i, d, ceil[i])
		}
	}
}

func TestDelayCapsAtMaxDelay(t *testing.T) {
	p := Policy{BaseDelay: time.Second, MaxDelay: 2 * time.Second, Multiplier: 10}
	rng := newSeededRand(1)
	for n := 1; n <= 10; n++ {
		if d := p.Delay(n, rng); d > 2*time.Second {
			t.Fatalf("Delay(%d) = %v exceeds MaxDelay", n, d)
		}
	}
}

func TestPanicError(t *testing.T) {
	if Recovered("p", nil) != nil {
		t.Fatal("Recovered(nil) must be nil")
	}
	pe := Recovered("hlsim.exec.span", "index out of range")
	if pe.Point != "hlsim.exec.span" || len(pe.Stack) == 0 {
		t.Fatalf("bad PanicError: %+v", pe)
	}
	want := "panic at hlsim.exec.span: index out of range"
	if pe.Error() != want {
		t.Fatalf("Error() = %q, want %q", pe.Error(), want)
	}
	var as *PanicError
	if !errors.As(fmt.Errorf("job: %w", pe), &as) {
		t.Fatal("PanicError lost through wrapping")
	}
	// panic(err) values unwrap to the original error.
	base := errors.New("invariant violated")
	if !errors.Is(Recovered("p", base), base) {
		t.Fatal("error panic value not unwrapped")
	}
}
