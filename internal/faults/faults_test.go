package faults

import (
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"copernicus/internal/resilience"
)

func TestDisarmedPointIsNoop(t *testing.T) {
	p := Point("test.noop")
	t.Cleanup(p.Disarm)
	for i := 0; i < 100; i++ {
		if err := p.Hit(); err != nil {
			t.Fatalf("disarmed Hit: %v", err)
		}
	}
	if p.arm.Load() != nil || p.Hits() != 0 {
		t.Fatal("disarmed point reports armed state")
	}
}

func TestPointIdentity(t *testing.T) {
	if Point("test.identity") != Point("test.identity") {
		t.Fatal("Point must return the same instance per name")
	}
	if Point("test.identity").Name() != "test.identity" {
		t.Fatal("Name mismatch")
	}
}

func TestErrorInjectionSchedule(t *testing.T) {
	p := Point("test.schedule")
	t.Cleanup(p.Disarm)
	p.Arm(Injection{Kind: KindError, After: 3, Times: 2})
	var fired []int
	for i := 1; i <= 6; i++ {
		if err := p.Hit(); err != nil {
			fired = append(fired, i)
			if !errors.Is(err, Injected) {
				t.Fatalf("hit %d: error does not wrap Injected: %v", i, err)
			}
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 4 {
		t.Fatalf("fired on hits %v, want [3 4]", fired)
	}
	if p.Hits() != 6 {
		t.Fatalf("Hits = %d, want 6", p.Hits())
	}
}

func TestTransientInjection(t *testing.T) {
	p := Point("test.transient")
	t.Cleanup(p.Disarm)
	p.Arm(Injection{Kind: KindError, Transient: true})
	err := p.Hit()
	if !resilience.IsTransient(err) {
		t.Fatalf("transient injection not classified transient: %v", err)
	}
	if !errors.Is(err, Injected) {
		t.Fatalf("transient injection lost the Injected sentinel: %v", err)
	}
}

func TestCustomError(t *testing.T) {
	p := Point("test.custom")
	t.Cleanup(p.Disarm)
	mine := errors.New("my failure")
	p.Arm(Injection{Kind: KindError, Err: mine})
	err := p.Hit()
	if !errors.Is(err, mine) || !errors.Is(err, Injected) {
		t.Fatalf("custom error chain broken: %v", err)
	}
}

func TestPanicInjection(t *testing.T) {
	p := Point("test.panic")
	t.Cleanup(p.Disarm)
	p.Arm(Injection{Kind: KindPanic})
	defer func() {
		v := recover()
		ip, ok := v.(*Panic)
		if !ok {
			t.Fatalf("recovered %v (%T), want *faults.Panic", v, v)
		}
		if ip.PointName != "test.panic" {
			t.Fatalf("panic names point %q", ip.PointName)
		}
	}()
	p.Hit()
	t.Fatal("Hit did not panic")
}

func TestDelayInjection(t *testing.T) {
	p := Point("test.delay")
	t.Cleanup(p.Disarm)
	p.Arm(Injection{Kind: KindDelay, Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := p.Hit(); err != nil {
		t.Fatalf("delay Hit returned error: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("delay too short: %v", elapsed)
	}
}

func TestConcurrentHitsFireExactly(t *testing.T) {
	p := Point("test.concurrent")
	t.Cleanup(p.Disarm)
	p.Arm(Injection{Kind: KindError, After: 5, Times: 3})
	var mu sync.Mutex
	fired := 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := p.Hit(); err != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != 3 {
		t.Fatalf("fired %d times under concurrency, want exactly 3", fired)
	}
}

func TestRearmResetsCounter(t *testing.T) {
	p := Point("test.rearm")
	t.Cleanup(p.Disarm)
	p.Arm(Injection{Kind: KindError, After: 2})
	p.Hit()
	p.Arm(Injection{Kind: KindError, After: 2})
	if err := p.Hit(); err != nil {
		t.Fatal("re-arm did not reset the hit counter")
	}
	if err := p.Hit(); err == nil {
		t.Fatal("second hit after re-arm should fire")
	}
}

func TestParse(t *testing.T) {
	m, err := Parse("a.b:error:after=2,times=1,transient; c.d:delay:delay=50ms ;e.f:panic")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(m) != 3 {
		t.Fatalf("parsed %d specs, want 3", len(m))
	}
	ab := m["a.b"]
	if ab.Kind != KindError || ab.After != 2 || ab.Times != 1 || !ab.Transient {
		t.Fatalf("a.b = %+v", ab)
	}
	if cd := m["c.d"]; cd.Kind != KindDelay || cd.Delay != 50*time.Millisecond {
		t.Fatalf("c.d = %+v", cd)
	}
	if ef := m["e.f"]; ef.Kind != KindPanic {
		t.Fatalf("e.f = %+v", ef)
	}
	if m, err := Parse("  ;; "); err != nil || len(m) != 0 {
		t.Fatalf("blank plan: %v %v", m, err)
	}
	for _, bad := range []string{
		"noseparator",
		"x:weird",
		"x:error:after=0",
		"x:error:times=-1",
		"x:delay:delay=oops",
		"x:error:bogus=1",
		"x:error:transient=false",
		":error",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestArmPlan(t *testing.T) {
	t.Cleanup(DisarmAll)
	if err := ArmPlan("test.armplan:error:after=1"); err != nil {
		t.Fatalf("ArmPlan: %v", err)
	}
	if err := Point("test.armplan").Hit(); err == nil {
		t.Fatal("armed point did not fire")
	}
	if err := ArmPlan("x:nope"); err == nil {
		t.Fatal("bad plan accepted")
	}
}

func TestNamesSorted(t *testing.T) {
	Point("test.names.b")
	Point("test.names.a")
	names := registeredNames()
	ia, ib := -1, -1
	for i, n := range names {
		if n == "test.names.a" {
			ia = i
		}
		if n == "test.names.b" {
			ib = i
		}
	}
	if ia == -1 || ib == -1 || ia > ib {
		t.Fatalf("registered names %v: missing or unsorted", names)
	}
}

// registeredNames returns the sorted names of all registered points.
func registeredNames() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
