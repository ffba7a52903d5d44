// Package faults is a deterministic fault-injection registry for chaos
// testing. Code under test declares named injection points:
//
//	var encodeFault = faults.Point("hlsim.encode.tile")
//
// and calls encodeFault.Hit() (or Hit's error return) at the site. A
// disarmed point is a single atomic pointer load returning nil — cheap
// enough to leave in production builds. Tests and chaos harnesses arm a
// point with an Injection describing what to do (return an error, panic,
// or sleep) and when (on the Nth hit, for M hits) — counting is atomic
// and exact, so a fault plan replays identically run over run.
//
// Plans can also come from the environment: COPERNICUS_FAULTS holds a
// `;`-separated list of specs like
//
//	hlsim.encode.tile:error:after=2,times=1,transient
//	backend.native.measure:delay:delay=50ms
//	jobs.run:panic
//
// parsed at init, so a chaos run can arm a live server without code
// changes. Injected errors wrap the Injected sentinel (and, when marked
// transient, satisfy resilience.IsTransient) so containment layers can
// tell injected faults from real ones.
package faults

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"copernicus/internal/resilience"
)

// Injected is the sentinel wrapped by every injected error, so tests can
// assert a failure came from the harness: errors.Is(err, faults.Injected).
var Injected = errors.New("injected fault")

// Kind is what an armed injection does when it fires.
type Kind string

const (
	// KindError makes Hit return an error wrapping Injected.
	KindError Kind = "error"
	// KindPanic makes Hit panic with a *Panic value.
	KindPanic Kind = "panic"
	// KindDelay makes Hit sleep for Injection.Delay, then return nil.
	KindDelay Kind = "delay"
)

// Panic is the value thrown by a KindPanic injection; tests recognize it
// to distinguish injected panics from real ones.
type Panic struct{ PointName string }

func (p *Panic) Error() string { return "injected panic at " + p.PointName }

// Injection describes what an armed point does and when.
type Injection struct {
	// Kind selects error, panic, or delay; empty means KindError.
	Kind Kind
	// After is the 1-based hit on which the injection starts firing;
	// values below 1 mean 1 (fire from the first hit).
	After int
	// Times bounds how many hits fire; 0 means every hit from After on.
	Times int
	// Delay is the sleep duration for KindDelay.
	Delay time.Duration
	// Transient marks injected errors with resilience.Transient, so
	// retry policies classify them retryable.
	Transient bool
	// Err overrides the injected error (still wrapped with Injected
	// context by Hit); nil uses a default message naming the point.
	Err error
}

// P is one named injection point. The zero state (disarmed) is a single
// atomic pointer load on Hit.
type P struct {
	name string
	arm  atomic.Pointer[armed]
}

type armed struct {
	inj  Injection
	hits atomic.Int64 // hits observed since arming
}

var (
	regMu    sync.Mutex
	registry = map[string]*P{}
)

// Point returns the injection point named name, creating it on first
// use. Calling Point twice with the same name returns the same *P, so
// production code and tests share the instance.
func Point(name string) *P {
	regMu.Lock()
	defer regMu.Unlock()
	if p, ok := registry[name]; ok {
		return p
	}
	p := &P{name: name}
	registry[name] = p
	return p
}

// Name returns the point's registered name.
func (p *P) Name() string { return p.name }

// Arm attaches inj to the point, resetting its hit counter. Subsequent
// Hits fire per the injection's schedule.
func (p *P) Arm(inj Injection) {
	if inj.Kind == "" {
		inj.Kind = KindError
	}
	if inj.After < 1 {
		inj.After = 1
	}
	p.arm.Store(&armed{inj: inj})
}

// Disarm returns the point to its no-op state.
func (p *P) Disarm() { p.arm.Store(nil) }

// Hit is the injection site: nil when disarmed or outside the armed
// schedule; otherwise it injects. KindError returns an error wrapping
// Injected (transient-marked when configured), KindPanic panics with a
// *Panic, KindDelay sleeps then returns nil. Hit counting is atomic, so
// concurrent hits fire exactly the configured number of times.
func (p *P) Hit() error {
	a := p.arm.Load()
	if a == nil {
		return nil
	}
	n := a.hits.Add(1)
	after := int64(a.inj.After)
	if n < after {
		return nil
	}
	if a.inj.Times > 0 && n >= after+int64(a.inj.Times) {
		return nil
	}
	switch a.inj.Kind {
	case KindPanic:
		panic(&Panic{PointName: p.name})
	case KindDelay:
		time.Sleep(a.inj.Delay)
		return nil
	default:
		err := a.inj.Err
		if err == nil {
			err = fmt.Errorf("%w at %s (hit %d)", Injected, p.name, n)
		} else {
			err = fmt.Errorf("%w at %s: %w", Injected, p.name, err)
		}
		if a.inj.Transient {
			err = resilience.Transient(err)
		}
		return err
	}
}

// Hits returns how many times the point has been hit since it was last
// armed (0 when disarmed) — chaos assertions use it to confirm a fault
// plan actually exercised the site.
func (p *P) Hits() int64 {
	a := p.arm.Load()
	if a == nil {
		return 0
	}
	return a.hits.Load()
}

// DisarmAll resets every registered point — test cleanup.
func DisarmAll() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, p := range registry {
		p.arm.Store(nil)
	}
}

// Parse reads a fault plan: `;`-separated specs, each
// `point:kind[:opt,...]` where kind is error|panic|delay and opts are
// after=N, times=N, delay=DUR, transient. Whitespace around specs is
// ignored; empty specs are skipped.
func Parse(plan string) (map[string]Injection, error) {
	out := map[string]Injection{}
	for _, spec := range strings.Split(plan, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		parts := strings.SplitN(spec, ":", 3)
		if len(parts) < 2 {
			return nil, fmt.Errorf("faults: spec %q: want point:kind[:opts]", spec)
		}
		name := strings.TrimSpace(parts[0])
		if name == "" {
			return nil, fmt.Errorf("faults: spec %q: empty point name", spec)
		}
		inj := Injection{}
		switch Kind(strings.TrimSpace(parts[1])) {
		case KindError:
			inj.Kind = KindError
		case KindPanic:
			inj.Kind = KindPanic
		case KindDelay:
			inj.Kind = KindDelay
		default:
			return nil, fmt.Errorf("faults: spec %q: unknown kind %q", spec, parts[1])
		}
		if len(parts) == 3 {
			for _, opt := range strings.Split(parts[2], ",") {
				opt = strings.TrimSpace(opt)
				if opt == "" {
					continue
				}
				k, v, hasVal := strings.Cut(opt, "=")
				switch k {
				case "after":
					n, err := strconv.Atoi(v)
					if err != nil || n < 1 {
						return nil, fmt.Errorf("faults: spec %q: bad after=%q", spec, v)
					}
					inj.After = n
				case "times":
					n, err := strconv.Atoi(v)
					if err != nil || n < 0 {
						return nil, fmt.Errorf("faults: spec %q: bad times=%q", spec, v)
					}
					inj.Times = n
				case "delay":
					d, err := time.ParseDuration(v)
					if err != nil || d < 0 {
						return nil, fmt.Errorf("faults: spec %q: bad delay=%q", spec, v)
					}
					inj.Delay = d
				case "transient":
					if hasVal && v != "true" {
						return nil, fmt.Errorf("faults: spec %q: bad transient=%q", spec, v)
					}
					inj.Transient = true
				default:
					return nil, fmt.Errorf("faults: spec %q: unknown option %q", spec, k)
				}
			}
		}
		out[name] = inj
	}
	return out, nil
}

// ArmPlan parses and arms a fault plan (see Parse).
func ArmPlan(plan string) error {
	m, err := Parse(plan)
	if err != nil {
		return err
	}
	for name, inj := range m {
		Point(name).Arm(inj)
	}
	return nil
}

// EnvVar is the environment variable read at init for a fault plan.
const EnvVar = "COPERNICUS_FAULTS"

func init() {
	if plan := os.Getenv(EnvVar); plan != "" {
		if err := ArmPlan(plan); err != nil {
			fmt.Fprintf(os.Stderr, "faults: ignoring %s: %v\n", EnvVar, err)
		}
	}
}
