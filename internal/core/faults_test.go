package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"copernicus/internal/backend"
	"copernicus/internal/faults"
	"copernicus/internal/formats"
	"copernicus/internal/hlsim"
	"copernicus/internal/resilience"
	"copernicus/internal/scenario"
	"copernicus/internal/workloads"
)

// wrapBackend decorates the analytic backend: fail errors chosen
// evaluations (matched on the plan's matrix), mutate rewrites successful
// measurements.
type wrapBackend struct {
	fail   func(pl *hlsim.Plan) error
	mutate func(*backend.Measurement)
}

func (w *wrapBackend) ID() string           { return "wraptest" }
func (w *wrapBackend) Parallelizable() bool { return true }

func (w *wrapBackend) EvaluateInto(ctx context.Context, pl *hlsim.Plan, sc scenario.Spec, k formats.Kind, x []float64, run *hlsim.Result) (backend.Measurement, error) {
	if w.fail != nil {
		if err := w.fail(pl); err != nil {
			return backend.Measurement{}, err
		}
	}
	m, err := backend.Analytic{}.EvaluateInto(ctx, pl, sc, k, x, run)
	if err == nil && w.mutate != nil {
		w.mutate(&m)
	}
	return m, err
}

// TestValidatePointRejectsBadPartition: partition sizes the encoders or
// the synthesis model would panic on come back as clean
// formats.ErrBadPartition errors from every entry point — the panics are
// no longer reachable from untrusted (service) input.
func TestValidatePointRejectsBadPartition(t *testing.T) {
	ws, _, _ := sweepInputs()
	e := New()
	cases := []struct {
		k formats.Kind
		p int
	}{
		{formats.BCSR, 6},    // not divisible by the block edge
		{formats.SELL, 9},    // not divisible by the slice height
		{formats.SELLCS, 18}, // divisible by 2 but not the slice height
		{formats.Dense, 2},   // below the synthesis model minimum
		{formats.CSR, 0},
		{formats.CSR, -8},
	}
	for _, tc := range cases {
		_, err := e.Characterize("w", ws[0].M, tc.k, tc.p)
		if !errors.Is(err, formats.ErrBadPartition) {
			t.Errorf("Characterize(%v, p=%d): err = %v, want ErrBadPartition", tc.k, tc.p, err)
		}
		_, err = sweepPoint(e, nil, "w", ws[0].M, scenario.Default(), tc.p, []formats.Kind{tc.k})
		if !errors.Is(err, formats.ErrBadPartition) {
			t.Errorf("SweepKernelsWith(%v, p=%d): err = %v, want ErrBadPartition", tc.k, tc.p, err)
		}
	}
	// The valid grid still works.
	if _, err := e.Characterize("w", ws[0].M, formats.SELL, 16); err != nil {
		t.Fatalf("valid point rejected: %v", err)
	}
}

// TestSweepGroupInjectedError: an error injected at core.sweep.group
// fails the sweep cleanly — the groups before the faulted one still
// stream out in order, and the error names the failed group.
func TestSweepGroupInjectedError(t *testing.T) {
	ws, kinds, ps := sweepInputs()
	defer faults.DisarmAll()
	faults.Point("core.sweep.group").Arm(faults.Injection{After: 2})

	e := New()
	e.SetWorkers(1)
	var got []SweepGroup
	err := e.SweepGroupsKernelsWith(context.Background(), nil, ws, spmvOnly, kinds, ps, func(g SweepGroup) error {
		got = append(got, g)
		return nil
	})
	if err == nil || !errors.Is(err, faults.Injected) {
		t.Fatalf("want injected group error, got %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("exactly the pre-fault group should stream out, got %d", len(got))
	}
	if got[0].Workload != ws[0].ID || got[0].P != ps[0] {
		t.Fatalf("first group out of order: %+v", got[0])
	}
}

// TestSweepGroupPanicContained: a panic injected under a sweep worker is
// recovered into a *resilience.PanicError carrying the point name and a
// stack — the process survives, the sweep fails structurally, and after
// disarming the same engine sweeps clean.
func TestSweepGroupPanicContained(t *testing.T) {
	ws, kinds, ps := sweepInputs()
	defer faults.DisarmAll()
	faults.Point("core.sweep.group").Arm(faults.Injection{Kind: faults.KindPanic})

	e := New()
	_, err := e.SweepKernelsWith(context.Background(), nil, ws, spmvOnly, kinds, ps)
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
	if pe.Point != "core.sweep.group" || len(pe.Stack) == 0 {
		t.Fatalf("panic error missing provenance: point=%q stack=%d bytes", pe.Point, len(pe.Stack))
	}

	faults.DisarmAll()
	if _, err := e.SweepKernelsWith(context.Background(), nil, ws, spmvOnly, kinds, ps); err != nil {
		t.Fatalf("engine should be healthy after a contained panic: %v", err)
	}
}

// TestSweepBackendErrorOneGroup: when the backend errors for one
// workload mid-sweep, the earlier workloads' groups are still emitted in
// order and the error identifies the failed point.
func TestSweepBackendErrorOneGroup(t *testing.T) {
	c := workloads.Config{Scale: 128, RandomDim: 128, BandDim: 96, Seed: 0xC0FE}
	ws := append(workloads.RandomSuite(c), workloads.BandSuite(c)...)
	kinds := formats.Core()
	ps := []int{16}

	bad := ws[1].M
	b := &wrapBackend{fail: func(pl *hlsim.Plan) error {
		if pl.Matrix() == bad {
			return fmt.Errorf("stub backend down for workload %s", ws[1].ID)
		}
		return nil
	}}

	e := New()
	e.SetWorkers(2)
	var got []SweepGroup
	err := e.SweepGroupsKernelsWith(context.Background(), b, ws, spmvOnly, kinds, ps, func(g SweepGroup) error {
		got = append(got, g)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "stub backend down") {
		t.Fatalf("want the stub backend error, got %v", err)
	}
	if !strings.Contains(err.Error(), ws[1].ID) {
		t.Fatalf("error should name the failed workload %q: %v", ws[1].ID, err)
	}
	if len(got) != 1 || got[0].Workload != ws[0].ID {
		t.Fatalf("the healthy earlier group should be emitted first, got %+v", got)
	}
	for _, r := range got[0].Results {
		if r.Workload != ws[0].ID {
			t.Fatalf("emitted group carries foreign result: %+v", r)
		}
	}
}

// TestDegradedMeasurementPropagates: a backend that degrades a
// measurement surfaces the annotation on the Result row.
func TestDegradedMeasurementPropagates(t *testing.T) {
	ws, _, _ := sweepInputs()
	b := &wrapBackend{mutate: func(m *backend.Measurement) {
		m.Degraded = true
		m.DegradedReason = "native: measurement breaker open; analytic fallback"
	}}
	e := New()
	csr := []formats.Kind{formats.CSR}
	rs, err := sweepPoint(e, b, "w", ws[0].M, scenario.Default(), 16, csr)
	if err != nil {
		t.Fatal(err)
	}
	if r := rs[0]; !r.Degraded || !strings.Contains(r.DegradedReason, "analytic fallback") {
		t.Fatalf("degradation lost on the result row: %+v", r)
	}
	r2, err := e.Characterize("w", ws[0].M, formats.CSR, 16)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Degraded || r2.DegradedReason != "" {
		t.Fatalf("analytic result must not be degraded: %+v", r2)
	}
}

// TestSweepVerifiesEveryFormat: the functional check runs on every point,
// not only on the first format of a plan, whose product the plan stores
// and later formats copy. A backend that corrupts Y of one later format
// fails the sweep naming that format, cold and warm, and leaves the plan's
// stored product intact for a clean sweep afterwards.
func TestSweepVerifiesEveryFormat(t *testing.T) {
	ws, kinds, ps := sweepInputs()
	ws, ps = ws[:1], ps[:1]
	bad := kinds[3]
	b := &wrapBackend{mutate: func(m *backend.Measurement) {
		if m.Run.Kind == bad {
			m.Run.Y[len(m.Run.Y)-1] += 0.5
		}
	}}
	e := New()
	for _, pass := range []string{"cold", "warm"} {
		_, err := e.SweepKernelsWith(context.Background(), b, ws, spmvOnly, kinds, ps)
		if err == nil || !strings.Contains(err.Error(), "functional mismatch") ||
			!strings.Contains(err.Error(), fmt.Sprintf("/%v/", bad)) {
			t.Fatalf("%s: want a functional mismatch naming %v, got %v", pass, bad, err)
		}
	}
	if _, err := e.SweepKernelsWith(context.Background(), nil, ws, spmvOnly, kinds, ps); err != nil {
		t.Fatalf("clean sweep after the corrupted ones: %v", err)
	}
}
