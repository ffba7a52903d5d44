package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"copernicus/internal/backend"
	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/matrix"
	"copernicus/internal/scenario"
	"copernicus/internal/workloads"
)

// spmvOnly is the single-SpMV kernel axis of the paper's study.
var spmvOnly = []scenario.Spec{scenario.Default()}

// sweepPoint sweeps one (workload, kernel, p) group: SweepKernelsWith
// over one workload named name, one spec and one partition size.
func sweepPoint(e *Engine, b backend.Backend, name string, m *matrix.CSR, sc scenario.Spec, p int, kinds []formats.Kind) ([]Result, error) {
	return e.SweepKernelsWith(context.Background(), b, []workloads.Workload{{ID: name, M: m}}, []scenario.Spec{sc}, kinds, []int{p})
}

func streamSuite() ([]workloads.Workload, []formats.Kind, []int) {
	ws := []workloads.Workload{
		{ID: "a", M: gen.Random(160, 0.05, 3)},
		{ID: "b", M: gen.Band(192, 9, 5)},
	}
	return ws, formats.Core(), []int{8, 16}
}

// TestSweepStreamMatchesSweep: the flattened group stream must equal the
// batch slab exactly — same order, same values — on a cold engine, and
// again on a warm one.
func TestSweepStreamMatchesSweep(t *testing.T) {
	ws, kinds, ps := streamSuite()
	want, err := New().SweepKernelsWith(context.Background(), nil, ws, spmvOnly, kinds, ps)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	for _, pass := range []string{"cold", "warm"} {
		var got []Result
		err := e.SweepGroupsKernelsWith(context.Background(), nil, ws, spmvOnly, kinds, ps, func(g SweepGroup) error {
			got = append(got, g.Results...)
			return nil
		})
		if err != nil {
			t.Fatalf("%s stream: %v", pass, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s streamed results diverge from the batch sweep", pass)
		}
	}
}

// TestSweepGroupsOrderAndTiming: groups arrive in workload-major order
// with their point counts and a positive compute time.
func TestSweepGroupsOrderAndTiming(t *testing.T) {
	ws, kinds, ps := streamSuite()
	var seen []SweepGroup
	err := New().SweepGroupsKernelsWith(context.Background(), nil, ws, spmvOnly, kinds, ps, func(g SweepGroup) error {
		seen = append(seen, g)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(ws)*len(ps) {
		t.Fatalf("got %d groups, want %d", len(seen), len(ws)*len(ps))
	}
	for i, g := range seen {
		wantW := ws[i/len(ps)].ID
		wantP := ps[i%len(ps)]
		if g.Workload != wantW || g.P != wantP {
			t.Fatalf("group %d = (%s, %d), want (%s, %d)", i, g.Workload, g.P, wantW, wantP)
		}
		if len(g.Results) != len(kinds) {
			t.Fatalf("group %d has %d results, want %d", i, len(g.Results), len(kinds))
		}
		if g.Elapsed <= 0 {
			t.Fatalf("group %d reports non-positive compute time %v", i, g.Elapsed)
		}
	}
}

// TestSweepStreamYieldErrorStops: a yield error aborts the sweep and
// propagates unchanged.
func TestSweepStreamYieldErrorStops(t *testing.T) {
	ws, kinds, ps := streamSuite()
	boom := errors.New("consumer gone")
	calls := 0
	err := New().SweepGroupsKernelsWith(context.Background(), nil, ws, spmvOnly, kinds, ps, func(SweepGroup) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the yield error", err)
	}
	if calls != 1 {
		t.Fatalf("yield called %d times after erroring, want 1", calls)
	}
}

// TestSweepCancelMidWarmup is the acceptance test for end-to-end
// cancellation: on a large synthetic matrix, a context canceled shortly
// after the sweep starts must surface ctx.Err() well before the
// uncancelled sweep's duration — the engine aborts plan warmup between
// tile-encode chunks instead of running the slab to completion.
func TestSweepCancelMidWarmup(t *testing.T) {
	m := gen.Random(3072, 0.004, 11)
	ws := []workloads.Workload{{ID: "big", M: m}}
	kinds := formats.All()
	ps := []int{8, 16, 32}

	start := time.Now()
	if _, err := New().SweepKernelsWith(context.Background(), nil, ws, spmvOnly, kinds, ps); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(full / 20)
		cancel()
	}()
	start = time.Now()
	_, err := New().SweepKernelsWith(ctx, nil, ws, spmvOnly, kinds, ps)
	canceled := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if canceled >= full/2 {
		t.Fatalf("canceled sweep took %v of an uncancelled %v — cancellation did not abort the warmup promptly", canceled, full)
	}
}

// TestSweepWithPreCanceledContext returns immediately with ctx.Err().
func TestSweepWithPreCanceledContext(t *testing.T) {
	ws, kinds, ps := streamSuite()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New().SweepKernelsWith(ctx, nil, ws, spmvOnly, kinds, ps); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
