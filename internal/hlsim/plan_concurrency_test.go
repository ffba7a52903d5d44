package hlsim

import (
	"context"
	"sync"
	"testing"
	"time"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
)

// TestPlanFormatsEncodeConcurrently is the regression test for the old
// lock-scope bug: Plan.format held one plan-wide mutex across the whole
// multi-tile encode loop, so two sweep groups characterizing different
// formats on the same cached plan fully serialized. With per-format
// once-guards both encodes must be in flight at once: each goroutine
// parks in the encode hook until the other format's encode has also
// started — under the old monolithic lock this rendezvous can never
// happen and the test times out.
func TestPlanFormatsEncodeConcurrently(t *testing.T) {
	m := gen.Random(128, 0.05, 51)
	pl, err := NewPlan(Default(), m, 16)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	rendezvous := make(chan struct{})
	go func() {
		wg.Wait()
		close(rendezvous)
	}()
	planEncodeHook = func(formats.Kind) {
		wg.Done()
		select {
		case <-rendezvous:
		case <-time.After(10 * time.Second):
		}
	}
	defer func() { planEncodeHook = nil }()

	done := make(chan error, 2)
	x := testVectorFor(m.Cols)
	for _, k := range []formats.Kind{formats.CSR, formats.CSC} {
		k := k
		go func() {
			_, err := pl.RunContext(context.Background(), k, x)
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("format encodes serialized: the two formats never ran concurrently")
		}
	}
}

// TestPlanParallelWarmupDeterministic: encoding a format's tiles on the
// worker pool must produce results bit-identical to a serial encode —
// aggregates, functional output, traces, and schedules alike.
func TestPlanParallelWarmupDeterministic(t *testing.T) {
	cfg := Default()
	m := gen.Random(256, 0.04, 61)
	x := testVectorFor(m.Cols)
	serial, err := NewPlan(cfg, m, 8)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewPlan(cfg, m, 8)
	if err != nil {
		t.Fatal(err)
	}
	usePool(t, 3)
	parallel.SetWorkers(4)
	for _, k := range formats.All() {
		sr, err := serial.RunContext(context.Background(), k, x)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := parallel.RunContext(context.Background(), k, x)
		if err != nil {
			t.Fatal(err)
		}
		if sr.MemCycles != pr.MemCycles || sr.ComputeCycles != pr.ComputeCycles ||
			sr.PipelinedCycles != pr.PipelinedCycles || sr.Footprint != pr.Footprint ||
			sr.DotRows != pr.DotRows || sr.NNZ != pr.NNZ ||
			sr.BalanceRatio() != pr.BalanceRatio() || sr.Sigma() != pr.Sigma() {
			t.Fatalf("%v: parallel warmup aggregates diverge from serial", k)
		}
		for i := range sr.Y {
			if sr.Y[i] != pr.Y[i] {
				t.Fatalf("%v: Y[%d] = %v parallel vs %v serial", k, i, pr.Y[i], sr.Y[i])
			}
		}
		st, err := serial.Trace(k)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := parallel.Trace(k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range st {
			if st[i] != pt[i] {
				t.Fatalf("%v: trace[%d] diverges under parallel warmup", k, i)
			}
		}
	}
}

// TestPlanRunIntoZeroAllocs: the warm RunIntoContext path must not allocate —
// the Result and its Y buffer are caller-held and reused — both for the
// plan's stored operand, whose product is copied, and for another operand,
// which walks the plan's prebuilt arrays.
func TestPlanRunIntoZeroAllocs(t *testing.T) {
	cfg := Default()
	m := gen.Random(256, 0.05, 71)
	x := testVectorFor(m.Cols)
	other := append([]float64(nil), x...)
	other[0]++
	pl, err := NewPlan(cfg, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		x    []float64
	}{{"stored operand", x}, {"other operand", other}} {
		var r Result
		if err := pl.RunIntoContext(context.Background(), formats.CSR, c.x, &r); err != nil {
			t.Fatal(err) // warm the format cache, store x's product and size r.Y
		}
		want, fresh := append([]float64(nil), r.Y...), r.Y
		allocs := testing.AllocsPerRun(50, func() {
			if err := pl.RunIntoContext(context.Background(), formats.CSR, c.x, &r); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: warm RunIntoContext allocates %v allocs/op, want 0", c.name, allocs)
		}
		if &r.Y[0] != &fresh[0] {
			t.Fatalf("%s: warm RunIntoContext reallocated the output buffer", c.name)
		}
		for i := range want {
			if r.Y[i] != want[i] {
				t.Fatalf("%s: reused-buffer result diverges at %d", c.name, i)
			}
		}
	}
}

// TestPlanRunIntoGrowsBuffer: a short Y buffer is replaced, not indexed
// out of range.
func TestPlanRunIntoGrowsBuffer(t *testing.T) {
	m := gen.Random(64, 0.1, 81)
	pl, err := NewPlan(Default(), m, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := testVectorFor(m.Cols)
	r := Result{Y: make([]float64, 3)}
	if err := pl.RunIntoContext(context.Background(), formats.COO, x, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Y) != m.Rows {
		t.Fatalf("Y length %d, want %d", len(r.Y), m.Rows)
	}
	full, err := pl.RunContext(context.Background(), formats.COO, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Y {
		if r.Y[i] != full.Y[i] {
			t.Fatalf("grown-buffer result diverges at %d", i)
		}
	}
}

// TestPlanRunIntoRejectsAliasedInput: feeding the reused output buffer
// back in as the input would be silently zeroed before accumulation —
// RunIntoContext must reject the aliasing instead.
func TestPlanRunIntoRejectsAliasedInput(t *testing.T) {
	m := gen.Random(64, 0.1, 91) // square, so r.Y is a valid input length
	pl, err := NewPlan(Default(), m, 8)
	if err != nil {
		t.Fatal(err)
	}
	var r Result
	if err := pl.RunIntoContext(context.Background(), formats.CSR, testVectorFor(m.Cols), &r); err != nil {
		t.Fatal(err)
	}
	if err := pl.RunIntoContext(context.Background(), formats.CSR, r.Y, &r); err == nil {
		t.Fatal("aliased x == r.Y accepted; the input would have been zeroed")
	}
}

// TestPlanRunIntoRejectsOverlappingInput: offset overlaps (not just
// identical base pointers) must also be rejected.
func TestPlanRunIntoRejectsOverlappingInput(t *testing.T) {
	m := gen.Random(64, 0.1, 93)
	pl, err := NewPlan(Default(), m, 8)
	if err != nil {
		t.Fatal(err)
	}
	backing := make([]float64, m.Rows+8)
	r := Result{Y: backing[:m.Rows]}
	x := backing[4 : 4+m.Cols] // partially overlaps r.Y at an offset
	copy(x, testVectorFor(m.Cols))
	if err := pl.RunIntoContext(context.Background(), formats.CSR, x, &r); err == nil {
		t.Fatal("offset-overlapping x accepted; the input would have been partially zeroed")
	}
}
