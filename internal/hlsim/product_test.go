package hlsim

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/matrix"
)

// runY returns the modelled product of x on pl in format k.
func runY(t *testing.T, pl *Plan, k formats.Kind, x []float64) []float64 {
	t.Helper()
	r, err := pl.RunContext(context.Background(), k, x)
	if err != nil {
		t.Fatal(err)
	}
	return r.Y
}

// freshY is the product of x on a new plan of m, which has stored no
// product before this call, so it walks the rows.
func freshY(t *testing.T, m *matrix.CSR, x []float64) []float64 {
	t.Helper()
	pl := mustPlan(t, m, 16)
	return runY(t, pl, formats.CSR, x)
}

// sameFloatBits fails unless got and want hold the same bits.
func sameFloatBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: y[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// poison overwrites the plan's stored product, so a later modelled run
// that copies it instead of walking the rows is visible.
func poison(t *testing.T, pl *Plan) {
	t.Helper()
	pr := pl.prod.Load()
	if pr == nil {
		t.Fatal("the plan stored no product")
	}
	for i := range pr.y {
		pr.y[i] = 42
	}
}

// TestStoredProductNeedsEqualBits: an operand that differs from the
// stored one only in its bits (-0 for +0, another NaN payload, one ULP)
// walks the rows afresh. With the stored product poisoned, each such
// operand must still give exactly the product of a plan that never
// stored one, under the modelled run and RunParallel alike.
func TestStoredProductNeedsEqualBits(t *testing.T) {
	m := gen.Random(96, 0.08, 17)
	col := m.Col[0] // a column that holds an entry, in the first non-empty row
	row := 0
	for m.RowPtr[row+1] == 0 {
		row++
	}
	set := func(v float64) func(x []float64) { return func(x []float64) { x[col] = v } }
	cases := []struct {
		name           string
		stored, differ func(x []float64)
	}{
		{"negative zero", set(0), set(math.Copysign(0, -1))},
		{"nan payload", set(math.Float64frombits(0x7ff8000000000001)), set(math.Float64frombits(0x7ff8000000000002))},
		{"one ulp", set(0.5), set(math.Nextafter(0.5, 1))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x := testVectorFor(m.Cols)
			c.stored(x)
			pl := mustPlan(t, m, 16)
			runY(t, pl, formats.CSR, x)
			poison(t, pl)
			if y := runY(t, pl, formats.COO, x); y[row] != 42 {
				t.Fatal("the stored operand did not match itself")
			}
			v := append([]float64(nil), x...)
			c.differ(v)
			want := freshY(t, m, v)
			sameFloatBits(t, "RunContext", runY(t, pl, formats.COO, v), want)
			par, err := pl.RunParallel(formats.ELL, v, 3)
			if err != nil {
				t.Fatal(err)
			}
			sameFloatBits(t, "RunParallel", par.Y, want)
		})
	}
}

// TestStoredProductCopiesOperand: the plan keeps its own copy of the
// first operand, so editing the caller's x afterwards gives the edited
// product, and the original bits still get the original product.
func TestStoredProductCopiesOperand(t *testing.T) {
	m := gen.Random(80, 0.1, 23)
	x := testVectorFor(m.Cols)
	orig := append([]float64(nil), x...)
	pl := mustPlan(t, m, 16)
	want := runY(t, pl, formats.CSR, x)
	for i := range x {
		x[i] *= -3
	}
	sameFloatBits(t, "edited x", runY(t, pl, formats.CSR, x), freshY(t, m, x))
	sameFloatBits(t, "original bits", runY(t, pl, formats.BCSR, orig), want)
}

// TestStoredProductConcurrent: callers alternating two operands on one
// plan from many goroutines, first multiplication included, each get
// their operand's product. Run it under -race.
func TestStoredProductConcurrent(t *testing.T) {
	m := gen.Random(128, 0.05, 29)
	xs := [2][]float64{testVectorFor(m.Cols), make([]float64, m.Cols)}
	for i := range xs[1] {
		xs[1][i] = float64(i%7) - 3
	}
	wants := [2][]float64{freshY(t, m, xs[0]), freshY(t, m, xs[1])}
	pl := mustPlan(t, m, 16)
	const goroutines, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r Result
			for i := 0; i < rounds; i++ {
				o := (g + i) % 2
				k := formats.Core()[(g+i)%len(formats.Core())]
				if err := pl.RunIntoContext(context.Background(), k, xs[o], &r); err != nil {
					errs <- err.Error()
					return
				}
				for j := range r.Y {
					if math.Float64bits(r.Y[j]) != math.Float64bits(wants[o][j]) {
						errs <- "a concurrent caller got the other operand's product"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestStoredProductMemoryBytes: MemoryBytes grows by exactly the stored
// operand and product, and the live heap grows by about as much.
func TestStoredProductMemoryBytes(t *testing.T) {
	const n = 1 << 15
	m := gen.Random(n, 0.0005, 31)
	pl := mustPlan(t, m, 256)
	// Build the rows and warm the format without storing a product.
	if _, err := pl.RunSpMM(formats.CSR, make([]float64, m.Cols), 1); err != nil {
		t.Fatal(err)
	}
	if pl.prod.Load() != nil {
		t.Fatal("RunSpMM stored a product")
	}
	x := testVectorFor(m.Cols)
	r := Result{Y: make([]float64, m.Rows)}
	before := pl.MemoryBytes()
	heapBefore := liveHeap()
	if err := pl.RunIntoContext(context.Background(), formats.CSR, x, &r); err != nil {
		t.Fatal(err)
	}
	heapAfter := liveHeap()
	grew := pl.MemoryBytes() - before
	if want := int64(m.Cols+m.Rows) * 8; grew != want {
		t.Fatalf("MemoryBytes grew by %d B, want the operand and product's %d B", grew, want)
	}
	heap := int64(heapAfter) - int64(heapBefore)
	if heap < grew*9/10 || heap > grew*11/10+64<<10 {
		t.Fatalf("live heap grew by %d B, MemoryBytes by %d B", heap, grew)
	}
	runtime.KeepAlive(pl)
	runtime.KeepAlive(r.Y)
	runtime.KeepAlive(x)
}

// liveHeap returns the bytes of live heap objects. It collects twice, so
// sync.Pool caches (the warmup slabs) are empty on both sides of a
// measurement.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestExecPathIgnoresStoredProduct: with the stored product poisoned,
// the modelled run returns the poison, while RunExecIntoContext and
// RunKernelInto still multiply through the format's own encodings.
func TestExecPathIgnoresStoredProduct(t *testing.T) {
	m := gen.Random(100, 0.06, 37)
	x := testVectorFor(m.Cols)
	ref := m.MulVec(x)
	pl := mustPlan(t, m, 16)
	runY(t, pl, formats.CSR, x)
	poison(t, pl)
	for _, y := range runY(t, pl, formats.CSR, x) {
		if y != 42 {
			t.Fatal("the modelled run walked the rows for the stored operand")
		}
	}
	for _, k := range formats.Core() {
		var r Result
		if err := pl.RunExecIntoContext(context.Background(), k, x, &r, 2); err != nil {
			t.Fatal(err)
		}
		checkClose(t, k, "RunExecIntoContext", r.Y, ref)
		if err := pl.RunKernelInto(context.Background(), k, x, &r, 1, 2); err != nil {
			t.Fatal(err)
		}
		checkClose(t, k, "RunKernelInto", r.Y, ref)
	}
}

func checkClose(t *testing.T, k formats.Kind, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("%v %s: y[%d] = %v, want %v", k, what, i, got[i], want[i])
		}
	}
}
