package hlsim

import (
	"context"
	"math"
	"testing"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/xrand"
)

func testVectorFor(n int) []float64 {
	r := xrand.New(77)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.ValueIn(-1, 1)
	}
	return x
}

func TestRunParallelFunctional(t *testing.T) {
	m := gen.Random(200, 0.05, 3)
	x := testVectorFor(m.Cols)
	want := m.MulVec(x)
	pl := mustPlan(t, m, 16)
	for _, lanes := range []int{1, 2, 4, 7} {
		res, err := pl.RunParallel(formats.COO, x, lanes)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(res.Y[i]-want[i]) > 1e-9 {
				t.Fatalf("lanes=%d: y[%d] = %v, want %v", lanes, i, res.Y[i], want[i])
			}
		}
	}
}

func TestRunParallelOneLaneMatchesRun(t *testing.T) {
	m := gen.Random(128, 0.04, 5)
	x := testVectorFor(m.Cols)
	pl := mustPlan(t, m, 16)
	seq, err := pl.RunContext(context.Background(), formats.CSR, x)
	if err != nil {
		t.Fatal(err)
	}
	par, err := pl.RunParallel(formats.CSR, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if par.TotalCycles != seq.PipelinedCycles {
		t.Fatalf("1-lane parallel %d cycles vs sequential %d", par.TotalCycles, seq.PipelinedCycles)
	}
}

func TestRunParallelSpeedup(t *testing.T) {
	m := gen.Random(256, 0.05, 7)
	x := testVectorFor(m.Cols)
	prev := uint64(math.MaxUint64)
	pl := mustPlan(t, m, 16)
	for _, lanes := range []int{1, 2, 4, 8} {
		res, err := pl.RunParallel(formats.CSR, x, lanes)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalCycles > prev {
			t.Fatalf("lanes=%d slower than fewer lanes: %d > %d", lanes, res.TotalCycles, prev)
		}
		prev = res.TotalCycles
	}
	// 8 lanes over hundreds of tiles should give near-linear speedup.
	one, _ := pl.RunParallel(formats.CSR, x, 1)
	eight, _ := pl.RunParallel(formats.CSR, x, 8)
	speedup := float64(one.TotalCycles) / float64(eight.TotalCycles)
	if speedup < 6 {
		t.Fatalf("8-lane speedup %.2f, want ≥6 on a well-populated matrix", speedup)
	}
}

func TestRunParallelEfficiencyBounds(t *testing.T) {
	m := gen.Band(128, 8, 9)
	x := testVectorFor(m.Cols)
	pl := mustPlan(t, m, 16)
	for _, lanes := range []int{1, 3, 5} {
		res, err := pl.RunParallel(formats.DIA, x, lanes)
		if err != nil {
			t.Fatal(err)
		}
		e := res.Efficiency()
		if e <= 0 || e > 1+1e-12 {
			t.Fatalf("lanes=%d: efficiency %v out of (0,1]", lanes, e)
		}
	}
}

func TestRunParallelRejectsBadInput(t *testing.T) {
	m := gen.Random(32, 0.1, 1)
	x := testVectorFor(m.Cols)
	pl := mustPlan(t, m, 8)
	if _, err := pl.RunParallel(formats.CSR, x, 0); err == nil {
		t.Fatal("0 lanes accepted")
	}
	if _, err := pl.RunParallel(formats.CSR, x[:10], 2); err == nil {
		t.Fatal("short vector accepted")
	}
}

func TestRunParallelDeterministic(t *testing.T) {
	m := gen.Random(128, 0.05, 19)
	x := testVectorFor(m.Cols)
	a, err := mustPlan(t, m, 16).RunParallel(formats.LIL, x, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mustPlan(t, m, 16).RunParallel(formats.LIL, x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCycles != b.TotalCycles {
		t.Fatal("parallel run not deterministic")
	}
	for i := range a.LaneCycles {
		if a.LaneCycles[i] != b.LaneCycles[i] {
			t.Fatal("lane assignment not deterministic")
		}
	}
}

func TestBubbleAccounting(t *testing.T) {
	m := gen.Random(128, 0.05, 11)
	x := testVectorFor(m.Cols)
	res := mustRun(t, m, formats.CSC, 16, x)
	// CSC is severely compute-bound: the stream must stall, compute
	// almost never idles.
	if res.StallMemCycles == 0 {
		t.Fatal("CSC run reports no memory stalls")
	}
	if res.StallMemCycles <= res.IdleComputeCycles {
		t.Fatalf("CSC stall cycles %d not above idle cycles %d",
			res.StallMemCycles, res.IdleComputeCycles)
	}
	// Dense at p=32 is memory-bound: compute idles.
	dense := mustRun(t, m, formats.Dense, 32, x)
	if dense.IdleComputeCycles == 0 {
		t.Fatal("dense p=32 run reports no compute idle")
	}
	// Identity: idle + stall ≤ pipelined (each tile contributes one side).
	if res.IdleComputeCycles+res.StallMemCycles > res.PipelinedCycles {
		t.Fatal("bubble cycles exceed pipelined total")
	}
}
