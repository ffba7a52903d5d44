package core

import (
	"context"
	"testing"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/scenario"
	"copernicus/internal/workloads"
)

func kernelTestWorkloads() []workloads.Workload {
	return []workloads.Workload{
		{ID: "wa", Name: "wa", Kind: "test", M: gen.Random(48, 0.1, 101)},
		{ID: "wb", Name: "wb", Kind: "test", M: gen.Random(48, 0.08, 103)},
	}
}

// TestSweepKernelsDefaultSpecMatchesSweepWith: a kernel sweep over the
// single default spec is the paper's single-SpMV study — identical
// results in identical order to characterizing each (workload, p) point
// on its own, with the kernel columns filled in as one spmv iteration.
func TestSweepKernelsDefaultSpecMatchesSweepWith(t *testing.T) {
	ws := kernelTestWorkloads()
	kinds := []formats.Kind{formats.CSR, formats.ELL, formats.CSC}
	ps := []int{8, 16}
	ctx := context.Background()

	var old []Result
	for _, w := range ws {
		for _, p := range ps {
			rs, err := sweepPoint(New(), nil, w.ID, w.M, scenario.Default(), p, kinds)
			if err != nil {
				t.Fatal(err)
			}
			old = append(old, rs...)
		}
	}
	kern, err := New().SweepKernelsWith(ctx, nil, ws, []scenario.Spec{scenario.Default()}, kinds, ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(kern) != len(old) {
		t.Fatalf("kernel sweep returned %d results, per-point %d", len(kern), len(old))
	}
	for i := range old {
		if kern[i] != old[i] {
			t.Fatalf("result %d diverges:\n sweep:     %+v\n per-point: %+v", i, kern[i], old[i])
		}
		if kern[i].Kernel != "spmv" || kern[i].Iterations != 1 {
			t.Fatalf("result %d kernel columns = (%q, %d), want (spmv, 1)", i, kern[i].Kernel, kern[i].Iterations)
		}
	}
}

// TestSweepKernelsOrderingKernelMajor: with multiple specs the grid is
// workload-major, then kernel, then partition — each workload's specs
// appear as contiguous runs, each holding its full (format, p) block. The
// deterministic order is what NDJSON consumers and the report tables key
// on.
func TestSweepKernelsOrderingKernelMajor(t *testing.T) {
	ws := kernelTestWorkloads()
	specs := []scenario.Spec{scenario.Default(), scenario.MustParse("cg:60")}
	kinds := []formats.Kind{formats.CSR, formats.ELL}
	ps := []int{8, 16}

	rs, err := New().SweepKernelsWith(context.Background(), nil, ws, specs, kinds, ps)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ws) * len(specs) * len(kinds) * len(ps); len(rs) != want {
		t.Fatalf("sweep returned %d results, want %d", len(rs), want)
	}
	i := 0
	for _, w := range ws {
		for _, sc := range specs {
			for _, p := range ps {
				for range kinds {
					r := rs[i]
					if r.Workload != w.Name || r.Kernel != sc.String() || r.P != p {
						t.Fatalf("result %d = (%s, %s, p=%d), want (%s, %s, p=%d)",
							i, r.Workload, r.Kernel, r.P, w.Name, sc, p)
					}
					i++
				}
			}
		}
	}
}

// TestSweepKernelsAmortizationOrdersSeconds: for every (workload, format,
// p) point the cg:60 row costs more than the spmv row, but less than 60×
// it — the amortization the kernel axis exists to express.
func TestSweepKernelsAmortizationOrdersSeconds(t *testing.T) {
	ws := kernelTestWorkloads()[:1]
	specs := []scenario.Spec{scenario.Default(), scenario.MustParse("cg:60")}
	kinds := formats.Sparse()

	rs, err := New().SweepKernelsWith(context.Background(), nil, ws, specs, kinds, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	half := len(rs) / 2
	for i := 0; i < half; i++ {
		spmv, cg := rs[i], rs[half+i]
		if spmv.Format != cg.Format {
			t.Fatalf("row %d pairs %v with %v", i, spmv.Format, cg.Format)
		}
		if cg.Iterations != 60 {
			t.Fatalf("%v: cg row has %d iterations", cg.Format, cg.Iterations)
		}
		if cg.Seconds <= spmv.Seconds {
			t.Fatalf("%v: cg:60 %v s not above spmv %v s", cg.Format, cg.Seconds, spmv.Seconds)
		}
		if cg.Seconds > 60*spmv.Seconds {
			t.Fatalf("%v: cg:60 %v s above 60 x spmv %v s (no amortization)", cg.Format, cg.Seconds, spmv.Seconds)
		}
	}
}

// TestRecommendKernelCanFlip: the recommendation for an iterative kernel
// is computed from the amortized costs — it must rank by cg:60 seconds,
// not reuse the spmv ordering. (Whether the winner actually changes is
// matrix-dependent; what's pinned is that the scored results are the
// kernel's own.)
func TestRecommendKernelCanFlip(t *testing.T) {
	m := gen.Random(64, 0.08, 107)
	sc := scenario.MustParse("cg:60")
	e := New()
	rs, err := sweepPoint(e, nil, "adhoc", m, sc, 16, formats.Sparse())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Rank(rs, LatencyObjective())
	if err != nil {
		t.Fatal(err)
	}
	best := rs[0]
	for _, r := range rs[1:] {
		if r.Seconds < best.Seconds {
			best = r
		}
	}
	if rec.Format != best.Format {
		t.Fatalf("Rank picked %v, cheapest cg:60 format is %v", rec.Format, best.Format)
	}
	for _, r := range rec.Results {
		if r.Kernel != "cg:60" || r.Iterations != 60 {
			t.Fatalf("recommendation result kernel columns = (%q, %d)", r.Kernel, r.Iterations)
		}
	}
}
