package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"copernicus/internal/backend"
	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/hlsim"
	"copernicus/internal/matrix"
	"copernicus/internal/scenario"
	"copernicus/internal/synth"
	"copernicus/internal/workloads"
)

// preBackendResult recomputes one characterization point exactly the way
// the engine did before the Backend seam existed: a streaming plan, one
// Plan.RunContext, and the Result assembled field by field from the run's
// methods. It is the frozen reference the golden test below holds the
// analytic backend to.
func preBackendResult(t *testing.T, cfg hlsim.Config, name string, m *matrix.CSR, k formats.Kind, p int) Result {
	t.Helper()
	pl, err := hlsim.NewPlan(cfg, m, p)
	if err != nil {
		t.Fatal(err)
	}
	x := testVector(m.Cols)
	ref := m.MulVec(x)
	run, err := pl.RunContext(context.Background(), k, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Abs(run.Y[i]-ref[i]) > 1e-9 {
			t.Fatalf("reference path mismatch at row %d", i)
		}
	}
	rep := synth.Estimate(k, p)
	r := Result{
		Workload:          name,
		Format:            k,
		P:                 p,
		DynamicEnergyJ:    rep.DynamicW * run.Seconds(),
		StaticEnergyJ:     rep.StaticW * run.Seconds(),
		Sigma:             run.Sigma(),
		BalanceRatio:      run.BalanceRatio(),
		MeanMemCycles:     run.MeanMemCycles(),
		MeanComputeCycles: run.MeanComputeCycles(),
		Seconds:           run.Seconds(),
		ThroughputBps:     run.Throughput(),
		BandwidthUtil:     run.BandwidthUtilization(),
		DotEngineUtil:     run.DotEngineUtilization(),
		InnerPipelineUtil: run.InnerPipelineUtilization(),
		NonZeroTiles:      run.NonZeroTiles,
		TotalTiles:        run.TotalTiles,
		TotalBytes:        run.Footprint.TotalBytes(),
		Synth:             rep,
	}
	// The fields the seam added, with their documented analytic values.
	r.Backend = "analytic"
	if run.NNZ > 0 {
		r.NsPerNNZ = run.Seconds() * 1e9 / float64(run.NNZ)
	}
	// The fields the kernel axis added, with their documented values for
	// the implicit pre-kernel-axis kernel: one SpMV.
	r.Kernel = "spmv"
	r.Iterations = 1
	return r
}

// TestAnalyticBackendBitIdentical is the refactor's golden guard: every
// Result the engine produces through backend.Analytic — via Characterize
// (the analytic default) and a one-point SweepKernelsWith (the backend
// passed explicitly) — must equal the pre-backend computation bit for bit
// (reflect.DeepEqual over float64 fields, no tolerance). Regenerated
// sweep/advise/trace artifacts derive from these Results, so equality here
// is what keeps them byte-identical.
func TestAnalyticBackendBitIdentical(t *testing.T) {
	mats := map[string]*matrix.CSR{
		"random":  gen.Random(192, 0.03, 5),
		"band":    gen.Band(192, 8, 6),
		"stencil": gen.Stencil2D(13, 13, 7),
	}
	e := New()
	for name, m := range mats {
		for _, p := range []int{8, 16} {
			for _, k := range formats.Core() {
				want := preBackendResult(t, e.Config(), name, m, k, p)
				got, err := e.Characterize(name, m, k, p)
				if err != nil {
					t.Fatalf("%s/%v/p=%d: %v", name, k, p, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%v/p=%d: Characterize diverged from pre-backend path:\ngot  %+v\nwant %+v",
						name, k, p, got, want)
				}
			}
			rs, err := sweepPoint(e, backend.Analytic{}, name, m, scenario.Default(), p, formats.Core())
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range formats.Core() {
				if want := preBackendResult(t, e.Config(), name, m, k, p); !reflect.DeepEqual(rs[i], want) {
					t.Fatalf("%s/%v/p=%d: SweepKernelsWith(Analytic) diverged from pre-backend path", name, k, p)
				}
			}
		}
	}
}

// TestNativeBackendEndToEnd: a native sweep returns measured results that
// share the analytic structural metrics (same plans, same formats) while
// costing in wall time.
func TestNativeBackendEndToEnd(t *testing.T) {
	e := New()
	ws := []workloads.Workload{{ID: "rnd", M: gen.Random(128, 0.05, 9)}}
	kinds := []formats.Kind{formats.CSR, formats.COO}
	ana, err := e.SweepKernelsWith(context.Background(), nil, ws, spmvOnly, kinds, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	nat, err := e.SweepKernelsWith(context.Background(), &backend.Native{Runs: 2}, ws, spmvOnly, kinds, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	if len(nat) != len(ana) {
		t.Fatalf("native sweep returned %d results, analytic %d", len(nat), len(ana))
	}
	for i := range nat {
		n, a := nat[i], ana[i]
		if n.Backend != "native" || !n.Measured || n.MeasuredRuns != 2 || n.Threads < 1 {
			t.Fatalf("native result %d methodology: %+v", i, n)
		}
		if n.Seconds <= 0 || n.NsPerNNZ <= 0 {
			t.Fatalf("native result %d not measured: seconds=%v ns/nnz=%v", i, n.Seconds, n.NsPerNNZ)
		}
		// Structural metrics come from the shared analytic cycle tables.
		if n.Sigma != a.Sigma || n.BalanceRatio != a.BalanceRatio || n.TotalBytes != a.TotalBytes {
			t.Fatalf("native result %d structural metrics diverge from analytic", i)
		}
		// Cost-derived metrics must use the measured seconds.
		if n.DynamicEnergyJ != a.Synth.DynamicW*n.Seconds {
			t.Fatalf("native result %d energy not integrated over measured seconds", i)
		}
	}
	if a, b := ana[0].Backend, "analytic"; a != b {
		t.Fatalf("analytic sweep results tagged %q", a)
	}
}

// TestCharacterizeUnknownKindIsError: the unknown-format panic became an
// error plumbed through Characterize (and thus Sweep).
func TestCharacterizeUnknownKindIsError(t *testing.T) {
	e := New()
	m := gen.Random(64, 0.05, 3)
	if _, err := e.Characterize("m", m, formats.Kind(99), 8); !errors.Is(err, hlsim.ErrUnknownFormat) {
		t.Fatalf("Characterize(Kind(99)) error = %v, want hlsim.ErrUnknownFormat", err)
	}
	ws := []workloads.Workload{{ID: "m", M: m}}
	if _, err := e.SweepKernelsWith(context.Background(), nil, ws, spmvOnly, []formats.Kind{formats.Kind(-2)}, []int{8}); !errors.Is(err, hlsim.ErrUnknownFormat) {
		t.Fatalf("Sweep(Kind(-2)) error = %v, want hlsim.ErrUnknownFormat", err)
	}
}
