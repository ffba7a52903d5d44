// Benchmarks regenerating every table and figure of the paper's
// evaluation section (one benchmark per artifact; see DESIGN.md's
// per-experiment index), plus ablation benches for the design choices the
// paper fixes (ELL width 6, BCSR 4×4 blocks, partition-level compression,
// dual AXI streamlines).
//
// Each figure bench reports a headline series value through
// b.ReportMetric so a bench run doubles as a regeneration of the paper's
// numbers; run `go test -bench=. -benchmem` and compare with
// EXPERIMENTS.md.
package copernicus_test

import (
	"context"
	"io"
	"runtime"
	"strconv"
	"testing"

	"copernicus"
	"copernicus/internal/core"
	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/hlsim"
	"copernicus/internal/matrix"
	"copernicus/internal/report"
)

// benchOptions returns a fresh reduced-scale harness so each iteration
// regenerates the artifact from scratch (no cross-iteration caching).
func benchOptions() *report.Options { return report.NewSmallOptions() }

// lastCell parses the numeric cell at (row from end, col from end).
func lastCell(b *testing.B, t report.Table, rowFromEnd, col int) float64 {
	b.Helper()
	row := t.Rows[len(t.Rows)-1-rowFromEnd]
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		b.Fatalf("cell %q: %v", row[col], err)
	}
	return v
}

func benchFigure(b *testing.B, id string, metric string, pick func(report.Table) float64) {
	b.Helper()
	var last report.Table
	for i := 0; i < b.N; i++ {
		t, err := report.Generate(benchOptions(), id)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	if err := last.Render(io.Discard); err != nil {
		b.Fatal(err)
	}
	if pick != nil {
		b.ReportMetric(pick(last), metric)
	}
}

// BenchmarkFig3PartitionStats regenerates the workload-statistics figure.
func BenchmarkFig3PartitionStats(b *testing.B) {
	benchFigure(b, "fig3", "workloads", func(t report.Table) float64 {
		return float64(len(t.Rows))
	})
}

// BenchmarkFig4SigmaSuiteSparse regenerates the SuiteSparse σ comparison;
// the reported metric is the CSC geomean (the paper's worst case).
func BenchmarkFig4SigmaSuiteSparse(b *testing.B) {
	benchFigure(b, "fig4", "geomean_sigma_csc", func(t report.Table) float64 {
		return lastCell(b, t, 0, 8) // GEOMEAN row, CSC column
	})
}

// BenchmarkFig5SigmaRandom regenerates σ vs density; reports CSC σ at
// density 0.5.
func BenchmarkFig5SigmaRandom(b *testing.B) {
	benchFigure(b, "fig5", "sigma_csc_d0.5", func(t report.Table) float64 {
		return lastCell(b, t, 0, 8)
	})
}

// BenchmarkFig6SigmaBand regenerates σ vs band width; reports CSC σ at
// width 64 (the paper's ~30× point).
func BenchmarkFig6SigmaBand(b *testing.B) {
	benchFigure(b, "fig6", "sigma_csc_w64", func(t report.Table) float64 {
		return lastCell(b, t, 0, 8)
	})
}

// BenchmarkFig7SigmaPartitionSize regenerates the partition-size study.
func BenchmarkFig7SigmaPartitionSize(b *testing.B) {
	benchFigure(b, "fig7", "rows", func(t report.Table) float64 {
		return float64(len(t.Rows))
	})
}

// BenchmarkFig8BalanceScatter regenerates the memory/compute scatter.
func BenchmarkFig8BalanceScatter(b *testing.B) {
	benchFigure(b, "fig8", "points", func(t report.Table) float64 {
		return float64(len(t.Rows))
	})
}

// BenchmarkFig9Throughput regenerates the throughput-vs-latency curves.
func BenchmarkFig9Throughput(b *testing.B) {
	benchFigure(b, "fig9", "points", func(t report.Table) float64 {
		return float64(len(t.Rows))
	})
}

// BenchmarkFig10BandwidthRandom regenerates utilization vs density;
// reports COO utilization at density 0.5 (the paper's constant 1/3).
func BenchmarkFig10BandwidthRandom(b *testing.B) {
	benchFigure(b, "fig10", "coo_util", func(t report.Table) float64 {
		return lastCell(b, t, 0, 4) // COO column
	})
}

// BenchmarkFig11BandwidthBand regenerates utilization vs band width;
// reports DIA utilization on the diagonal matrix (≈1 in the paper).
func BenchmarkFig11BandwidthBand(b *testing.B) {
	benchFigure(b, "fig11", "dia_util_w1", func(t report.Table) float64 {
		return lastCell(b, t, len(t.Rows)-1, 7) // first row, DIA column
	})
}

// BenchmarkFig12BandwidthPartition regenerates the partition-size
// bandwidth study.
func BenchmarkFig12BandwidthPartition(b *testing.B) {
	benchFigure(b, "fig12", "rows", func(t report.Table) float64 {
		return float64(len(t.Rows))
	})
}

// BenchmarkTable2Resources regenerates the resource/power table.
func BenchmarkTable2Resources(b *testing.B) {
	benchFigure(b, "table2", "rows", func(t report.Table) float64 {
		return float64(len(t.Rows))
	})
}

// BenchmarkFig13PowerBreakdown regenerates the power-breakdown figure.
func BenchmarkFig13PowerBreakdown(b *testing.B) {
	benchFigure(b, "fig13", "rows", func(t report.Table) float64 {
		return float64(len(t.Rows))
	})
}

// BenchmarkFig14Radar regenerates the normalized cross-metric summary.
func BenchmarkFig14Radar(b *testing.B) {
	benchFigure(b, "fig14", "rows", func(t report.Table) float64 {
		return float64(len(t.Rows))
	})
}

// Ablation benches for the design choices DESIGN.md calls out.

func randomTileB(p int, density float64, seed uint64) *matrix.Tile {
	m := gen.Random(p, density, seed)
	return matrix.TileAt(m, 0, 0, p)
}

// BenchmarkAblationELLWidth sweeps the ELL+COO rectangle cap around the
// paper's fixed width 6, reporting transferred bytes per width on a
// skewed tile (one long row): small caps spill more tuples, large caps
// pad more.
func BenchmarkAblationELLWidth(b *testing.B) {
	tile := matrix.NewTile(16, 0, 0)
	for j := 0; j < 16; j++ {
		tile.Set(3, j, 1) // one full row
	}
	for i := 0; i < 16; i += 3 {
		tile.Set(i, 0, 1)
	}
	for _, cap := range []int{2, 4, 6, 8, 12} {
		b.Run("w"+strconv.Itoa(cap), func(b *testing.B) {
			var bytes int
			for i := 0; i < b.N; i++ {
				bytes = formats.EncodeELLCOOCap(tile, cap).Footprint().TotalBytes()
			}
			b.ReportMetric(float64(bytes), "bytes")
		})
	}
}

// BenchmarkAblationBCSRBlock sweeps the BCSR block edge around the
// paper's fixed 4×4, reporting σ on a random 16×16 tile: small blocks
// pay more offset reads, large blocks transfer more explicit zeros.
func BenchmarkAblationBCSRBlock(b *testing.B) {
	cfg := hlsim.Default()
	tile := randomTileB(16, 0.15, 5)
	for _, blk := range []int{2, 4, 8} {
		b.Run("b"+strconv.Itoa(blk), func(b *testing.B) {
			var sigma float64
			for i := 0; i < b.N; i++ {
				var err error
				sigma, err = cfg.Sigma(formats.EncodeBCSRBlock(tile, blk))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sigma, "sigma")
		})
	}
}

// BenchmarkAblationWholeMatrix compares partition-level CSR compression
// (the paper's §4.1 practice) against compressing the whole matrix as one
// block, reporting transferred bytes: whole-matrix encoding pays offsets
// for every all-zero row and cannot skip all-zero regions.
func BenchmarkAblationWholeMatrix(b *testing.B) {
	m := gen.Random(256, 0.005, 9)
	b.Run("partitioned-p16", func(b *testing.B) {
		var bytes int
		for i := 0; i < b.N; i++ {
			bytes = 0
			for _, tl := range matrix.Partition(m, 16).Tiles {
				bytes += formats.Encode(formats.CSR, tl).Footprint().TotalBytes()
			}
		}
		b.ReportMetric(float64(bytes), "bytes")
	})
	b.Run("whole-matrix", func(b *testing.B) {
		var bytes int
		for i := 0; i < b.N; i++ {
			tile := matrix.TileAt(m, 0, 0, 256)
			bytes = formats.Encode(formats.CSR, tile).Footprint().TotalBytes()
		}
		b.ReportMetric(float64(bytes), "bytes")
	})
}

// BenchmarkAblationELLVariants compares plain ELL against the §2 variant
// formats on a skewed scale-free tile, reporting transferred bytes.
func BenchmarkAblationELLVariants(b *testing.B) {
	m := gen.PreferentialAttachment(16, 3, 11)
	tile := matrix.TileAt(m, 0, 0, 16)
	for _, k := range []formats.Kind{formats.ELL, formats.SELL, formats.ELLCOO, formats.JDS} {
		b.Run(k.String(), func(b *testing.B) {
			var bytes int
			for i := 0; i < b.N; i++ {
				bytes = formats.Encode(k, tile).Footprint().TotalBytes()
			}
			b.ReportMetric(float64(bytes), "bytes")
		})
	}
}

// BenchmarkAblationStreamlines compares the paper's dual parallel AXI
// streamlines against a single serialized lane, reporting mean memory
// cycles per tile for CSR on a random matrix.
func BenchmarkAblationStreamlines(b *testing.B) {
	m := gen.Random(256, 0.05, 13)
	x := make([]float64, 256)
	run := func(b *testing.B, cfg hlsim.Config) {
		var mem float64
		for i := 0; i < b.N; i++ {
			pl, err := hlsim.NewPlan(cfg, m, 16)
			if err != nil {
				b.Fatal(err)
			}
			res, err := pl.RunContext(context.Background(), formats.CSR, x)
			if err != nil {
				b.Fatal(err)
			}
			mem = res.MeanMemCycles()
		}
		b.ReportMetric(mem, "mem_cycles/tile")
	}
	b.Run("dual", func(b *testing.B) { run(b, hlsim.Default()) })
	b.Run("single", func(b *testing.B) {
		cfg := hlsim.Default()
		cfg.SingleStreamline = true
		run(b, cfg)
	})
}

// BenchmarkExt1AllFormatSigma regenerates the extension all-formats σ
// comparison.
func BenchmarkExt1AllFormatSigma(b *testing.B) {
	benchFigure(b, "ext1", "rows", func(t report.Table) float64 {
		return float64(len(t.Rows))
	})
}

// BenchmarkExt3ScalingLanes regenerates the coarse-grained aggregation
// study; the reported metric is the 16-lane efficiency of the last row.
func BenchmarkExt3ScalingLanes(b *testing.B) {
	benchFigure(b, "ext3", "eff_16lane", func(t report.Table) float64 {
		return lastCell(b, t, 0, 5)
	})
}

// BenchmarkScalingSpeedup measures SpMVParallel directly across lane
// counts on one matrix.
func BenchmarkScalingSpeedup(b *testing.B) {
	m := copernicus.Random(512, 0.02, 23)
	x := make([]float64, m.Cols)
	for _, lanes := range []int{1, 4, 16} {
		b.Run("lanes"+strconv.Itoa(lanes), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				r, err := copernicus.SpMVParallel(m, x, copernicus.COO, 16, lanes)
				if err != nil {
					b.Fatal(err)
				}
				cycles = r.TotalCycles
			}
			b.ReportMetric(float64(cycles), "modelled_cycles")
		})
	}
}

// BenchmarkSpMVFormats measures the end-to-end modelled SpMV throughput
// of the public API per format (the library's hot path).
func BenchmarkSpMVFormats(b *testing.B) {
	m := copernicus.Random(256, 0.02, 17)
	x := make([]float64, 256)
	for i := range x {
		x[i] = 1
	}
	for _, f := range copernicus.CoreFormats() {
		b.Run(f.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := copernicus.SpMV(m, x, f, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// spmvOnly is the single-SpMV kernel axis of the paper's study.
var spmvOnly = []copernicus.KernelSpec{copernicus.DefaultKernel()}

// BenchmarkSweepSmall measures a full Engine.SweepKernelsWith over the reduced
// SuiteSparse suite across the core formats and all three partition
// sizes — the engine hot path the streaming-plan cache accelerates. The
// engine is long-lived (as in report.Options), so plan reuse across
// iterations reflects steady-state sweep cost.
func BenchmarkSweepSmall(b *testing.B) {
	e := copernicus.NewEngine()
	ws := copernicus.SuiteSparseWorkloads(copernicus.WorkloadConfig{Scale: 256, RandomDim: 256, BandDim: 256})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := e.SweepKernelsWith(context.Background(), nil, ws, spmvOnly, copernicus.CoreFormats(), copernicus.PartitionSizes())
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) != len(ws)*len(copernicus.CoreFormats())*3 {
			b.Fatalf("sweep produced %d results", len(rs))
		}
	}
}

// BenchmarkCGAccelerator measures an iterative solve through the
// modelled accelerator: 60 CG iterations whose inner loop is the
// accelerator SpMV backend. Pre-plan, every iteration re-partitioned and
// re-encoded the matrix; with the streaming plan only the per-iteration
// dot work remains.
func BenchmarkCGAccelerator(b *testing.B) {
	m := copernicus.Stencil2D(16, 16, 3)
	rhs := make([]float64, m.Rows)
	for i := range rhs {
		rhs[i] = 1
	}
	for i := 0; i < b.N; i++ {
		mul, _, err := copernicus.AcceleratorBackend(m, copernicus.CSR, 16)
		if err != nil {
			b.Fatal(err)
		}
		_, st, err := copernicus.SolveCG(mul, rhs, 0, 60)
		if err != nil {
			b.Fatal(err)
		}
		if st.Iterations < 50 {
			b.Fatalf("CG stopped after %d iterations", st.Iterations)
		}
	}
}

// BenchmarkPlanReuseSpMV contrasts the one-shot SpMV path (which
// partitions, encodes, and cross-checks per call) against repeated Run
// calls on a shared StreamPlan (which pay only the dot work: the plan is
// warmed with another operand, so its stored product does not match x).
func BenchmarkPlanReuseSpMV(b *testing.B) {
	m := copernicus.Random(256, 0.02, 17)
	x := make([]float64, 256)
	for i := range x {
		x[i] = 1
	}
	b.Run("one-shot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := copernicus.SpMV(m, x, copernicus.CSR, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plan", func(b *testing.B) {
		pl, err := copernicus.NewStreamPlan(m, 16)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pl.RunContext(context.Background(), copernicus.CSR, make([]float64, len(x))); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pl.RunContext(context.Background(), copernicus.CSR, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSweepWorkers measures the worker-pool sweep at several pool
// sizes over the random+band suites (fresh engine per iteration, so the
// pool — not the plan cache — is what varies).
func BenchmarkSweepWorkers(b *testing.B) {
	c := copernicus.WorkloadConfig{Scale: 256, RandomDim: 256, BandDim: 256}
	ws := append(copernicus.RandomWorkloads(c), copernicus.BandWorkloads(c)...)
	for _, workers := range []int{1, 2, 4} {
		b.Run("w"+strconv.Itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := copernicus.NewEngine()
				e.SetWorkers(workers)
				if _, err := e.SweepKernelsWith(context.Background(), nil, ws, spmvOnly, copernicus.CoreFormats(), copernicus.PartitionSizes()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdvisor measures the empirical format advisor.
func BenchmarkAdvisor(b *testing.B) {
	m := copernicus.ScaleFreeGraph(256, 4, 19)
	e := copernicus.NewEngine()
	for i := 0; i < b.N; i++ {
		if _, err := e.Recommend(m, 16, nil, core.BalancedObjective()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeomeanSigma reports the geometric-mean σ of every sparse
// format over the reduced SuiteSparse suite — the single-number summary
// of Fig. 4.
func BenchmarkGeomeanSigma(b *testing.B) {
	o := benchOptions()
	var t report.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = report.Generate(o, "fig4")
		if err != nil {
			b.Fatal(err)
		}
	}
	// Columns: workload, DENSE, CSR, BCSR, COO, LIL, ELL, DIA, CSC.
	for c := 2; c < len(t.Header); c++ {
		v, perr := strconv.ParseFloat(t.Rows[len(t.Rows)-1][c], 64)
		if perr != nil {
			b.Fatal(perr)
		}
		b.ReportMetric(v, "gm_"+t.Header[c])
	}
}

// BenchmarkLargeSparseColdPlan measures the cold partition→encode path on
// a large, very sparse matrix across partition sizes — the regime where
// the sparse-native tiles pay off: cost scales with nnz, not with
// tiles·p². Each iteration builds a fresh plan and warms one format.
func BenchmarkLargeSparseColdPlan(b *testing.B) {
	m := copernicus.Random(4096, 0.001, 77)
	x := make([]float64, m.Cols)
	for _, p := range []int{64, 128, 256} {
		b.Run("p"+strconv.Itoa(p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pl, err := copernicus.NewStreamPlan(m, p)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := pl.RunContext(context.Background(), copernicus.CSR, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanWarmRunInto measures the steady-state SpMV on a warm plan
// through the allocation-free RunIntoContext path (0 allocs/op by design; the
// assertion lives in internal/hlsim's AllocsPerRun test). The plan is warmed
// with another operand, so the timed x walks the row list instead of
// matching the plan's stored product.
func BenchmarkPlanWarmRunInto(b *testing.B) {
	m := copernicus.Random(1024, 0.01, 31)
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1
	}
	pl, err := copernicus.NewStreamPlan(m, 16)
	if err != nil {
		b.Fatal(err)
	}
	var r copernicus.StreamResult
	if err := pl.RunIntoContext(context.Background(), copernicus.CSR, make([]float64, len(x)), &r); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pl.RunIntoContext(context.Background(), copernicus.CSR, x, &r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExec measures the steady-state tile-parallel executable-kernel
// SpMV on a warm plan — each of the 12 sparse formats traversing its own
// encoded layout — at one thread and at full machine width (identical on
// one-core hosts). The single-tile kernels alone are timed by
// internal/formats' BenchmarkKernel.
// 0 allocs/op warm by design; the assertion lives in internal/hlsim's
// TestRunExecWarmZeroAllocs.
func BenchmarkExec(b *testing.B) {
	m := copernicus.Random(1024, 0.01, 31)
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1
	}
	pl, err := copernicus.NewStreamPlan(m, 16)
	if err != nil {
		b.Fatal(err)
	}
	threadCounts := []int{1}
	if maxT := runtime.GOMAXPROCS(0); maxT > 1 {
		threadCounts = append(threadCounts, maxT)
	}
	for _, k := range copernicus.AllFormats() {
		if k == copernicus.Dense {
			continue
		}
		for _, tc := range threadCounts {
			b.Run(k.String()+"/t"+strconv.Itoa(tc), func(b *testing.B) {
				var r copernicus.StreamResult
				if err := pl.RunExecIntoContext(context.Background(), k, x, &r, tc); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := pl.RunExecIntoContext(context.Background(), k, x, &r, tc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
