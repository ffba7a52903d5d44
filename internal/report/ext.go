package report

import (
	"context"
	"fmt"
	"runtime"

	"copernicus/internal/backend"
	"copernicus/internal/core"
	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/hlsim"
	"copernicus/internal/matrix"
	"copernicus/internal/metrics"
	"copernicus/internal/scenario"
	"copernicus/internal/workloads"
)

// Extension artifacts: experiments beyond the paper's figures, covering
// the §2 variant formats and the §5.1 coarse-grained aggregation the
// paper describes but does not measure. They share the harness and CLI
// but live under ext* ids so the paper index stays exact.

// ExtOrder lists the extension experiments.
var ExtOrder = []string{"ext1", "ext2", "ext3", "ext4", "ext5", "ext6", "ext7", "ext8", "ext9"}

func init() {
	Generators["ext1"] = ext1
	Generators["ext2"] = ext2
	Generators["ext3"] = ext3
	Generators["ext4"] = ext4
	Generators["ext5"] = ext5
	Generators["ext6"] = ext6
	Generators["ext7"] = ext7
	Generators["ext8"] = ext8
	Generators["ext9"] = ext9
}

// ext1 compares σ across all implemented formats — the paper's seven
// plus DOK and the ELL-variant extensions — on the three suites at
// 16×16 partitions.
func ext1(o *Options) (Table, error) {
	t := Table{
		ID:     "ext1",
		Title:  "Extension: sigma across all implemented formats, partition 16x16",
		Header: []string{"suite"},
	}
	for _, k := range formats.All() {
		t.Header = append(t.Header, k.String())
	}
	for _, suite := range SuiteNames {
		rs, err := o.Engine.SweepKernelsWith(context.Background(), nil, o.suite(suite), []scenario.Spec{scenario.Default()}, formats.All(), []int{16})
		if err != nil {
			return Table{}, err
		}
		byF := byFormat(rs)
		row := []string{suite}
		for _, k := range formats.All() {
			var vals []float64
			for _, r := range byF[k] {
				vals = append(vals, r.Sigma)
			}
			row = append(row, f2(metrics.Mean(vals)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"DOK scans its hash table like COO scans tuples; SELL/ELL+COO/JDS/SELL-C-sigma trade ELL padding for metadata")
	return t, nil
}

// ext2 compares bandwidth utilization across all implemented formats on
// the three suites at 16×16 partitions.
func ext2(o *Options) (Table, error) {
	t := Table{
		ID:     "ext2",
		Title:  "Extension: bandwidth utilization across all implemented formats, partition 16x16",
		Header: []string{"suite"},
	}
	for _, k := range formats.All() {
		t.Header = append(t.Header, k.String())
	}
	for _, suite := range SuiteNames {
		rs, err := o.Engine.SweepKernelsWith(context.Background(), nil, o.suite(suite), []scenario.Spec{scenario.Default()}, formats.All(), []int{16})
		if err != nil {
			return Table{}, err
		}
		byF := byFormat(rs)
		row := []string{suite}
		for _, k := range formats.All() {
			var vals []float64
			for _, r := range byF[k] {
				vals = append(vals, r.BandwidthUtil)
			}
			row = append(row, f4(metrics.Mean(vals)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// ext4 tests the paper's first §8 insight directly: "memory bandwidth
// is not always the bottleneck; the performance of sparse problems
// cannot always be improved by simply adding more memory bandwidth."
// It sweeps the AXI streamline width and reports each format's total
// modelled time: the dense baseline keeps improving (memory-bound)
// while the compute-bound decompressors saturate.
func ext4(o *Options) (Table, error) {
	t := Table{
		ID:     "ext4",
		Title:  "Extension: sensitivity to memory bandwidth (Sec 8 insight 1)",
		Header: []string{"axi_bytes_per_cycle", "format", "seconds", "balance"},
	}
	dim := o.WL.RandomDim
	if dim <= 0 {
		dim = workloads.DefaultConfig().RandomDim
	}
	m := gen.Random(dim, 0.05, o.WL.Seed+0xE48)
	x := make([]float64, m.Cols)
	for _, width := range []int{4, 8, 16, 32} {
		cfg := o.Engine.Config()
		cfg.AXIBytesPerCycle = width
		pl, err := hlsim.NewPlan(cfg, m, 16)
		if err != nil {
			return Table{}, err
		}
		for _, k := range []formats.Kind{formats.Dense, formats.CSR, formats.CSC, formats.COO} {
			r, err := pl.RunContext(context.Background(), k, x)
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", width), k.String(),
				fmt.Sprintf("%.3e", r.Seconds()), f3(r.BalanceRatio()),
			})
		}
	}
	t.Notes = append(t.Notes,
		"a compute-bound format's latency saturates as bandwidth grows; only the memory-bound dense baseline keeps scaling")
	return t, nil
}

// ext5 reports the §5.1 run-time utilizations per format and suite at
// 16×16 partitions: how full the dot-product engine's multiplier slots
// are (driven by row density, Fig. 3b) and how occupied the inner
// pipeline is (driven by non-zero rows, Fig. 3c).
func ext5(o *Options) (Table, error) {
	t := Table{
		ID:     "ext5",
		Title:  "Extension: dot-engine and inner-pipeline utilization (Sec 5.1), partition 16x16",
		Header: []string{"suite", "format", "dot_engine_util", "inner_pipeline_util"},
	}
	for _, suite := range SuiteNames {
		rs, err := o.results(suite, 16)
		if err != nil {
			return Table{}, err
		}
		byF := byFormat(rs)
		for _, k := range formats.Core() {
			var eng, inner []float64
			for _, r := range byF[k] {
				eng = append(eng, r.DotEngineUtil)
				inner = append(inner, r.InnerPipelineUtil)
			}
			t.Rows = append(t.Rows, []string{
				suite, k.String(), f4(metrics.Mean(eng)), f4(metrics.Mean(inner)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"row-skipping formats raise engine utilization; padded formats (dense, ELL family) pin the inner pipeline at 1 while wasting multiplier slots")
	return t, nil
}

// ext6 contrasts the paper's decompress-then-dot pipeline against the
// §7 related-work architecture class that consumes compressed operands
// directly (EIE/SpArch/SIGMA style): σ per format under both compute
// models on a random matrix, quantifying how much of each format's cost
// is the format itself versus the format/architecture pairing — the
// co-design point of §8.
func ext6(o *Options) (Table, error) {
	t := Table{
		ID:     "ext6",
		Title:  "Extension: decompress-then-dot vs direct compressed-domain compute (Sec 7/8)",
		Header: []string{"format", "sigma_decompress", "sigma_direct", "ratio"},
	}
	dim := o.WL.RandomDim
	if dim <= 0 {
		dim = workloads.DefaultConfig().RandomDim
	}
	m := gen.Random(dim, 0.05, o.WL.Seed+0xE66)
	cfg := o.Engine.Config()
	pt := matrix.Partition(m, 16)
	for _, k := range formats.Core() {
		var dec, dir float64
		for _, tile := range pt.Tiles {
			enc := formats.Encode(k, tile)
			sd, err := cfg.Sigma(enc)
			if err != nil {
				return Table{}, err
			}
			sr, err := cfg.SigmaDirect(enc)
			if err != nil {
				return Table{}, err
			}
			dec += sd
			dir += sr
		}
		n := float64(len(pt.Tiles))
		dec /= n
		dir /= n
		t.Rows = append(t.Rows, []string{k.String(), f2(dec), f2(dir), f2(dir / dec)})
	}
	t.Notes = append(t.Notes,
		"CSC's orientation penalty vanishes when the architecture streams columns natively; the spread across formats collapses")
	return t, nil
}

// ext7 integrates power over modelled time: dynamic and static energy
// per format on the SuiteSparse suite at 16×16 partitions. It
// quantifies §6.4's closing remark — "the static energy, which depends
// on time, can be an issue for those slower sparse formats that
// require less dynamic energy" — slow CSC loses on static energy what
// it saves on dynamic power.
func ext7(o *Options) (Table, error) {
	t := Table{
		ID:     "ext7",
		Title:  "Extension: energy per SpMV run (Sec 6.4), SuiteSparse, partition 16x16",
		Header: []string{"format", "dynamic_uJ", "static_uJ", "total_uJ"},
	}
	rs, err := o.results("SuiteSparse", 16)
	if err != nil {
		return Table{}, err
	}
	byF := byFormat(rs)
	for _, k := range formats.Core() {
		var dyn, st float64
		for _, r := range byF[k] {
			dyn += r.DynamicEnergyJ
			st += r.StaticEnergyJ
		}
		t.Rows = append(t.Rows, []string{
			k.String(), f2(dyn * 1e6), f2(st * 1e6), f2((dyn + st) * 1e6),
		})
	}
	t.Notes = append(t.Notes,
		"static energy scales with run time, so the slowest decompressors lose their dynamic-power advantage")
	return t, nil
}

// ext8 is the model-vs-measured cross-validation the backend seam
// unlocks: for every SuiteSparse workload it characterizes the seven
// sparse formats at 16×16 partitions under both the analytic cycle model
// and the native host-CPU backend (measured wall time of the warm
// executable kernel), then compares the two format *orderings* —
// Kendall τ over the per-format costs, plus each backend's fastest pick.
// The comparison runs per (kernel, threads) point: one SpMV and a
// 60-iteration CG loop, because the amortized kernel reweights the
// one-shot decompression cost the model and the measurement must agree
// on; and serial plus full machine width (deduplicated on one-core
// hosts), because fan-out shifts the measured ordering (padding-heavy
// formats parallelize better than pointer-chasing ones). The model
// should hold rank across both shifts. Absolute times are
// incommensurable (modelled FPGA cycles vs host nanoseconds); rank
// agreement is the meaningful check of the paper's claim that the model
// predicts how formats compare on real workloads. Native numbers vary
// run to run, so this artifact is measured, not golden.
func ext8(o *Options) (Table, error) {
	t := Table{
		ID:     "ext8",
		Title:  "Extension: model-vs-measured format rank agreement, partition 16x16",
		Header: []string{"workload", "kernel", "threads", "analytic_best", "native_best", "kendall_tau", "top_pick_agrees"},
	}
	threadCounts := []int{1}
	if maxT := runtime.GOMAXPROCS(0); maxT > 1 {
		threadCounts = append(threadCounts, maxT)
	}
	specs := []scenario.Spec{scenario.Default(), scenario.MustParse("cg:60")}
	type axis struct {
		spec    string
		threads int
	}
	taus := make(map[axis][]float64)
	agree := make(map[axis]int)
	ws := o.suite("SuiteSparse")
	cost := func(rs []core.Result) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = r.Seconds
		}
		return out
	}
	best := func(cs []float64, rs []core.Result) formats.Kind {
		bi := 0
		for i, c := range cs {
			if c < cs[bi] {
				bi = i
			}
		}
		return rs[bi].Format
	}
	for _, w := range ws {
		for _, sc := range specs {
			ana, err := sparseAt16(o, nil, w, sc)
			if err != nil {
				return Table{}, err
			}
			aCost := cost(ana)
			aBest := best(aCost, ana)
			for _, tc := range threadCounts {
				native := &backend.Native{Threads: tc}
				nat, err := sparseAt16(o, native, w, sc)
				if err != nil {
					return Table{}, err
				}
				nCost := cost(nat)
				nBest := best(nCost, nat)
				tau := metrics.KendallTau(aCost, nCost)
				ax := axis{sc.String(), tc}
				taus[ax] = append(taus[ax], tau)
				same := "no"
				if aBest == nBest {
					same = "yes"
					agree[ax]++
				}
				t.Rows = append(t.Rows, []string{
					w.ID, sc.String(), fmt.Sprintf("%d", tc),
					aBest.String(), nBest.String(), f2(tau), same,
				})
			}
		}
	}
	for _, sc := range specs {
		for _, tc := range threadCounts {
			ax := axis{sc.String(), tc}
			t.Notes = append(t.Notes, fmt.Sprintf("kernel=%s threads=%d: mean tau %.2f; top pick agrees on %d/%d workloads",
				sc, tc, metrics.Mean(taus[ax]), agree[ax], len(ws)))
		}
	}
	t.Notes = append(t.Notes,
		"native = min-of-runs wall time of the warm tile-parallel executable kernel loop on the host CPU; ranks are comparable, absolute times are not")
	return t, nil
}

// sparseAt16 sweeps one workload's seven sparse formats at 16×16
// partitions for kernel sc, costed by backend b (nil: analytic) — the one
// group ext8 and ext9 compare across backends and kernels.
func sparseAt16(o *Options, b backend.Backend, w workloads.Workload, sc scenario.Spec) ([]core.Result, error) {
	return o.Engine.SweepKernelsWith(context.Background(), b, []workloads.Workload{w}, []scenario.Spec{sc}, formats.Sparse(), []int{16})
}

// ext9 asks the question the kernel axis exists to answer: does the best
// format for a workload *flip* between one SpMV and a 60-iteration CG
// solve? A single SpMV pays each tile's decompression once, in full; an
// iterative kernel pays it once and then amortizes it across every warm
// iteration, so a format with expensive decoding but cheap steady-state
// streaming can overtake the one-shot winner. For every SuiteSparse
// workload at 16×16 partitions the table shows both analytic winners,
// whether they differ, and each kernel's margin (runner-up cost over
// winner cost — how decisively the winner wins). Fully analytic, so the
// artifact is deterministic.
func ext9(o *Options) (Table, error) {
	t := Table{
		ID:     "ext9",
		Title:  "Extension: best-format flip between one SpMV and cg:60, partition 16x16",
		Header: []string{"workload", "spmv_best", "cg60_best", "flips", "spmv_margin", "cg60_margin"},
	}
	cg60 := scenario.MustParse("cg:60")
	flips := 0
	ws := o.suite("SuiteSparse")
	pick := func(rs []core.Result) (formats.Kind, float64) {
		bi := 0
		for i, r := range rs {
			if r.Seconds < rs[bi].Seconds {
				bi = i
			}
		}
		runner := -1.0
		for i, r := range rs {
			if i != bi && (runner < 0 || r.Seconds < runner) {
				runner = r.Seconds
			}
		}
		margin := 1.0
		if runner >= 0 {
			margin = runner / rs[bi].Seconds
		}
		return rs[bi].Format, margin
	}
	for _, w := range ws {
		spmv, err := sparseAt16(o, nil, w, scenario.Default())
		if err != nil {
			return Table{}, err
		}
		cg, err := sparseAt16(o, nil, w, cg60)
		if err != nil {
			return Table{}, err
		}
		sBest, sMargin := pick(spmv)
		cBest, cMargin := pick(cg)
		flip := "no"
		if sBest != cBest {
			flip = "yes"
			flips++
		}
		t.Rows = append(t.Rows, []string{
			w.ID, sBest.String(), cBest.String(), flip, f2(sMargin), f2(cMargin),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("best format flips on %d/%d workloads between one SpMV and 60 amortized CG iterations", flips, len(ws)),
		"amortized analytic cost: decompression paid on the first iteration, steady-state max(mem, dot) on the remaining 59")
	return t, nil
}

// ext3 measures coarse-grained aggregation (§5.1): speedup and
// load-balance efficiency of 1–16 pipeline instances on one random
// matrix per density class.
func ext3(o *Options) (Table, error) {
	t := Table{
		ID:     "ext3",
		Title:  "Extension: coarse-grained aggregation speedup (Sec 5.1)",
		Header: []string{"density", "format", "lanes", "cycles", "speedup", "efficiency"},
	}
	dim := o.WL.RandomDim
	if dim <= 0 {
		dim = workloads.DefaultConfig().RandomDim
	}
	cfg := o.Engine.Config()
	for _, d := range []float64{0.001, 0.1} {
		m := gen.Random(dim, d, o.WL.Seed+0xE37)
		x := make([]float64, m.Cols)
		pl, err := hlsim.NewPlan(cfg, m, 16)
		if err != nil {
			return Table{}, err
		}
		for _, k := range []formats.Kind{formats.COO, formats.CSR} {
			base, err := pl.RunParallel(k, x, 1)
			if err != nil {
				return Table{}, err
			}
			for lanes := 1; lanes <= 16; lanes *= 2 {
				r, err := pl.RunParallel(k, x, lanes)
				if err != nil {
					return Table{}, err
				}
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%g", d), k.String(), fmt.Sprintf("%d", lanes),
					fmt.Sprintf("%d", r.TotalCycles),
					f2(float64(base.TotalCycles) / float64(r.TotalCycles)),
					f3(r.Efficiency()),
				})
			}
		}
	}
	return t, nil
}
