package report

import (
	"fmt"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/metrics"
	"copernicus/internal/workloads"
)

// fig8 regenerates the balance-ratio scatter of Fig. 8: per suite, format
// and partition size, the average memory latency, average compute
// latency, and their ratio (points below the balance line have ratio <
// 1, i.e. compute-bound streaming).
func fig8(o *Options) (Table, error) {
	t := Table{
		ID:     "fig8",
		Title:  "Memory vs compute latency per partition (balance ratio; 1 = balanced)",
		Header: []string{"suite", "format", "p", "mem_cycles", "compute_cycles", "balance"},
	}
	for _, suite := range SuiteNames {
		for _, p := range workloads.PartitionSizes {
			rs, err := o.results(suite, p)
			if err != nil {
				return Table{}, err
			}
			byF := byFormat(rs)
			for _, k := range formats.Core() {
				var mem, comp, bal []float64
				for _, r := range byF[k] {
					mem = append(mem, r.MeanMemCycles)
					comp = append(comp, r.MeanComputeCycles)
					bal = append(bal, r.BalanceRatio)
				}
				t.Rows = append(t.Rows, []string{
					suite, k.String(), fmt.Sprintf("%d", p),
					f2(metrics.Mean(mem)), f2(metrics.Mean(comp)), f3(metrics.Mean(bal)),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper: marker size encodes partition size; balance < 1 means compute-bound")
	return t, nil
}

// fig9 regenerates the throughput-versus-latency curves of Fig. 9: SpMV
// on one large random matrix per density, for every format and partition
// size. The paper uses 8000×8000; the dimension here follows
// Options.WL.RandomDim (the curve shapes are scale-invariant).
func fig9(o *Options) (Table, error) {
	t := Table{
		ID:     "fig9",
		Title:  "Throughput vs total latency across densities (thicker line = larger partition)",
		Header: []string{"format", "p", "density", "latency_s", "throughput_GBps"},
	}
	dim := o.WL.RandomDim
	if dim <= 0 {
		dim = workloads.DefaultConfig().RandomDim
	}
	for _, k := range formats.Core() {
		for _, p := range workloads.PartitionSizes {
			for i, d := range workloads.RandomDensities {
				m := gen.Random(dim, d, o.WL.Seed+uint64(900+i))
				r, err := o.Engine.Characterize(fmt.Sprintf("rnd%g", d), m, k, p)
				if err != nil {
					return Table{}, err
				}
				t.Rows = append(t.Rows, []string{
					k.String(), fmt.Sprintf("%d", p), fmt.Sprintf("%g", d),
					fmt.Sprintf("%.3e", r.Seconds),
					f3(r.ThroughputBps / 1e9),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("matrix dimension %d (paper: 8000); shapes are scale-invariant", dim))
	return t, nil
}
