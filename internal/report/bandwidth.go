package report

import (
	"fmt"

	"copernicus/internal/formats"
	"copernicus/internal/metrics"
	"copernicus/internal/workloads"
)

// fig10 regenerates memory-bandwidth utilization versus density for the
// random suite at 16×16 partitions (Fig. 10).
func fig10(o *Options) (Table, error) {
	return bwSweep(o, "fig10",
		"Memory bandwidth utilization vs density, random matrices, partition 16x16",
		"Random", "density", func(w workloads.Workload) string {
			return fmt.Sprintf("%g", w.Param)
		})
}

// fig11 regenerates memory-bandwidth utilization versus band width at
// 16×16 partitions (Fig. 11).
func fig11(o *Options) (Table, error) {
	return bwSweep(o, "fig11",
		"Memory bandwidth utilization vs band width, partition 16x16",
		"Band", "width", func(w workloads.Workload) string {
			return fmt.Sprintf("%g", w.Param)
		})
}

func bwSweep(o *Options, id, title, suite, xname string, xval func(workloads.Workload) string) (Table, error) {
	rs, err := o.results(suite, 16)
	if err != nil {
		return Table{}, err
	}
	byWL := map[string]map[formats.Kind]float64{}
	for _, r := range rs {
		if byWL[r.Workload] == nil {
			byWL[r.Workload] = map[formats.Kind]float64{}
		}
		byWL[r.Workload][r.Format] = r.BandwidthUtil
	}
	t := Table{ID: id, Title: title, Header: sigmaHeader(xname)}
	for _, w := range o.suite(suite) {
		row := []string{xval(w)}
		for _, k := range formats.Core() {
			row = append(row, f4(byWL[w.ID][k]))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "COO is pinned near 1/3; DIA approaches 1 on diagonal matrices (§6.3)")
	return t, nil
}

// fig12 regenerates the partition-size bandwidth study of Fig. 12:
// average memory-bandwidth utilization per suite and partition size for
// every format (higher is better).
func fig12(o *Options) (Table, error) {
	t := Table{
		ID:     "fig12",
		Title:  "Average memory bandwidth utilization per suite and partition size (higher is better)",
		Header: sigmaHeader("suite/p"),
	}
	for _, suite := range SuiteNames {
		for _, p := range workloads.PartitionSizes {
			rs, err := o.results(suite, p)
			if err != nil {
				return Table{}, err
			}
			byF := byFormat(rs)
			row := []string{fmt.Sprintf("%s/%d", suite, p)}
			for _, k := range formats.Core() {
				var vals []float64
				for _, r := range byF[k] {
					vals = append(vals, r.BandwidthUtil)
				}
				row = append(row, f4(metrics.Mean(vals)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}
