package report

import (
	"fmt"
	"sort"

	"copernicus/internal/formats"
	"copernicus/internal/matrix"
	"copernicus/internal/metrics"
	"copernicus/internal/workloads"
)

// fig3 regenerates the workload statistics of Fig. 3: average partition
// density, row density, and non-zero-row percentage for each SuiteSparse
// surrogate at partition sizes 8, 16, and 32.
func fig3(o *Options) (Table, error) {
	t := Table{
		ID:     "fig3",
		Title:  "Density and spatial locality of SuiteSparse partitions (%)",
		Header: []string{"ID", "partdens@8", "partdens@16", "partdens@32", "rowdens@8", "rowdens@16", "rowdens@32", "nzrows@8", "nzrows@16", "nzrows@32"},
	}
	for _, w := range o.suite("SuiteSparse") {
		row := []string{w.ID}
		var pd, rd, nz [3]float64
		for i, p := range workloads.PartitionSizes {
			s := matrix.StatsFor(w.M, p)
			pd[i] = 100 * s.PartitionDensity
			rd[i] = 100 * s.RowDensity
			nz[i] = 100 * s.NonZeroRowFrac
		}
		for _, v := range pd {
			row = append(row, f2(v))
		}
		for _, v := range rd {
			row = append(row, f2(v))
		}
		for _, v := range nz {
			row = append(row, f2(v))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper: Fig. 3(a) partition density, (b) row density, (c) non-zero rows")
	return t, nil
}

// sigmaHeader builds the per-format header for the σ tables.
func sigmaHeader(first string) []string {
	h := []string{first}
	for _, k := range formats.Core() {
		h = append(h, k.String())
	}
	return h
}

// fig4 regenerates the SuiteSparse decompression-overhead comparison of
// Fig. 4: σ per workload and format at 16×16 partitions, workloads
// ordered by increasing density as in the paper's shading, with the
// GEOMEAN bar last.
func fig4(o *Options) (Table, error) {
	ws := o.suite("SuiteSparse")
	order := make([]int, len(ws))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ws[order[a]].Density() < ws[order[b]].Density()
	})
	rs, err := o.results("SuiteSparse", 16)
	if err != nil {
		return Table{}, err
	}
	sigma := map[string]map[formats.Kind]float64{}
	for _, r := range rs {
		if sigma[r.Workload] == nil {
			sigma[r.Workload] = map[formats.Kind]float64{}
		}
		sigma[r.Workload][r.Format] = r.Sigma
	}
	t := Table{
		ID:     "fig4",
		Title:  "Decompression overhead sigma for SuiteSparse, partition 16x16 (lower is better)",
		Header: sigmaHeader("workload"),
	}
	geo := map[formats.Kind][]float64{}
	for _, i := range order {
		w := ws[i]
		row := []string{w.ID}
		for _, k := range formats.Core() {
			v := sigma[w.ID][k]
			row = append(row, f2(v))
			geo[k] = append(geo[k], v)
		}
		t.Rows = append(t.Rows, row)
	}
	gm := []string{"GEOMEAN"}
	for _, k := range formats.Core() {
		gm = append(gm, f2(metrics.Geomean(geo[k])))
	}
	t.Rows = append(t.Rows, gm)
	t.Notes = append(t.Notes, "rows ordered by increasing density (the paper's bar shading)")
	return t, nil
}

// fig5 regenerates σ versus density for the random suite (Fig. 5) at
// 16×16 partitions.
func fig5(o *Options) (Table, error) {
	return sigmaSweep(o, "fig5",
		"Decompression overhead sigma vs density, random matrices, partition 16x16",
		"Random", "density", func(w workloads.Workload) string {
			return fmt.Sprintf("%g", w.Param)
		})
}

// fig6 regenerates σ versus band width (Fig. 6) at 16×16 partitions.
func fig6(o *Options) (Table, error) {
	return sigmaSweep(o, "fig6",
		"Decompression overhead sigma vs band width, partition 16x16",
		"Band", "width", func(w workloads.Workload) string {
			return fmt.Sprintf("%g", w.Param)
		})
}

func sigmaSweep(o *Options, id, title, suite, xname string, xval func(workloads.Workload) string) (Table, error) {
	rs, err := o.results(suite, 16)
	if err != nil {
		return Table{}, err
	}
	byWL := map[string]map[formats.Kind]float64{}
	for _, r := range rs {
		if byWL[r.Workload] == nil {
			byWL[r.Workload] = map[formats.Kind]float64{}
		}
		byWL[r.Workload][r.Format] = r.Sigma
	}
	t := Table{ID: id, Title: title, Header: sigmaHeader(xname)}
	for _, w := range o.suite(suite) {
		row := []string{xval(w)}
		for _, k := range formats.Core() {
			row = append(row, f2(byWL[w.ID][k]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// fig7 regenerates the partition-size study of Fig. 7: average σ per
// suite and partition size for every format.
func fig7(o *Options) (Table, error) {
	t := Table{
		ID:     "fig7",
		Title:  "Average sigma per suite and partition size (lower is better)",
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
					vals = append(vals, r.Sigma)
				}
				row = append(row, f2(metrics.Mean(vals)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}
