package report

import (
	"fmt"

	"copernicus/internal/formats"
	"copernicus/internal/synth"
	"copernicus/internal/workloads"
)

// table2Order lists the formats in Table 2's row order.
var table2Order = []formats.Kind{
	formats.Dense, formats.CSR, formats.BCSR, formats.CSC,
	formats.LIL, formats.ELL, formats.COO, formats.DIA,
}

// table2 regenerates the resource-utilization and dynamic-power table
// (Table 2): BRAM_18K, FF, LUT and dynamic power per format at partition
// sizes 8, 16 and 32, with the device budget as the Total row.
func table2(o *Options) (Table, error) {
	t := Table{
		ID:    "table2",
		Title: "Resource utilization and total dynamic power (partition sizes 8/16/32)",
		Header: []string{"format",
			"BRAM@8", "BRAM@16", "BRAM@32",
			"FFk@8", "FFk@16", "FFk@32",
			"LUTk@8", "LUTk@16", "LUTk@32",
			"DynW@8", "DynW@16", "DynW@32"},
	}
	for _, k := range table2Order {
		row := []string{k.String()}
		var reps [3]synth.Report
		for i, p := range workloads.PartitionSizes {
			reps[i] = synth.Estimate(k, p)
		}
		for _, r := range reps {
			row = append(row, fmt.Sprintf("%d", r.BRAM18K))
		}
		for _, r := range reps {
			row = append(row, fmt.Sprintf("%.1f", float64(r.FF)/1000))
		}
		for _, r := range reps {
			row = append(row, fmt.Sprintf("%.1f", float64(r.LUT)/1000))
		}
		for _, r := range reps {
			row = append(row, f2(r.DynamicW))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, []string{"Total(device)",
		fmt.Sprintf("%d", synth.DeviceBRAM), "", "",
		fmt.Sprintf("%.1f", float64(synth.DeviceFF)/1000), "", "",
		fmt.Sprintf("%.1f", float64(synth.DeviceLUT)/1000), "", "",
		"", "", ""})
	t.Notes = append(t.Notes,
		"static power: 0.121 W class (DENSE/CSR/BCSR/LIL/ELL) vs 0.103 W class (CSC/COO/DIA) in the paper; see fig13 for the modelled split")
	return t, nil
}

// fig13 regenerates the dynamic-power breakdown of Fig. 13: logic, BRAM
// and signal power per format and partition size, plus the modelled
// static power.
func fig13(o *Options) (Table, error) {
	t := Table{
		ID:     "fig13",
		Title:  "Dynamic power breakdown (mW) and static power (W)",
		Header: []string{"format", "p", "logic_mW", "bram_mW", "signals_mW", "clock_mW", "static_W"},
	}
	for _, k := range table2Order {
		for _, p := range workloads.PartitionSizes {
			r := synth.Estimate(k, p)
			t.Rows = append(t.Rows, []string{
				k.String(), fmt.Sprintf("%d", p),
				f2(r.LogicMW), f2(r.BRAMMW), f2(r.SignalsMW), f2(r.ClockMW),
				f3(r.StaticW),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper: logic power rises or holds with partition size; BRAM power may fall (dense, BCSR); totals track signal power")
	return t, nil
}
