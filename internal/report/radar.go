package report

import (
	"copernicus/internal/core"
	"copernicus/internal/formats"
	"copernicus/internal/metrics"
	"copernicus/internal/synth"
	"copernicus/internal/workloads"
)

// radarMetrics are the six axes of Fig. 14.
var radarMetrics = []string{
	"balance", "bw_util", "latency", "throughput", "resource", "power",
}

// fig14 regenerates the normalized cross-metric comparison of Fig. 14:
// for each suite, every metric is min-max normalized across formats so 1
// is the best achieved value and 0 the worst. Resource is the combined
// device-budget fraction (BRAM/FF/LUT averaged); latency and power score
// lower-is-better; balance scores closeness to 1.
func fig14(o *Options) (Table, error) {
	t := Table{
		ID:     "fig14",
		Title:  "Normalized comparison across six metrics (1 = best, 0 = worst)",
		Header: append([]string{"suite", "format"}, radarMetrics...),
	}
	for _, suite := range SuiteNames {
		// Average each raw metric per format across the suite and the
		// three partition sizes, then normalize across formats.
		agg := map[formats.Kind]*rawAgg{}
		for _, k := range formats.Core() {
			agg[k] = &rawAgg{}
		}
		for _, p := range workloads.PartitionSizes {
			rs, err := o.results(suite, p)
			if err != nil {
				return Table{}, err
			}
			for _, r := range rs {
				agg[r.Format].add(r)
			}
		}
		kinds := formats.Core()
		var balance, bw, latency, tput, resource, power []float64
		for _, k := range kinds {
			a := agg[k]
			balance = append(balance, a.mean(a.balance))
			bw = append(bw, a.mean(a.bwUtil))
			latency = append(latency, a.mean(a.seconds))
			tput = append(tput, a.mean(a.throughput))
			resource = append(resource, a.mean(a.resource))
			power = append(power, a.mean(a.power))
		}
		norm := [][]float64{
			metrics.Normalize(balance, metrics.TargetOne),
			metrics.Normalize(bw, metrics.HigherBetter),
			metrics.Normalize(latency, metrics.LowerBetter),
			metrics.Normalize(tput, metrics.HigherBetter),
			metrics.Normalize(resource, metrics.LowerBetter),
			metrics.Normalize(power, metrics.LowerBetter),
		}
		for i, k := range kinds {
			row := []string{suite, k.String()}
			for _, axis := range norm {
				row = append(row, f3(axis[i]))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

type rawAgg struct {
	balance, bwUtil, seconds, throughput, resource, power []float64
}

func (a *rawAgg) add(r core.Result) {
	a.balance = append(a.balance, r.BalanceRatio)
	a.bwUtil = append(a.bwUtil, r.BandwidthUtil)
	a.seconds = append(a.seconds, r.Seconds)
	a.throughput = append(a.throughput, r.ThroughputBps)
	a.resource = append(a.resource, deviceFrac(r.Synth))
	a.power = append(a.power, r.Synth.DynamicW)
}

func (a *rawAgg) mean(vs []float64) float64 { return metrics.Mean(vs) }

// deviceFrac is the combined device-budget fraction of a synthesis
// report.
func deviceFrac(r synth.Report) float64 {
	return (float64(r.BRAM18K)/float64(synth.DeviceBRAM) +
		float64(r.FF)/float64(synth.DeviceFF) +
		float64(r.LUT)/float64(synth.DeviceLUT)) / 3
}
