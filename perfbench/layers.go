package main

import (
	"fmt"
	"strings"

	"copernicus/internal/formats"
)

// Workload short names used by the per-layer reach table.
const (
	wSuite = "suite_sweep"
	wLarge = "large_sparse"
	wServe = "serve_mix"
)

// sparseKinds are the twelve sparse formats of large_sparse.
func sparseKinds() []formats.Kind {
	var ks []formats.Kind
	for _, k := range formats.All() {
		if k != formats.Dense {
			ks = append(ks, k)
		}
	}
	return ks
}

// kindName is a format's name as used in metric names: lower case,
// letters and digits only (csr, ellcoo, sellcs, ...).
func kindName(k formats.Kind) string {
	s := strings.ToLower(k.String())
	s = strings.NewReplacer("+", "", "-c-sig", "cs", "-", "").Replace(s)
	return s
}

// serveRoutes are the request kinds serve_mix times per handler.
var serveRoutes = []string{
	"upload", "sweep_cold", "sweep_col_first", "delete",
	"sweep_warm_json", "sweep_warm_col", "characterize_warm",
	"advise_warm_json", "advise_warm_col",
}

// layerMetric is one per-layer metric and the workloads whose traced
// run measures it. A workload that does not reach the layer reports 0.
type layerMetric struct {
	name, unit, better string
	reach              []string
}

func layerMetrics() []layerMetric {
	both := []string{wSuite, wLarge}
	all := []string{wSuite, wLarge, wServe}
	ms := []layerMetric{
		{"matrix.partition_ms", "ms", "lower", both},
		{"matrix.nonzero_tiles", "count", "lower", both},
		{"matrix.nnz", "count", "lower", both},
		{"formats.encode_ms", "ms", "lower", both},
		{"formats.encode_alloc_mb", "MB", "lower", both},
		{"formats.decode_verify_ms", "ms", "lower", both},
		{"formats.decode_verify_alloc_mb", "MB", "lower", both},
		{"hlsim.exec_build_ms", "ms", "lower", []string{wLarge}},
		{"hlsim.exec_build_alloc_mb", "MB", "lower", []string{wLarge}},
	}
	for _, k := range sparseKinds() {
		ms = append(ms,
			layerMetric{"formats." + kindName(k) + ".exec_ms", "ms", "lower", []string{wLarge}},
			layerMetric{"formats." + kindName(k) + ".footprint_bytes", "B", "lower", []string{wLarge}})
	}
	ms = append(ms,
		layerMetric{"backend.analytic_eval_us", "us", "lower", []string{wSuite}},
		layerMetric{"core.group_busy_ms", "ms", "lower", []string{wSuite}},
		layerMetric{"core.first_group_ms", "ms", "lower", []string{wSuite}},
		layerMetric{"core.plan_hits", "count", "higher", []string{wSuite, wServe}},
		layerMetric{"core.plan_misses", "count", "lower", []string{wSuite, wServe}},
		layerMetric{"core.plan_evictions", "count", "lower", []string{wSuite, wServe}},
		layerMetric{"core.plan_resident_mb", "MB", "lower", []string{wSuite, wServe}},
		layerMetric{"mtx.read_ms", "ms", "lower", []string{wServe}},
		layerMetric{"mtx.read_alloc_mb", "MB", "lower", []string{wServe}},
		layerMetric{"wire.encode_us", "us", "lower", []string{wServe}},
		layerMetric{"wire.slab_bytes", "B", "lower", []string{wServe}},
	)
	for _, r := range serveRoutes {
		ms = append(ms, layerMetric{"service.handler_us." + r, "us", "lower", []string{wServe}})
	}
	ms = append(ms,
		layerMetric{"service.outside_handler_us", "us", "lower", []string{wServe}},
		layerMetric{"service.allocs_per_warm_request", "count", "lower", []string{wServe}},
		layerMetric{"service.cache_hits", "count", "higher", []string{wServe}},
		layerMetric{"service.cache_misses", "count", "lower", []string{wServe}},
		layerMetric{"service.encoded_resident_mb", "MB", "lower", []string{wServe}},
		layerMetric{"service.warm_p99_ms", "ms", "lower", []string{wServe}},
		layerMetric{"service.warm_p99_samples", "count", "higher", []string{wServe}},
		layerMetric{"runtime.gc_cycles", "count", "lower", all},
		layerMetric{"runtime.gc_pause_ms", "ms", "lower", all},
		layerMetric{"trace.overhead_cold_ms", "ms", "lower", all},
		layerMetric{"trace.overhead_warm_ms", "ms", "lower", all},
		layerMetric{"trace.unattributed_cold_ms", "ms", "lower", all},
		layerMetric{"trace.unattributed_warm_ms", "ms", "lower", all},
	)
	return ms
}

// fillLayers checks that a traced run of workload w reported every
// per-layer metric it reaches, with the declared unit, and reports 0 for
// the layers w does not reach. Anything else in m is an error, so the
// traced output is exactly the per-layer metric set.
func fillLayers(m map[string]metricVal, w string) error {
	known := map[string]bool{}
	for _, lm := range layerMetrics() {
		known[lm.name] = true
		reached := false
		for _, r := range lm.reach {
			reached = reached || r == w
		}
		v, ok := m[lm.name]
		switch {
		case reached && !ok:
			return fmt.Errorf("traced run did not report %s", lm.name)
		case reached && v.Unit != lm.unit:
			return fmt.Errorf("%s reported in %q, want %q", lm.name, v.Unit, lm.unit)
		case !reached && ok:
			return fmt.Errorf("%s reported by %s, which does not reach it", lm.name, w)
		case !reached:
			m[lm.name] = metricVal{Value: 0, Unit: lm.unit}
		}
	}
	for name := range m {
		if !known[name] {
			return fmt.Errorf("traced run reported unknown metric %s", name)
		}
	}
	return nil
}
