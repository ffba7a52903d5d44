package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloadList))
	}
	for i, w := range workloadList {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := doc.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %s %s", i, got, m.name, m.unit)
		}
	}
	lms := layerMetrics()
	if len(doc.PerLayer) != len(lms) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(lms))
	}
	for i, m := range lms {
		if got := doc.PerLayer[i]; got != (metric{m.name, m.unit, m.better}) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %s %s %s", i, got, m.name, m.unit, m.better)
		}
	}
}
