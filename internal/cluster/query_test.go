package cluster

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestSweepQueryRoundTrip: a query the coordinator encodes for a worker
// parses back to the same request on the worker — dispatches and cache
// probes alike — and the JSON body form round-trips through the same
// type.
func TestSweepQueryRoundTrip(t *testing.T) {
	queries := []SweepQuery{
		{Matrix: "DW", Formats: []string{"CSR", "ELL", "SELL-C-sig"}, Partitions: []int{8}, Backend: "analytic", Kernel: "spmv"},
		{Matrix: "up-1", Formats: []string{"COO"}, Partitions: []int{8, 16, 32}, Backend: "native", Threads: 2, Kernel: "cg:60"},
		{Matrix: "a b&c", Partitions: []int{16}},
		{Matrix: "FR"},
	}
	for _, q := range queries {
		for _, cacheOnly := range []bool{false, true} {
			got, err := ParseSweepQuery(q.values(cacheOnly), false)
			if err != nil {
				t.Fatalf("%+v (cache only %v): %v", q, cacheOnly, err)
			}
			if !reflect.DeepEqual(got, q) {
				t.Fatalf("query round trip (cache only %v):\n got %+v\nwant %+v", cacheOnly, got, q)
			}
		}
		body, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		var got SweepQuery
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, q) {
			t.Fatalf("JSON round trip %s:\n got %+v\nwant %+v", body, got, q)
		}
	}
}
