package hlsim

import (
	"context"
	"testing"

	"copernicus/internal/formats"
	"copernicus/internal/matrix"
	"copernicus/internal/workloads"
)

// BenchmarkColdWarmup measures the plan warmup layer alone: per core
// format, the first RunIntoContext on a freshly partitioned plan — the
// fused encode → price → verify pass over every tile (a stream compare
// for the nine matched formats, decode → cross-check for the other four)
// plus the functional row copy — on one suite_sweep input (the flickr
// surrogate at scale 1024, p = 16). The partition is built outside the
// timer. B/op and allocs/op are the warmup's own allocation.
func BenchmarkColdWarmup(b *testing.B) {
	var m *matrix.CSR
	for _, w := range workloads.SuiteSparse(workloads.DefaultConfig()) {
		if w.ID == "FL" {
			m = w.M
		}
	}
	x := testVectorFor(m.Cols)
	for _, k := range formats.Core() {
		b.Run(k.String(), func(b *testing.B) {
			b.ReportAllocs()
			var r Result
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pl, err := NewPlan(Default(), m, 16)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := pl.RunIntoContext(context.Background(), k, x, &r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
