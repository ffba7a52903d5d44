package core

import (
	"context"
	"testing"

	"copernicus/internal/formats"
	"copernicus/internal/workloads"
)

// suiteBenchInputs is the paper's study as the suite_sweep workload runs
// it: the twenty SuiteSparse surrogates at scale 1024 with seed 1, the
// core formats, and p ∈ {8, 16, 32}.
func suiteBenchInputs() ([]workloads.Workload, []formats.Kind, []int) {
	c := workloads.Config{Scale: 1024, RandomDim: 1024, BandDim: 1024, Seed: 1}
	return workloads.SuiteSparse(c), formats.Core(), []int{8, 16, 32}
}

// benchSweep runs one analytic sweep of the suite on e.
func benchSweep(b *testing.B, e *Engine, ws []workloads.Workload, kinds []formats.Kind, ps []int) {
	b.Helper()
	if _, err := e.SweepKernelsWith(context.Background(), nil, ws, spmvOnly, kinds, ps); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSweepWarm is the core layer's warm sweep: the suite on one
// engine worker whose plans are all cached, so an op is backend
// evaluation, the functional check and the group merge.
func BenchmarkSweepWarm(b *testing.B) {
	ws, kinds, ps := suiteBenchInputs()
	e := New()
	e.SetWorkers(1)
	benchSweep(b, e, ws, kinds, ps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSweep(b, e, ws, kinds, ps)
	}
}

// BenchmarkSweepCold is the core layer's cold sweep: the suite on a
// fresh one-worker engine per op, so an op also partitions, encodes and
// decode-verifies every plan and builds every operand and reference.
func BenchmarkSweepCold(b *testing.B) {
	ws, kinds, ps := suiteBenchInputs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		e.SetWorkers(1)
		benchSweep(b, e, ws, kinds, ps)
	}
}
