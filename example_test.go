package copernicus_test

import (
	"context"
	"fmt"
	"log"
	"math"

	"copernicus"
)

// ExampleCharacterize measures one (matrix, format, partition size)
// point: the dense baseline's σ is 1 by definition.
func ExampleCharacterize() {
	m := copernicus.Random(256, 0.02, 42)
	r, err := copernicus.Characterize(m, copernicus.Dense, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dense sigma = %.2f\n", r.Sigma)
	// Output: dense sigma = 1.00
}

// ExampleEncode shows a round trip through one format codec.
func ExampleEncode() {
	tile := copernicus.NewTileFromMatrix(copernicus.Diagonal(16, 1), 0, 0, 16)
	enc := copernicus.Encode(copernicus.DIA, tile)
	fmt.Printf("format=%v useful=%dB meta=%dB utilization=%.4f\n",
		enc.Kind(), enc.Footprint().UsefulBytes, enc.Footprint().MetaBytes,
		enc.Footprint().Utilization())
	// Output: format=DIA useful=64B meta=4B utilization=0.9412
}

// ExampleStats computes the Fig. 3 partition statistics.
func ExampleStats() {
	s := copernicus.Stats(copernicus.Diagonal(64, 1), 8)
	fmt.Printf("p=%d nonzero_tiles=%d row_density=%.3f\n", s.P, s.NonZeroTiles, s.RowDensity)
	// Output: p=8 nonzero_tiles=8 row_density=0.125
}

// ExampleStaticAdvice returns the paper's §8 rule of thumb for a
// workload class.
func ExampleStaticAdvice() {
	m := copernicus.Band(512, 16, 7)
	format, _, _ := copernicus.StaticAdvice(copernicus.Classify(m))
	fmt.Println(format)
	// Output: ELL
}

// ExampleSolveCG solves a PDE system with conjugate gradients over the
// modelled accelerator.
func ExampleSolveCG() {
	a := copernicus.Stencil2D(8, 8, 1)
	b := make([]float64, a.Rows)
	b[10] = 1
	mul, _, err := copernicus.AcceleratorBackend(a, copernicus.ELL, 16)
	if err != nil {
		log.Fatal(err)
	}
	_, st, err := copernicus.SolveCG(mul, b, 1e-10, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("converged:", st.Converged)
	// Output: converged: true
}

// ExampleStreamPlan is the README's streaming-plan snippet: one
// encode-once plan serves every iteration, paying only the dot work
// after the first, and each output matches the software reference (up
// to the floating-point reassociation of summing a row tile by tile).
func ExampleStreamPlan() {
	ctx := context.Background()
	m := copernicus.Random(256, 0.02, 42)
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1
	}
	pl, err := copernicus.NewStreamPlan(m, 16)
	if err != nil {
		log.Fatal(err)
	}
	matches := true
	for iter := 0; iter < 3; iter++ {
		res, err := pl.RunContext(ctx, copernicus.CSR, x) // only per-iteration dot work
		if err != nil {
			log.Fatal(err)
		}
		want := m.MulVec(x)
		for i := range want {
			matches = matches && math.Abs(res.Y[i]-want[i]) <= 1e-12*math.Max(1, math.Abs(want[i]))
		}
		x = res.Y
	}
	fmt.Println("matches the software reference:", matches)
	// Output: matches the software reference: true
}

// ExampleNativeBackend is the README's native-sweep snippet: the same
// encode-once plans costed by measured host wall time instead of the
// cycle model. The timings vary by host, so the example has no Output.
func ExampleNativeBackend() {
	ctx := context.Background()
	ws := copernicus.SuiteSparseWorkloads(copernicus.WorkloadConfig{Scale: 64, RandomDim: 64, BandDim: 64})[:2]
	e := copernicus.NewEngine()
	spmv := []copernicus.KernelSpec{copernicus.DefaultKernel()}
	b, err := copernicus.WithNativeThreads(copernicus.NativeBackend(0), 1)
	if err != nil {
		log.Fatal(err)
	}
	rs, err := e.SweepKernelsWith(ctx, b, ws, spmv, copernicus.SparseFormats(), []int{16})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rs {
		fmt.Println(r.Workload, r.Format, r.Backend, r.Measured, r.Seconds, r.Threads)
	}
}

// ExampleEngine_SweepKernelsWith is the README's kernel-axis snippet:
// each point is costed for 60 CG iterations, one full invocation.
func ExampleEngine_SweepKernelsWith() {
	ctx := context.Background()
	ws := copernicus.SuiteSparseWorkloads(copernicus.WorkloadConfig{Scale: 64, RandomDim: 64, BandDim: 64})[:2]
	e := copernicus.NewEngine()
	sc, err := copernicus.ParseKernel("cg:60")
	if err != nil {
		log.Fatal(err)
	}
	rs, err := e.SweepKernelsWith(ctx, nil, ws, []copernicus.KernelSpec{sc},
		copernicus.SparseFormats(), []int{16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(rs), rs[0].Kernel, rs[0].Iterations)
	// Output: 14 cg:60 60
}
