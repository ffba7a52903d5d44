package hlsim

import (
	"context"
	"math"
	"testing"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/xrand"
)

func denseOperand(rows, cols int, seed uint64) []float64 {
	r := xrand.New(seed)
	b := make([]float64, rows*cols)
	for i := range b {
		b[i] = r.ValueIn(-1, 1)
	}
	return b
}

func TestSpMMFunctional(t *testing.T) {
	m := gen.Random(96, 0.08, 3)
	const cols = 5
	b := denseOperand(m.Cols, cols, 7)
	pl := mustPlan(t, m, 16)
	for _, k := range formats.Core() {
		res, err := pl.RunSpMM(k, b, cols)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		// Reference: column-by-column software SpMV.
		for c := 0; c < cols; c++ {
			x := make([]float64, m.Cols)
			for j := range x {
				x[j] = b[j*cols+c]
			}
			want := m.MulVec(x)
			for i := range want {
				if math.Abs(res.Y[i*cols+c]-want[i]) > 1e-9 {
					t.Fatalf("%v: Y[%d][%d] = %v, want %v", k, i, c, res.Y[i*cols+c], want[i])
				}
			}
		}
	}
}

// TestSpMMAmortizesDecompression: per-column σ shrinks as the operand
// widens for decompress-heavy formats, approaching the dots-only floor.
func TestSpMMAmortizesDecompression(t *testing.T) {
	m := gen.Random(128, 0.1, 5)
	x := make([]float64, m.Cols)
	pl := mustPlan(t, m, 16)
	run, err := pl.RunContext(context.Background(), formats.CSR, x)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, cols := range []int{1, 4, 16, 64} {
		b := denseOperand(m.Cols, cols, 9)
		res, err := pl.RunSpMM(formats.CSR, b, cols)
		if err != nil {
			t.Fatal(err)
		}
		sigma := sigmaPerColumn(res, run.DotRows)
		if sigma >= prev {
			t.Fatalf("σ/column did not shrink at %d columns: %v >= %v", cols, sigma, prev)
		}
		prev = sigma
	}
	// The floor is the dots-only σ (DotRows/p per tile).
	floor := float64(run.DotRows) / float64(run.NonZeroTiles*16)
	if prev < floor-1e-9 {
		t.Fatalf("amortized σ %v fell below the dots-only floor %v", prev, floor)
	}
}

// TestSpMMColumnOneMatchesSpMV: with one column the cycle model reduces
// to the SpMV model exactly.
func TestSpMMColumnOneMatchesSpMV(t *testing.T) {
	m := gen.Band(96, 8, 11)
	x := denseOperand(m.Cols, 1, 13)
	pl := mustPlan(t, m, 16)
	run, err := pl.RunContext(context.Background(), formats.DIA, x)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := pl.RunSpMM(formats.DIA, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mm.ComputeCycles != run.ComputeCycles || mm.MemCycles != run.MemCycles ||
		mm.PipelinedCycles != run.PipelinedCycles {
		t.Fatalf("1-column SpMM cycles (%d/%d/%d) != SpMV (%d/%d/%d)",
			mm.MemCycles, mm.ComputeCycles, mm.PipelinedCycles,
			run.MemCycles, run.ComputeCycles, run.PipelinedCycles)
	}
	for i := range run.Y {
		if math.Abs(mm.Y[i]-run.Y[i]) > 1e-12 {
			t.Fatal("1-column SpMM result differs from SpMV")
		}
	}
}

func TestSpMMRejectsBadInput(t *testing.T) {
	m := gen.Random(32, 0.1, 1)
	pl := mustPlan(t, m, 8)
	if _, err := pl.RunSpMM(formats.CSR, nil, 0); err == nil {
		t.Fatal("0 columns accepted")
	}
	if _, err := pl.RunSpMM(formats.CSR, make([]float64, 10), 2); err == nil {
		t.Fatal("short operand accepted")
	}
}

// sigmaPerColumn is the per-column decompression overhead: Eq. (1) with
// T_decomp divided across the operand columns. At Columns=1 it equals
// the SpMV σ; it approaches DotRows/p as Columns grows.
func sigmaPerColumn(r *SpMMResult, dotRows uint64) float64 {
	if r.NonZeroTiles == 0 {
		return 1
	}
	td := uint64(r.cfg.DotLatency(r.P))
	denom := float64(uint64(r.NonZeroTiles) * uint64(r.P) * td)
	amortized := float64(r.DecompCycles)/float64(r.Columns) + float64(dotRows*td)
	return amortized / denom
}
