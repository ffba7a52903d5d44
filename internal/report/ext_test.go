package report

import (
	"runtime"
	"testing"

	"copernicus/internal/formats"
)

func TestExt1AllFormats(t *testing.T) {
	tab, err := ext1(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Header) != 1+len(formats.All()) {
		t.Fatalf("ext1 header has %d columns", len(tab.Header))
	}
	if len(tab.Rows) != len(SuiteNames) {
		t.Fatalf("ext1 rows = %d", len(tab.Rows))
	}
	// DOK's scan covers a 2x-sized hash table, so its sigma must be at
	// least COO's on every suite.
	dokCol, cooCol := -1, -1
	for i, h := range tab.Header {
		switch h {
		case "DOK":
			dokCol = i
		case "COO":
			cooCol = i
		}
	}
	for _, row := range tab.Rows {
		if parse(t, row[dokCol]) < parse(t, row[cooCol])-0.01 {
			t.Errorf("%s: DOK sigma %s below COO %s", row[0], row[dokCol], row[cooCol])
		}
	}
}

func TestExt2Bounds(t *testing.T) {
	tab, err := ext2(small)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			v := parse(t, cell)
			if v < 0 || v > 1 {
				t.Fatalf("utilization %v out of range in %v", v, row)
			}
		}
	}
}

func TestExt3ScalingShape(t *testing.T) {
	tab, err := ext3(small)
	if err != nil {
		t.Fatal(err)
	}
	// 2 densities × 2 formats × 5 lane points.
	if len(tab.Rows) != 2*2*5 {
		t.Fatalf("ext3 rows = %d", len(tab.Rows))
	}
	speedupC := colIndex(t, tab, "speedup")
	effC := colIndex(t, tab, "efficiency")
	lanesC := colIndex(t, tab, "lanes")
	for _, row := range tab.Rows {
		sp := parse(t, row[speedupC])
		lanes := parse(t, row[lanesC])
		eff := parse(t, row[effC])
		if sp > lanes+1e-9 {
			t.Fatalf("super-linear speedup %v on %v lanes", sp, lanes)
		}
		if eff <= 0 || eff > 1+1e-9 {
			t.Fatalf("efficiency %v out of range", eff)
		}
	}
}

// TestExt4BandwidthInsight locks in the paper's first insight: added
// memory bandwidth keeps helping the dense baseline but stops helping a
// compute-bound format like CSC.
func TestExt4BandwidthInsight(t *testing.T) {
	tab, err := ext4(small)
	if err != nil {
		t.Fatal(err)
	}
	secC := colIndex(t, tab, "seconds")
	times := map[string]map[string]float64{} // format -> width -> seconds
	for _, row := range tab.Rows {
		if times[row[1]] == nil {
			times[row[1]] = map[string]float64{}
		}
		times[row[1]][row[0]] = parse(t, row[secC])
	}
	// Dense: 8x bandwidth buys at least 3x speedup.
	if sp := times["DENSE"]["4"] / times["DENSE"]["32"]; sp < 3 {
		t.Errorf("dense speedup from bandwidth = %.2f, want ≥3", sp)
	}
	// CSC: 8x bandwidth buys almost nothing (compute-bound).
	if sp := times["CSC"]["4"] / times["CSC"]["32"]; sp > 1.3 {
		t.Errorf("CSC speedup from bandwidth = %.2f; it should saturate (§8)", sp)
	}
}

// TestExt5UtilizationShape: padded formats keep the inner pipeline at
// exactly 1; the dense engine utilization equals average partition
// density.
func TestExt5UtilizationShape(t *testing.T) {
	tab, err := ext5(small)
	if err != nil {
		t.Fatal(err)
	}
	engC := colIndex(t, tab, "dot_engine_util")
	innerC := colIndex(t, tab, "inner_pipeline_util")
	for _, row := range tab.Rows {
		eng, inner := parse(t, row[engC]), parse(t, row[innerC])
		if eng <= 0 || eng > 1 || inner <= 0 || inner > 1 {
			t.Fatalf("utilization out of range in %v", row)
		}
		switch row[1] {
		case "DENSE", "ELL":
			if inner != 1 {
				t.Errorf("%s/%s inner-pipeline utilization %v, want 1", row[0], row[1], inner)
			}
		case "CSR", "COO", "LIL":
			if row[0] != "Band" && inner >= 1 {
				t.Errorf("%s/%s inner-pipeline utilization %v, want < 1", row[0], row[1], inner)
			}
		}
	}
}

// TestReportDeterminism: regenerating an artifact from a fresh harness
// yields byte-identical output — the whole stack is seeded.
func TestReportDeterminism(t *testing.T) {
	render := func() string {
		o := NewSmallOptions()
		tab, err := Generate(o, "fig4")
		if err != nil {
			t.Fatal(err)
		}
		var b []byte
		buf := bytesBuffer{&b}
		if err := tab.Render(buf); err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if render() != render() {
		t.Fatal("fig4 output differs across fresh runs")
	}
}

// bytesBuffer adapts a byte-slice pointer as an io.Writer without
// importing bytes (keeps the test dependency surface minimal).
type bytesBuffer struct{ b *[]byte }

func (w bytesBuffer) Write(p []byte) (int, error) {
	*w.b = append(*w.b, p...)
	return len(p), nil
}

// TestExt7StaticEnergyPenalizesSlowFormats: §6.4's closing remark —
// CSC's static energy exceeds COO's despite comparable static power,
// because it runs so much longer.
func TestExt7StaticEnergyPenalizesSlowFormats(t *testing.T) {
	tab, err := ext7(small)
	if err != nil {
		t.Fatal(err)
	}
	stC := colIndex(t, tab, "static_uJ")
	vals := map[string]float64{}
	for _, row := range tab.Rows {
		vals[row[0]] = parse(t, row[stC])
	}
	if vals["CSC"] <= 2*vals["COO"] {
		t.Fatalf("CSC static energy %.2f not well above COO %.2f", vals["CSC"], vals["COO"])
	}
}

// TestExt8RankAgreementShape: the model-vs-measured table has one row
// per (SuiteSparse workload, kernel, thread count), τ within [-1, 1],
// and best-format cells that name real sparse formats. The measured
// values themselves are nondeterministic, so only the structure is
// asserted.
func TestExt8RankAgreementShape(t *testing.T) {
	o := NewSmallOptions()
	tab, err := ext8(o)
	if err != nil {
		t.Fatal(err)
	}
	threadCounts := 1
	if runtime.GOMAXPROCS(0) > 1 {
		threadCounts = 2
	}
	kernels := 2 // spmv and cg:60
	if want := len(o.suite("SuiteSparse")) * kernels * threadCounts; len(tab.Rows) != want {
		t.Fatalf("ext8 rows = %d, want %d (workloads x kernels x thread counts)", len(tab.Rows), want)
	}
	tauC := colIndex(t, tab, "kendall_tau")
	aC := colIndex(t, tab, "analytic_best")
	nC := colIndex(t, tab, "native_best")
	kC := colIndex(t, tab, "kernel")
	sparse := map[string]bool{}
	for _, k := range formats.Sparse() {
		sparse[k.String()] = true
	}
	seenKernels := map[string]bool{}
	for _, row := range tab.Rows {
		if tau := parse(t, row[tauC]); tau < -1-1e-9 || tau > 1+1e-9 {
			t.Fatalf("tau %v out of range in %v", tau, row)
		}
		if !sparse[row[aC]] || !sparse[row[nC]] {
			t.Fatalf("best-format cells name unknown formats: %v", row)
		}
		seenKernels[row[kC]] = true
	}
	if !seenKernels["spmv"] || !seenKernels["cg:60"] {
		t.Fatalf("ext8 kernels seen = %v, want spmv and cg:60", seenKernels)
	}
}

// TestExt9FlipTableShape: the spmv-vs-cg:60 flip table has one row per
// SuiteSparse workload, winners that name real sparse formats, a flips
// column consistent with the two winner columns, and margins >= 1 (the
// runner-up always costs at least the winner). Fully analytic, so the
// table is deterministic.
func TestExt9FlipTableShape(t *testing.T) {
	o := NewSmallOptions()
	tab, err := ext9(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(o.suite("SuiteSparse")) {
		t.Fatalf("ext9 rows = %d, want one per SuiteSparse workload", len(tab.Rows))
	}
	sC := colIndex(t, tab, "spmv_best")
	cC := colIndex(t, tab, "cg60_best")
	fC := colIndex(t, tab, "flips")
	smC := colIndex(t, tab, "spmv_margin")
	cmC := colIndex(t, tab, "cg60_margin")
	sparse := map[string]bool{}
	for _, k := range formats.Sparse() {
		sparse[k.String()] = true
	}
	for _, row := range tab.Rows {
		if !sparse[row[sC]] || !sparse[row[cC]] {
			t.Fatalf("winner cells name unknown formats: %v", row)
		}
		wantFlip := "no"
		if row[sC] != row[cC] {
			wantFlip = "yes"
		}
		if row[fC] != wantFlip {
			t.Fatalf("flips column %q inconsistent with winners in %v", row[fC], row)
		}
		if parse(t, row[smC]) < 1 || parse(t, row[cmC]) < 1 {
			t.Fatalf("margin below 1 in %v", row)
		}
	}
}

func TestExtGenerateById(t *testing.T) {
	for _, id := range ExtOrder {
		if _, err := Generate(small, id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}
