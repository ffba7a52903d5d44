package report

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"copernicus/internal/core"
	"copernicus/internal/formats"
	"copernicus/internal/workloads"
)

// small returns a shared reduced-scale harness. Tests mutate nothing, so
// one cache serves the whole package; generators stay fast.
var small = NewSmallOptions()

func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

// colIndex finds a header column.
func colIndex(t *testing.T, tab Table, name string) int {
	t.Helper()
	for i, h := range tab.Header {
		if h == name {
			return i
		}
	}
	t.Fatalf("header %q not found in %v", name, tab.Header)
	return -1
}

func TestFig3Structure(t *testing.T) {
	tab, err := fig3(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 20 {
		t.Fatalf("fig3 rows = %d, want 20 workloads", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			v := parse(t, cell)
			if v < 0 || v > 100 {
				t.Fatalf("fig3 percentage %v out of range in row %v", v, row)
			}
		}
	}
}

func TestFig4GeomeanAndDenseBaseline(t *testing.T) {
	tab, err := fig4(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 21 {
		t.Fatalf("fig4 rows = %d, want 20 workloads + GEOMEAN", len(tab.Rows))
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "GEOMEAN" {
		t.Fatalf("last row is %q, want GEOMEAN", last[0])
	}
	denseCol := colIndex(t, tab, "DENSE")
	cscCol := colIndex(t, tab, "CSC")
	cooCol := colIndex(t, tab, "COO")
	for _, row := range tab.Rows {
		if v := parse(t, row[denseCol]); v != 1.00 {
			t.Fatalf("dense σ = %v in row %v, want 1.00", v, row[0])
		}
	}
	// CSC geomean must dominate every other format's geomean.
	cscGM := parse(t, last[cscCol])
	for i := 1; i < len(last); i++ {
		if i == cscCol {
			continue
		}
		if v := parse(t, last[i]); v >= cscGM {
			t.Fatalf("GEOMEAN %s (%v) >= CSC (%v)", tab.Header[i], v, cscGM)
		}
	}
	// §8/§6.4: COO is fast on SuiteSparse — its geomean must be among the
	// sparse formats' best two.
	cooGM := parse(t, last[cooCol])
	better := 0
	for i := 1; i < len(last); i++ {
		if tab.Header[i] == "DENSE" || i == cooCol {
			continue
		}
		if parse(t, last[i]) < cooGM {
			better++
		}
	}
	if better > 2 {
		t.Fatalf("COO geomean beaten by %d sparse formats; paper has it fastest", better)
	}
}

func TestFig5SigmaGrowsWithDensity(t *testing.T) {
	tab, err := fig5(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(workloads.RandomDensities) {
		t.Fatalf("fig5 rows = %d", len(tab.Rows))
	}
	for _, name := range []string{"COO", "CSR", "CSC"} {
		c := colIndex(t, tab, name)
		lo := parse(t, tab.Rows[0][c])
		hi := parse(t, tab.Rows[len(tab.Rows)-1][c])
		if hi < 2*lo {
			t.Errorf("%s σ flat across density: %v → %v", name, lo, hi)
		}
	}
	// ELL stays near the dense baseline at every density.
	c := colIndex(t, tab, "ELL")
	for _, row := range tab.Rows {
		if v := parse(t, row[c]); v > 1.5 {
			t.Errorf("ELL σ = %v at density %s; should track dense", v, row[0])
		}
	}
}

func TestFig6BandTrends(t *testing.T) {
	tab, err := fig6(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(workloads.BandWidths) {
		t.Fatalf("fig6 rows = %d", len(tab.Rows))
	}
	// CSC is the worst format at the widest band (paper: up to 30×).
	cscCol := colIndex(t, tab, "CSC")
	wide := tab.Rows[len(tab.Rows)-1]
	csc := parse(t, wide[cscCol])
	for i := 1; i < len(wide); i++ {
		if i == cscCol {
			continue
		}
		if v := parse(t, wide[i]); v >= csc {
			t.Errorf("%s σ (%v) >= CSC (%v) at width 64", tab.Header[i], v, csc)
		}
	}
	if csc < 10 {
		t.Errorf("CSC σ at width 64 = %v; paper reports ~30×", csc)
	}
}

func TestFig7CoversSuitesAndSizes(t *testing.T) {
	tab, err := fig7(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(SuiteNames)*len(workloads.PartitionSizes) {
		t.Fatalf("fig7 rows = %d, want 9", len(tab.Rows))
	}
	// ELL's average σ decreases with partition size within each suite.
	c := colIndex(t, tab, "ELL")
	for s := 0; s < len(SuiteNames); s++ {
		base := s * 3
		v8 := parse(t, tab.Rows[base][c])
		v32 := parse(t, tab.Rows[base+2][c])
		if v32 > v8 {
			t.Errorf("%s: ELL σ grows with partition size (%v → %v)", SuiteNames[s], v8, v32)
		}
	}
}

func TestFig8BalanceShape(t *testing.T) {
	tab, err := fig8(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(SuiteNames)*len(workloads.PartitionSizes)*len(formats.Core()) {
		t.Fatalf("fig8 rows = %d", len(tab.Rows))
	}
	memC := colIndex(t, tab, "mem_cycles")
	compC := colIndex(t, tab, "compute_cycles")
	// Sparse formats transfer less than dense within each suite/p group.
	type key struct{ suite, p string }
	denseMem := map[key]float64{}
	for _, row := range tab.Rows {
		if row[1] == "DENSE" {
			denseMem[key{row[0], row[2]}] = parse(t, row[memC])
		}
	}
	for _, row := range tab.Rows {
		if row[1] == "DENSE" || row[0] == "Band" {
			continue // band tiles are nearly dense; skip the strict check
		}
		if m := parse(t, row[memC]); m > denseMem[key{row[0], row[2]}] {
			t.Errorf("%s/%s p=%s: sparse mem %v above dense %v",
				row[0], row[1], row[2], m, denseMem[key{row[0], row[2]}])
		}
		if c := parse(t, row[compC]); c <= 0 {
			t.Errorf("non-positive compute cycles in %v", row)
		}
	}
}

func TestFig9CurveStructure(t *testing.T) {
	tab, err := fig9(small)
	if err != nil {
		t.Fatal(err)
	}
	want := len(formats.Core()) * len(workloads.PartitionSizes) * len(workloads.RandomDensities)
	if len(tab.Rows) != want {
		t.Fatalf("fig9 rows = %d, want %d", len(tab.Rows), want)
	}
	latC := colIndex(t, tab, "latency_s")
	tpC := colIndex(t, tab, "throughput_GBps")
	for _, row := range tab.Rows {
		if parse(t, row[latC]) <= 0 || parse(t, row[tpC]) <= 0 {
			t.Fatalf("non-positive point %v", row)
		}
	}
}

func TestFig10COOConstant(t *testing.T) {
	tab, err := fig10(small)
	if err != nil {
		t.Fatal(err)
	}
	cooC := colIndex(t, tab, "COO")
	for _, row := range tab.Rows {
		v := parse(t, row[cooC])
		if v < 0.30 || v > 0.34 {
			t.Errorf("COO utilization at density %s = %v, want ~1/3", row[0], v)
		}
	}
	// Dense utilization equals the density (within partition skipping
	// effects it can exceed the global density, so only a sanity bound).
	denseC := colIndex(t, tab, "DENSE")
	last := tab.Rows[len(tab.Rows)-1]
	if v := parse(t, last[denseC]); v < 0.3 {
		t.Errorf("dense utilization at density 0.5 = %v", v)
	}
}

func TestFig11DIADiagonal(t *testing.T) {
	tab, err := fig11(small)
	if err != nil {
		t.Fatal(err)
	}
	diaC := colIndex(t, tab, "DIA")
	first := tab.Rows[0] // width 1 = diagonal matrix
	if v := parse(t, first[diaC]); v < 0.9 {
		t.Errorf("DIA utilization on diagonal = %v, want ≈1 (§6.3)", v)
	}
}

func TestFig12Bounds(t *testing.T) {
	tab, err := fig12(small)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			v := parse(t, cell)
			if v < 0 || v > 1 {
				t.Fatalf("utilization %v out of [0,1] in %v", v, row)
			}
		}
	}
}

func TestTable2Structure(t *testing.T) {
	tab, err := table2(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 { // 8 formats + device total
		t.Fatalf("table2 rows = %d", len(tab.Rows))
	}
	if tab.Rows[8][0] != "Total(device)" {
		t.Fatalf("missing device row: %v", tab.Rows[8])
	}
	// Dense and BCSR BRAM track the partition size.
	for _, row := range tab.Rows[:8] {
		if row[0] == "DENSE" || row[0] == "BCSR" {
			if row[1] != "8" || row[2] != "16" || row[3] != "32" {
				t.Errorf("%s BRAM = %v/%v/%v, want 8/16/32", row[0], row[1], row[2], row[3])
			}
		}
	}
}

func TestFig13Structure(t *testing.T) {
	tab, err := fig13(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8*3 {
		t.Fatalf("fig13 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for _, cell := range row[2:] {
			if parse(t, cell) < 0 {
				t.Fatalf("negative power in %v", row)
			}
		}
	}
}

func TestFig14Normalized(t *testing.T) {
	tab, err := fig14(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(SuiteNames)*len(formats.Core()) {
		t.Fatalf("fig14 rows = %d", len(tab.Rows))
	}
	// Every axis within a suite must span [0,1] with both extremes hit.
	for _, suite := range SuiteNames {
		for axis := 2; axis < len(tab.Header); axis++ {
			lo, hi := 2.0, -1.0
			for _, row := range tab.Rows {
				if row[0] != suite {
					continue
				}
				v := parse(t, row[axis])
				if v < 0 || v > 1 {
					t.Fatalf("fig14 %s %s = %v out of [0,1]", suite, tab.Header[axis], v)
				}
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if hi != 1 {
				t.Errorf("%s/%s: no format scored 1", suite, tab.Header[axis])
			}
		}
	}
}

func TestGenerateUnknown(t *testing.T) {
	if _, err := Generate(small, "fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestAllRuns(t *testing.T) {
	tabs, err := All(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != len(Order) {
		t.Fatalf("All produced %d tables, want %d", len(tabs), len(Order))
	}
	for i, id := range Order {
		if tabs[i].ID != id {
			t.Fatalf("table %d id = %s, want %s", i, tabs[i].ID, id)
		}
	}
}

func TestRenderAndCSV(t *testing.T) {
	tab := Table{
		ID: "x", Title: "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"33", "4"}},
		Notes:  []string{"n1"},
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "a   bb", "33  4", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,bb\n1,2\n33,4\n" {
		t.Fatalf("csv output %q", got)
	}
}

func TestSigmaOfHelper(t *testing.T) {
	rs, err := small.results("Band", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sigmaOf(rs, rs[0].Workload, rs[0].Format); !ok {
		t.Fatal("sigmaOf missed an existing result")
	}
	if _, ok := sigmaOf(rs, "nope", formats.CSR); ok {
		t.Fatal("sigmaOf found a phantom result")
	}
}

// sigmaOf extracts one workload's σ from a result set.
func sigmaOf(rs []core.Result, workload string, k formats.Kind) (float64, bool) {
	for _, r := range rs {
		if r.Workload == workload && r.Format == k {
			return r.Sigma, true
		}
	}
	return 0, false
}
