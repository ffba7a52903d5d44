package copernicus_test

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"copernicus"
)

func TestQuickstartPath(t *testing.T) {
	m := copernicus.Random(128, 0.05, 42)
	res, err := copernicus.Characterize(m, copernicus.COO, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sigma <= 0 || res.ThroughputBps <= 0 {
		t.Fatalf("bad result %+v", res)
	}
}

func TestBuilderFacade(t *testing.T) {
	b := copernicus.NewBuilder(3, 3)
	b.Add(0, 0, 1)
	b.Add(2, 1, 4)
	m := b.Build()
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
}

func TestSpMVMatchesReference(t *testing.T) {
	m := copernicus.Stencil2D(12, 12, 7)
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	want := m.MulVec(x)
	for _, f := range copernicus.AllFormats() {
		y, err := copernicus.SpMV(m, x, f, 8)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		for i := range want {
			if math.Abs(y[i]-want[i]) > 1e-9 {
				t.Fatalf("%v: y[%d] = %v, want %v", f, i, y[i], want[i])
			}
		}
	}
}

func TestFormatLists(t *testing.T) {
	if len(copernicus.CoreFormats()) != 8 || len(copernicus.SparseFormats()) != 7 {
		t.Fatal("format list sizes wrong")
	}
	if len(copernicus.AllFormats()) != 13 {
		t.Fatalf("all formats = %d, want 13", len(copernicus.AllFormats()))
	}
}

func TestEncodeDecodeFacade(t *testing.T) {
	m := copernicus.Band(16, 4, 3)
	enc := copernicus.Encode(copernicus.DIA, firstTile(t, m, 16))
	dec, err := copernicus.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.NNZ() == 0 {
		t.Fatal("decoded tile empty")
	}
}

func firstTile(t *testing.T, m *copernicus.Matrix, p int) *copernicus.Tile {
	t.Helper()
	tile := copernicus.NewTileFromMatrix(m, 0, 0, p)
	if tile == nil {
		t.Fatal("no tile")
	}
	return tile
}

func TestRecommendFacade(t *testing.T) {
	m := copernicus.ScaleFreeGraph(256, 4, 9)
	rec, err := copernicus.NewEngine().Recommend(m, 16, nil, copernicus.LatencyObjective())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Format == copernicus.CSC {
		t.Fatal("advisor picked CSC")
	}
}

func TestStaticAdviceFacade(t *testing.T) {
	m := copernicus.Band(256, 8, 1)
	f, alts, why := copernicus.StaticAdvice(copernicus.Classify(m))
	if f != copernicus.ELL || len(alts) == 0 || why == "" {
		t.Fatalf("band advice: %v %v %q", f, alts, why)
	}
}

func TestExperimentFacade(t *testing.T) {
	o := copernicus.NewSmallReportOptions()
	ids := copernicus.Experiments()
	if len(ids) != 13 {
		t.Fatalf("experiments = %d, want 13 (Figs. 3-14 + Table 2)", len(ids))
	}
	tab, err := copernicus.RunExperiment(o, "table2")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestWorkloadFacade(t *testing.T) {
	c := copernicus.WorkloadConfig{Scale: 256, RandomDim: 256, BandDim: 256}
	if got := len(copernicus.SuiteSparseWorkloads(c)); got != 20 {
		t.Fatalf("suitesparse = %d", got)
	}
	if got := len(copernicus.RandomWorkloads(c)); got != 5 {
		t.Fatalf("random = %d", got)
	}
	if got := len(copernicus.BandWorkloads(c)); got != 7 {
		t.Fatalf("band = %d", got)
	}
	ps := copernicus.PartitionSizes()
	if len(ps) != 3 || ps[0] != 8 {
		t.Fatalf("partition sizes %v", ps)
	}
}

func TestStatsFacade(t *testing.T) {
	m := copernicus.Diagonal(64, 2)
	s := copernicus.Stats(m, 8)
	if s.NonZeroRowFrac != 1 {
		t.Fatalf("diagonal nzrow frac %v", s.NonZeroRowFrac)
	}
}

func TestSynthesisFacade(t *testing.T) {
	r := copernicus.EstimateSynthesis(copernicus.Dense, 16)
	if r.BRAM18K != 16 {
		t.Fatalf("dense BRAM@16 = %d", r.BRAM18K)
	}
}

func TestMatrixMarketFacade(t *testing.T) {
	m := copernicus.Circuit(120, 5)
	var buf bytes.Buffer
	if err := copernicus.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := copernicus.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != m.NNZ() {
		t.Fatalf("round trip nnz %d vs %d", back.NNZ(), m.NNZ())
	}

	path := filepath.Join(t.TempDir(), "m.mtx")
	if err := copernicus.SaveMatrixMarket(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := copernicus.LoadMatrixMarket(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NNZ() != m.NNZ() {
		t.Fatal("file round trip lost entries")
	}
	if _, err := copernicus.LoadMatrixMarket("/nonexistent.mtx"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSpMVParallelFacade(t *testing.T) {
	m := copernicus.Random(128, 0.05, 31)
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = float64(i % 3)
	}
	want := m.MulVec(x)
	r, err := copernicus.SpMVParallel(m, x, copernicus.COO, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Lanes != 4 || len(r.LaneCycles) != 4 {
		t.Fatalf("lanes %d/%d", r.Lanes, len(r.LaneCycles))
	}
	for i := range want {
		if math.Abs(r.Y[i]-want[i]) > 1e-9 {
			t.Fatalf("y[%d] mismatch", i)
		}
	}
	if e := r.Efficiency(); e <= 0 || e > 1 {
		t.Fatalf("efficiency %v", e)
	}
}

// TestOneShotHelpersMatchPlan: SpMV, SpMVParallel, SpMM, BuildSchedule
// and TraceSpMV each equal the matching StreamPlan method bit for bit —
// output values, cycle totals and per-tile records — in every format.
func TestOneShotHelpersMatchPlan(t *testing.T) {
	m := copernicus.Random(96, 0.08, 37)
	const p, lanes, cols = 16, 3, 2
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = float64(i%7) - 3.25
	}
	b := make([]float64, m.Cols*cols)
	for i := range b {
		b[i] = float64(i%5) - 1.5
	}
	pl, err := copernicus.NewStreamPlan(m, p)
	if err != nil {
		t.Fatal(err)
	}
	sameBits := func(f copernicus.Format, what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%v %s: %d values, plan gives %d", f, what, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v %s: y[%d] = %v, plan gives %v", f, what, i, got[i], want[i])
			}
		}
	}
	same := func(f copernicus.Format, what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v %s: one-shot %+v, plan %+v", f, what, got, want)
		}
	}
	for _, f := range copernicus.AllFormats() {
		y, err := copernicus.SpMV(m, x, f, p)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		run, err := pl.RunContext(context.Background(), f, x)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		sameBits(f, "SpMV", y, run.Y)

		par, err := copernicus.SpMVParallel(m, x, f, p, lanes)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		planPar, err := pl.RunParallel(f, x, lanes)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		sameBits(f, "SpMVParallel", par.Y, planPar.Y)
		same(f, "SpMVParallel", par, planPar)

		mm, err := copernicus.SpMM(m, b, cols, f, p)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		planMM, err := pl.RunSpMM(f, b, cols)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		sameBits(f, "SpMM", mm.Y, planMM.Y)
		same(f, "SpMM", mm, planMM)

		sc, err := copernicus.BuildSchedule(m, f, p)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		planSc, err := pl.Schedule(f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		same(f, "BuildSchedule", sc, planSc)

		tr, err := copernicus.TraceSpMV(m, f, p)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		planTr, err := pl.Trace(f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		same(f, "TraceSpMV", tr, planTr)
	}
}

func TestTraceFacade(t *testing.T) {
	m := copernicus.Band(96, 8, 33)
	traces, err := copernicus.TraceSpMV(m, copernicus.DIA, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("empty trace")
	}
	s := copernicus.SummarizeTrace(traces)
	if s.Tiles != len(traces) || s.TotalCycles == 0 {
		t.Fatalf("summary %+v", s)
	}
	var buf bytes.Buffer
	if err := copernicus.RenderTimeline(&buf, traces, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bubble cycles") {
		t.Fatal("timeline missing summary")
	}
}

func TestRankDesignFacade(t *testing.T) {
	m := copernicus.PrunedWeights(96, 96, 0.2, 35)
	ws := []copernicus.Workload{{ID: "advisor", M: m}}
	rs, err := copernicus.NewEngine().SweepKernelsWith(context.Background(), nil, ws,
		[]copernicus.KernelSpec{copernicus.DefaultKernel()}, copernicus.SparseFormats(), []int{8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := copernicus.Rank(rs, copernicus.BalancedObjective())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Results) != 21 { // 7 sparse formats × 3 partition sizes
		t.Fatalf("points = %d", len(rec.Results))
	}
	if rec.Format == copernicus.CSC || rec.Results[0].Format == copernicus.CSC {
		t.Fatal("CSC won")
	}
}

func TestExtExperimentsFacade(t *testing.T) {
	ids := copernicus.ExtExperiments()
	if len(ids) != 9 { // ext1..ext7, the ext8 rank-agreement table, the ext9 kernel flip table
		t.Fatalf("ext experiments = %d", len(ids))
	}
	tab, err := copernicus.RunExperiment(copernicus.NewSmallReportOptions(), ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("empty ext table")
	}
}
