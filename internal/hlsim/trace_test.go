package hlsim

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
)

func TestTraceMatchesRunTotals(t *testing.T) {
	m := gen.Random(128, 0.05, 3)
	x := make([]float64, m.Cols)
	pl := mustPlan(t, m, 16)
	for _, k := range []formats.Kind{formats.CSR, formats.Dense, formats.DIA} {
		traces, err := pl.Trace(k)
		if err != nil {
			t.Fatal(err)
		}
		run, err := pl.RunContext(context.Background(), k, x)
		if err != nil {
			t.Fatal(err)
		}
		s := Summarize(traces)
		if s.Tiles != run.NonZeroTiles {
			t.Fatalf("%v: trace tiles %d vs run %d", k, s.Tiles, run.NonZeroTiles)
		}
		if s.TotalCycles != run.PipelinedCycles {
			t.Fatalf("%v: trace cycles %d vs run %d", k, s.TotalCycles, run.PipelinedCycles)
		}
		if s.BubbleCycles != run.IdleComputeCycles+run.StallMemCycles {
			t.Fatalf("%v: trace bubbles %d vs run %d+%d", k,
				s.BubbleCycles, run.IdleComputeCycles, run.StallMemCycles)
		}
	}
}

func TestTraceBoundClassification(t *testing.T) {
	m := gen.Random(96, 0.05, 5)
	// CSC: compute-bound everywhere.
	traces, err := mustPlan(t, m, 16).Trace(formats.CSC)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		if tr.MemoryBound {
			t.Fatalf("CSC tile (%d,%d) classified memory-bound", tr.Row, tr.Col)
		}
		if tr.Pipelined != max(tr.MemCycles, tr.ComputeCycles) {
			t.Fatal("pipelined != max(stages)")
		}
		if tr.Bubble != tr.ComputeCycles-tr.MemCycles {
			t.Fatal("bubble accounting wrong for compute-bound tile")
		}
	}
	// Dense at p=32: memory-bound everywhere.
	traces, err = mustPlan(t, m, 32).Trace(formats.Dense)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		if !tr.MemoryBound {
			t.Fatalf("dense p=32 tile (%d,%d) classified compute-bound", tr.Row, tr.Col)
		}
	}
}

func TestTraceInvalidConfig(t *testing.T) {
	bad := Default()
	bad.ClockHz = 0
	if _, err := NewPlan(bad, gen.Random(16, 0.2, 1), 8); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRenderTimeline(t *testing.T) {
	m := gen.Random(64, 0.1, 7)
	traces, err := mustPlan(t, m, 16).Trace(formats.COO)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, traces, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "bubble cycles") {
		t.Fatalf("summary line missing:\n%s", out)
	}
	if strings.Count(out, "nnz=") != 5 {
		t.Fatalf("expected 5 tile lines, got %d", strings.Count(out, "nnz="))
	}
	// Unbounded view renders every tile.
	buf.Reset()
	if err := RenderTimeline(&buf, traces, 0); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "nnz=") != len(traces) {
		t.Fatal("unbounded timeline truncated")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Tiles != 0 || s.TotalCycles != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}
