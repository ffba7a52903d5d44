package hlsim

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
)

func TestScheduleInvariants(t *testing.T) {
	pl := mustPlan(t, gen.Random(128, 0.05, 3), 16)
	for _, k := range formats.Core() {
		s, err := pl.Schedule(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
}

// TestScheduleBoundsVsApproximation: the exact makespan must be at
// least the bottleneck stage's total work and at most the serialized
// sum of all stages.
func TestScheduleBoundsVsApproximation(t *testing.T) {
	cfg := Default()
	check := func(seed uint64) bool {
		m := gen.Random(96, 0.08, seed)
		x := make([]float64, m.Cols)
		pl := mustPlan(t, m, 16)
		for _, k := range []formats.Kind{formats.CSR, formats.Dense, formats.CSC} {
			s, err := pl.Schedule(k)
			if err != nil {
				return false
			}
			run, err := pl.RunContext(context.Background(), k, x)
			if err != nil {
				return false
			}
			wb := uint64(run.NonZeroTiles * cfg.writeCycles(16))
			lower := max(run.MemCycles, run.ComputeCycles)
			if wb > lower {
				lower = wb
			}
			upper := run.MemCycles + run.ComputeCycles + wb
			if s.Makespan < lower || s.Makespan > upper {
				t.Logf("%v: makespan %d outside [%d, %d]", k, s.Makespan, lower, upper)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulePipeliningHelps: the pipelined makespan beats fully
// serialized execution on any multi-tile run.
func TestSchedulePipeliningHelps(t *testing.T) {
	m := gen.Random(256, 0.05, 7)
	s, err := mustPlan(t, m, 16).Schedule(formats.CSR)
	if err != nil {
		t.Fatal(err)
	}
	var serial uint64
	for _, tile := range s.Tiles {
		serial += (tile.MemEnd - tile.MemStart) +
			(tile.ComputeEnd - tile.ComputeStart) +
			(tile.WriteEnd - tile.WriteStart)
	}
	if s.Makespan >= serial {
		t.Fatalf("pipelining gained nothing: makespan %d vs serial %d", s.Makespan, serial)
	}
}

// TestScheduleBottleneckStageSaturated: for a strongly compute-bound
// format the compute stage utilization approaches 1.
func TestScheduleBottleneckStageSaturated(t *testing.T) {
	m := gen.Random(256, 0.1, 9)
	s, err := mustPlan(t, m, 16).Schedule(formats.CSC)
	if err != nil {
		t.Fatal(err)
	}
	_, compute, _ := stageUtilization(s)
	if compute < 0.95 {
		t.Fatalf("CSC compute utilization %.3f, want ≈1 (bottleneck stage)", compute)
	}
	// Dense at p=32 is memory-bound: the memory stage saturates instead.
	s, err = mustPlan(t, m, 32).Schedule(formats.Dense)
	if err != nil {
		t.Fatal(err)
	}
	mem, _, _ := stageUtilization(s)
	if mem < 0.9 {
		t.Fatalf("dense p=32 memory utilization %.3f, want ≈1", mem)
	}
}

func TestScheduleEmptyMatrix(t *testing.T) {
	s, err := mustPlan(t, gen.Random(64, 0, 1), 16).Schedule(formats.COO)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 0 || len(s.Tiles) != 0 {
		t.Fatalf("empty matrix schedule %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleRejectsInvalidConfig(t *testing.T) {
	bad := Default()
	bad.AXIBytesPerCycle = 0
	if _, err := NewPlan(bad, gen.Random(16, 0.2, 1), 8); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// stageUtilization returns the busy fraction of each stage over the
// makespan.
func stageUtilization(s *Schedule) (mem, compute, write float64) {
	if s.Makespan == 0 {
		return 0, 0, 0
	}
	var m, c, w uint64
	for _, t := range s.Tiles {
		m += t.MemEnd - t.MemStart
		c += t.ComputeEnd - t.ComputeStart
		w += t.WriteEnd - t.WriteStart
	}
	span := float64(s.Makespan)
	return float64(m) / span, float64(c) / span, float64(w) / span
}

// Validate checks the schedule's structural invariants: stage intervals
// are well-formed, per-stage processing is serial and in order, and
// every tile flows strictly forward through the pipeline.
func (s *Schedule) Validate() error {
	var memFree, compFree, writeFree uint64
	for i, t := range s.Tiles {
		if t.MemEnd < t.MemStart || t.ComputeEnd < t.ComputeStart || t.WriteEnd < t.WriteStart {
			return fmt.Errorf("hlsim: tile %d has a negative interval", i)
		}
		if t.MemStart < memFree || t.ComputeStart < compFree || t.WriteStart < writeFree {
			return fmt.Errorf("hlsim: tile %d overlaps its predecessor on a stage", i)
		}
		if t.ComputeStart < t.MemEnd || t.WriteStart < t.ComputeEnd {
			return fmt.Errorf("hlsim: tile %d enters a stage before leaving the previous", i)
		}
		memFree, compFree, writeFree = t.MemEnd, t.ComputeEnd, t.WriteEnd
	}
	if len(s.Tiles) > 0 && s.Makespan != s.Tiles[len(s.Tiles)-1].WriteEnd {
		return fmt.Errorf("hlsim: makespan %d does not match final writeback", s.Makespan)
	}
	return nil
}
