package hlsim

import (
	"copernicus/internal/formats"
	"copernicus/internal/matrix"
)

// StageTimes are one tile's scheduled intervals on the three-stage
// high-level pipeline of Fig. 2 ❶: memory read, compute (decompress +
// dot products), and memory write of the partial output vector.
type StageTimes struct {
	MemStart, MemEnd         uint64
	ComputeStart, ComputeEnd uint64
	WriteStart, WriteEnd     uint64
}

// Schedule is the event-level timeline of a full streaming run: each
// stage processes tiles in order, a tile enters a stage only after the
// previous stage finished it and the stage finished the previous tile
// (a FIFO of depth one between stages, as in Fig. 2). It refines the
// Σ max(mem, compute) approximation used by RunContext: the Makespan
// accounts for pipeline fill, drain, and writeback overlap exactly.
type Schedule struct {
	Kind  formats.Kind
	P     int
	Tiles []StageTimes
	// Makespan is the end of the last writeback.
	Makespan uint64
	cfg      Config
}

// Seconds converts the makespan to modelled wall time.
func (s *Schedule) Seconds() float64 { return s.cfg.CycleSeconds(s.Makespan) }

// writeCycles is the writeback cost of one tile: the partial output
// vector (p words) plus burst overhead on the write lane.
func (c Config) writeCycles(p int) int {
	return ceilDiv(p*matrix.BytesPerValue, c.AXIBytesPerCycle) + c.BurstOverhead
}
