package hlsim

import "copernicus/internal/formats"

// ParallelResult models the coarse-grained parallelism of §5.1:
// independent instances of the Fig. 2 pipeline process disjoint subsets
// of the non-zero partitions, and the matrix finishes when the last lane
// drains.
type ParallelResult struct {
	Kind  formats.Kind
	P     int
	Lanes int

	// Y is the functional SpMV output (lane-order independent: partial
	// outputs accumulate per row).
	Y []float64

	// LaneCycles is each instance's pipelined cycle total; TotalCycles
	// is the slowest lane.
	LaneCycles  []uint64
	TotalCycles uint64

	NonZeroTiles int
	cfg          Config
}

// Seconds returns the modelled wall time of the parallel run.
func (r *ParallelResult) Seconds() float64 { return r.cfg.CycleSeconds(r.TotalCycles) }

// Efficiency returns the parallel efficiency: ideal lane time over the
// slowest lane (1 = perfect load balance).
func (r *ParallelResult) Efficiency() float64 {
	if r.TotalCycles == 0 {
		return 1
	}
	var sum uint64
	for _, c := range r.LaneCycles {
		sum += c
	}
	ideal := float64(sum) / float64(r.Lanes)
	return ideal / float64(r.TotalCycles)
}
