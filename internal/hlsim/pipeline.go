package hlsim

import "copernicus/internal/formats"

// tileResult records the modelled cost of streaming and processing one
// compressed partition.
type tileResult struct {
	MemCycles     int
	DecompCycles  int
	ComputeCycles int
	DotRows       int
	Footprint     formats.Footprint
}

// Result aggregates a full SpMV run of one matrix in one format at one
// partition size, carrying both the functional output vector and the
// modelled performance totals.
type Result struct {
	Kind formats.Kind
	P    int

	// Y is the SpMV output computed through the modelled pipeline
	// (decompress → dot product); tests verify it equals the software
	// reference.
	Y []float64

	NonZeroTiles int
	TotalTiles   int

	// Cycle totals across non-zero tiles. PipelinedCycles accumulates
	// max(mem, compute) per tile — the high-level pipeline overlaps the
	// stages, so the slower one defines each partition's contribution.
	MemCycles       uint64
	ComputeCycles   uint64
	DecompCycles    uint64
	PipelinedCycles uint64

	DotRows   uint64
	NNZ       uint64
	Footprint formats.Footprint

	// Bubble accounting (§4.2: imbalanced streaming "leads to idle
	// computation or pauses in data transfer"): per tile, the faster
	// stage waits for the slower one. IdleComputeCycles accumulates the
	// compute engine's wait when a tile is memory-bound; StallMemCycles
	// accumulates the stream's pause when it is compute-bound.
	IdleComputeCycles uint64
	StallMemCycles    uint64

	sumBalance float64
	cfg        Config
}

// Sigma returns the aggregate decompression latency overhead: Eq. (1)
// evaluated over all non-zero tiles (total decompression plus total dot
// latency, normalized by the dense-format compute latency of the same
// tiles). Dense returns exactly 1.
func (r *Result) Sigma() float64 {
	if r.NonZeroTiles == 0 {
		return 1
	}
	td := uint64(r.cfg.DotLatency(r.P))
	denom := uint64(r.NonZeroTiles) * uint64(r.P) * td
	return float64(r.DecompCycles+r.DotRows*td) / float64(denom)
}

// BalanceRatio returns the average memory/compute ratio over non-zero
// tiles (§4.2; 1 is perfectly balanced).
func (r *Result) BalanceRatio() float64 {
	if r.NonZeroTiles == 0 {
		return 1
	}
	return r.sumBalance / float64(r.NonZeroTiles)
}

// Seconds returns the modelled wall time of the run.
func (r *Result) Seconds() float64 { return r.cfg.CycleSeconds(r.PipelinedCycles) }

// Throughput returns processed bytes (data plus metadata) per second —
// the §4.2 throughput metric, which reflects pipeline bubbles caused by
// imbalance.
func (r *Result) Throughput() float64 {
	s := r.Seconds()
	if s == 0 {
		return 0
	}
	return float64(r.Footprint.TotalBytes()) / s
}

// BandwidthUtilization returns useful bytes over all transmitted bytes.
func (r *Result) BandwidthUtilization() float64 { return r.Footprint.Utilization() }

// MeanMemCycles returns the average per-tile memory latency (Fig. 8 x
// axis).
func (r *Result) MeanMemCycles() float64 {
	if r.NonZeroTiles == 0 {
		return 0
	}
	return float64(r.MemCycles) / float64(r.NonZeroTiles)
}

// MeanComputeCycles returns the average per-tile compute latency (Fig. 8
// y axis).
func (r *Result) MeanComputeCycles() float64 {
	if r.NonZeroTiles == 0 {
		return 0
	}
	return float64(r.ComputeCycles) / float64(r.NonZeroTiles)
}

// DotEngineUtilization returns the fraction of the p-wide dot-product
// engine's multiplier slots that carried real non-zeros, over all
// performed dot products. §5.1: "the partition density and, more
// specifically the row density, defines the computation utilization of
// the dot-product engine at run time."
func (r *Result) DotEngineUtilization() float64 {
	if r.DotRows == 0 {
		return 0
	}
	return float64(r.NNZ) / float64(r.DotRows*uint64(r.P))
}

// InnerPipelineUtilization returns the fraction of partition rows that
// actually occupied the decompress→dot inner pipeline. §5.1: "the
// number of non-zero rows in the partitions determines the utilization
// of the inner pipeline."
func (r *Result) InnerPipelineUtilization() float64 {
	if r.NonZeroTiles == 0 {
		return 0
	}
	return float64(r.DotRows) / float64(uint64(r.NonZeroTiles)*uint64(r.P))
}

// runTile models one encoded tile without touching vectors and also
// returns enc's Stats: it takes them and the Footprint once and runs the
// decompression model once for the tile. A format the cycle model has no
// equations for returns an error wrapping ErrUnknownFormat instead of
// panicking.
func runTile(cfg Config, enc formats.Encoded) (tileResult, formats.Stats, error) {
	s := enc.Stats()
	dec, err := cfg.decompCycles(enc, s)
	if err != nil {
		return tileResult{}, s, err
	}
	f := enc.Footprint()
	return tileResult{
		MemCycles:     cfg.memCycles(f),
		DecompCycles:  dec,
		ComputeCycles: dec + s.DotRows*cfg.DotLatency(enc.P()),
		DotRows:       s.DotRows,
		Footprint:     f,
	}, s, nil
}
