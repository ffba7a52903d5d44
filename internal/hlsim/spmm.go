package hlsim

import "copernicus/internal/formats"

// SpMMResult models sparse-matrix × dense-matrix multiplication on the
// same pipeline (§3.3: ML workloads use SpMV or SpMM on one dot-product
// engine). Each tile is decompressed once and its reconstructed rows
// feed one dot product per operand column, so T_decomp amortizes over
// the columns — the structural reason batched inference tolerates
// compute-heavy formats better than single-vector SpMV.
type SpMMResult struct {
	Kind    formats.Kind
	P       int
	Columns int

	// Y is the m.Rows × Columns product, row-major. The operand matrix
	// is treated as resident, like RunContext's x vector.
	Y []float64

	NonZeroTiles    int
	MemCycles       uint64
	ComputeCycles   uint64
	DecompCycles    uint64
	PipelinedCycles uint64

	cfg Config
}

// Seconds returns the modelled wall time.
func (r *SpMMResult) Seconds() float64 { return r.cfg.CycleSeconds(r.PipelinedCycles) }
