package hlsim

import (
	"fmt"

	"copernicus/internal/formats"
)

// directComputeCycles models the alternative architecture class of the
// paper's §7 related work (EIE, SpArch, SIGMA, Tensaurus): accelerators
// that consume compressed operands *directly*, issuing one
// multiply-accumulate per stored element instead of reconstructing dense
// rows for a fixed-width dot engine. The paper notes these designs must
// still reconstruct each non-zero's location; that reconstruction is
// exactly the per-format overhead that remains here.
//
// The most instructive difference from the decompress-then-dot pipeline
// is CSC: a column-major stream is *natural* for direct scatter-
// accumulate (y[row] += v·x[col] while streaming a column), so the
// orientation mismatch that makes CSC catastrophic in the paper's
// architecture disappears — the ext6 artifact quantifies how much of a
// format's cost is the format and how much is the format/architecture
// pairing, which is §8's co-design insight.
func (c Config) directComputeCycles(enc formats.Encoded) (int, error) {
	s := enc.Stats()
	p := enc.P()
	// accumDrain is the adder pipeline drain charged once per emitted
	// output row group.
	accumDrain := c.AddLatency * log2ceil(max(2, p))
	switch enc.Kind() {
	case formats.Dense:
		// Nothing to gain: the dense stream feeds the dot engine as is.
		return s.DotRows * c.DotLatency(p), nil

	case formats.CSR:
		// Offsets walk per non-zero row, then one MAC per element with
		// the gathered x[col]; accumulate drains per row.
		return s.NonZeroRows*(c.BRAMReadLatency+accumDrain) + s.NNZ, nil

	case formats.CSC:
		// Stream columns in order: load x[col] once per column, then
		// scatter-accumulate one MAC per element into the output buffer.
		return p*c.BRAMReadLatency + s.NNZ, nil

	case formats.BCSR:
		// One issue slot per block (b MACs in parallel across the
		// partitioned banks), offsets walk per block row.
		return s.BlockRows*(c.BRAMReadLatency+accumDrain) + s.Blocks*formats.BCSRBlock, nil

	case formats.COO, formats.DOK:
		// One MAC per tuple; a row switch drains the accumulator.
		return s.NNZ*c.IICOO + s.NonZeroRows*accumDrain, nil

	case formats.LIL:
		// Parallel column heads feed up to p MACs per emitted row.
		return s.NonZeroRows * (c.BRAMReadLatency + c.CLILBase + accumDrain), nil

	case formats.ELL, formats.SELL, formats.ELLCOO, formats.JDS, formats.SELLCS:
		// The rectangle rows issue W-wide MAC groups; padding still
		// occupies slots, so every row costs one group.
		return s.DotRows + s.NonZeroRows*accumDrain, nil

	case formats.DIA:
		// Each stored diagonal is a vector MAC against a shifted x.
		return s.Diagonals*(c.BRAMReadLatency+p/4) + accumDrain, nil

	default:
		return 0, fmt.Errorf("%w: directComputeCycles for kind %v", ErrUnknownFormat, enc.Kind())
	}
}

// SigmaDirect is Eq. (1) evaluated for the direct architecture: direct
// compute cycles normalized by the dense baseline's dot latency.
func (c Config) SigmaDirect(enc formats.Encoded) (float64, error) {
	p := enc.P()
	d, err := c.directComputeCycles(enc)
	if err != nil {
		return 0, err
	}
	return float64(d) / float64(p*c.DotLatency(p)), nil
}
