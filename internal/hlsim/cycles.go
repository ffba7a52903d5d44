package hlsim

import (
	"errors"
	"fmt"

	"copernicus/internal/formats"
)

// ErrUnknownFormat is wrapped by every cycle-model error arising from a
// format Kind the model has no equations for. It reaches callers through
// Plan, Characterize and Sweep instead of a panic, so a service front-end
// can map it to a client error rather than losing the goroutine.
var ErrUnknownFormat = errors.New("hlsim: unknown format kind")

// decompCycles returns T_decomp of Eq. (1) for one encoded tile whose
// Stats s the caller has already taken: the cycle cost of the decompress
// stage (Fig. 2 ❷), derived from the HLS structure of each format's
// Listing. A Kind outside the modelled set returns an error wrapping
// ErrUnknownFormat.
func (c Config) decompCycles(enc formats.Encoded, s formats.Stats) (int, error) {
	p := enc.P()
	switch enc.Kind() {
	case formats.Dense:
		// No decompression: values stream straight into the dot engine.
		return 0, nil

	case formats.CSR:
		// Listing 1: per non-zero row, one dependent offsets read, then a
		// pipelined walk of colInx/values whose sequential BRAM accesses
		// force II=2; one pipeline fill per row (rows are dependent
		// through oldInx).
		return s.NonZeroRows*(c.BRAMReadLatency+c.PipeDepth) + s.NNZ*c.IICSR, nil

	case formats.BCSR:
		// Listing 2: per non-zero block row, one offsets read, then one
		// issue slot per block — the 16-wide inner loop is fully unrolled
		// over dim-2-partitioned BRAM.
		return s.BlockRows*(c.BRAMReadLatency+c.PipeDepth) + s.Blocks, nil

	case formats.CSC:
		// Listing 3: for each of the p output rows the decompressor walks
		// the column lists until the row's entries are found (break on
		// match, CSCScanFrac of the stream on average) and hops p column
		// offsets, each a dependent BRAM read. The orientation mismatch
		// makes this the most expensive decompressor by far.
		scan := int(float64(s.NNZ)*c.CSCScanFrac + 0.5)
		return p * (scan + p*c.BRAMReadLatency + c.PipeDepth), nil

	case formats.COO:
		// Listing 6: one pipelined pass over the tuple stream (sentinel
		// included), plus a row-switch slot per emitted row. The tuple
		// vector cannot be BRAM-partitioned (row occupancy is unknown in
		// advance), so the loop pipelines instead of unrolling. All-zero
		// partitions are never transferred (§4.1), so they cost nothing.
		if s.NNZ == 0 {
			return 0, nil
		}
		return (s.NNZ+1)*c.IICOO + s.NonZeroRows + c.PipeDepth, nil

	case formats.DOK:
		// Same procedure as COO (§5.2), but the scan covers the whole
		// hash table including empty slots.
		if s.NNZ == 0 {
			return 0, nil
		}
		return s.Width*c.IICOO + s.NonZeroRows + c.PipeDepth, nil

	case formats.LIL:
		// Listing 4: per non-zero row, one parallel BRAM access across
		// the column-partitioned lists plus the min-comparator tree
		// (log2 p) and gather logic; one extra access detects the end of
		// the lists.
		if s.NNZ == 0 {
			return 0, nil
		}
		perRow := c.BRAMReadLatency + c.CLILBase + log2ceil(p)
		return s.NonZeroRows*perRow + c.BRAMReadLatency, nil

	case formats.ELL:
		// Listing 5: a fully unrolled gather per row over the partitioned
		// rectangle — constant cost, but charged for every row since
		// all-zero rows cannot be skipped.
		return p * c.CELL, nil

	case formats.DIA:
		// Listing 7: per row, a pipelined scan over every stored
		// diagonal; rows are produced in order so all p rows scan.
		return p * (s.Diagonals*c.IIDIA + c.PipeDepth), nil

	case formats.SELL:
		// ELL per slice plus a width-register load per slice.
		return p*c.CELL + s.Slices, nil

	case formats.ELLCOO:
		// The capped rectangle decompresses like ELL; the spill list
		// (Slices carries its length) streams like COO.
		return p*c.CELL + (s.Slices+1)*c.IICOO + c.PipeDepth, nil

	case formats.SELLCS:
		// SELL decompression plus one permutation indirection per row to
		// place the output.
		return p*c.CELL + s.Slices + p*c.BRAMReadLatency, nil

	case formats.JDS:
		// Per jagged diagonal, one pipelined pass over its entries; the
		// permutation adds one BRAM-resident indirection per emitted row.
		return s.NNZ*c.IICOO + s.Slices*c.PipeDepth + s.NonZeroRows*c.BRAMReadLatency, nil

	default:
		return 0, fmt.Errorf("%w: decompCycles for kind %v", ErrUnknownFormat, enc.Kind())
	}
}

// memCycles returns the memory-stage latency for one tile of footprint
// f: the longer of the two AXI streamlines plus the fixed burst overhead
// (or the serial sum when SingleStreamline is set).
func (c Config) memCycles(f formats.Footprint) int {
	v := ceilDiv(f.ValueLaneBytes, c.AXIBytesPerCycle)
	i := ceilDiv(f.IndexLaneBytes, c.AXIBytesPerCycle)
	if c.SingleStreamline {
		return v + i + c.BurstOverhead
	}
	return max(v, i) + c.BurstOverhead
}

// Sigma returns the per-tile decompression latency overhead of Eq. (1):
// (T_decomp + nnz_rows·T_dot) / (p·T_dot). Dense yields exactly 1.
func (c Config) Sigma(enc formats.Encoded) (float64, error) {
	p := enc.P()
	td := c.DotLatency(p)
	s := enc.Stats()
	d, err := c.decompCycles(enc, s)
	if err != nil {
		return 0, err
	}
	return float64(d+s.DotRows*td) / float64(p*td), nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
