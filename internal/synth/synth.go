// Package synth estimates FPGA resource utilization and power for the
// modelled accelerator, standing in for the Vivado synthesis and
// implementation reports behind Table 2 and Fig. 13 of the paper.
//
// The estimator is analytic, not a synthesis tool: it derives BRAM_18K
// banks from each format's worst-case on-chip array allocation and HLS
// array-partition pragmas (small array slices fall back to flip-flop
// implementation, reproducing the paper's observation that small ELL
// partitions buffer in FFs); FF and LUT counts from pipeline registers,
// FF-implemented arrays, comparators, and unrolled datapath width; and
// dynamic power from per-component activity (logic, BRAM, signals, clock)
// in the style of a post-implementation power report.
//
// Absolute numbers are calibration-level approximations of Table 2; the
// trends the paper draws conclusions from — which formats bank like the
// dense design, where the FF/BRAM buffering crossover sits, which formats
// burn power in signals versus BRAM — are structural outputs of the
// model. EXPERIMENTS.md records estimate-versus-paper for every cell.
package synth

import (
	"fmt"
	"math/bits"

	"copernicus/internal/formats"
)

// Device constants for the xq7z020 target.
const (
	bramBits = 18 * 1024 // one BRAM_18K bank
	// ffSliceThresholdBits is the array-slice size below which HLS
	// implements the storage in flip-flops instead of a BRAM bank.
	ffSliceThresholdBits = 256
	wordBits             = 32
)

// Report is the synthesis estimate for one decompressor variant at one
// partition size, covering the whole Fig. 2 design (buffers, decompressor,
// dot engine, AXIS plumbing).
type Report struct {
	Format formats.Kind
	P      int

	BRAM18K int
	FF      int
	LUT     int

	// Dynamic power breakdown in milliwatts (Fig. 13) plus the clock
	// tree; DynamicW is their sum in watts (Table 2's "DY Power").
	LogicMW   float64
	BRAMMW    float64
	SignalsMW float64
	ClockMW   float64
	DynamicW  float64

	// StaticW is the device leakage attributed to the design (§6.4
	// reports two classes: 0.121 W and 0.103 W).
	StaticW float64
}

// array describes one on-chip buffer of a decompressor: its worst-case
// word count (the §2 footnote: on-chip allocation is sized for the worst
// case even though it rarely occurs), and the HLS partition factor.
// ffThresholdBits overrides the default register-inference threshold for
// arrays whose every element feeds combinational logic simultaneously
// (fully unrolled consumers and address generators), which HLS keeps in
// registers at larger sizes than streamed buffers.
type array struct {
	words           int
	partition       int
	ffThresholdBits int
}

// bankAndFF returns the BRAM banks and FF bits the array synthesizes to.
func (a array) bankAndFF() (banks, ffBits int) {
	if a.words == 0 {
		return 0, 0
	}
	threshold := a.ffThresholdBits
	if threshold == 0 {
		threshold = ffSliceThresholdBits
	}
	sliceWords := (a.words + a.partition - 1) / a.partition
	sliceBits := sliceWords * wordBits
	if sliceBits < threshold {
		return 0, a.words * wordBits
	}
	perSlice := (sliceBits + bramBits - 1) / bramBits
	return a.partition * perSlice, 0
}

// maxArrays is the most on-chip buffers any decompressor declares
// (ELL+COO: the two ELL rectangles and three spill-tuple vectors).
const maxArrays = 5

// arrays appends the on-chip buffers of format k's decompressor to dst and
// returns the extended slice, as declared by the paper's listings
// (worst-case lengths from §2). It appends at most maxArrays, so a caller
// that passes a buffer of that capacity allocates nothing.
func arrays(dst []array, k formats.Kind, p int) []array {
	b := formats.BCSRBlock
	switch k {
	case formats.Dense:
		// Row-partitioned input buffer: each row in its own bank so the
		// dot engine reads a full row per cycle.
		return append(dst, array{words: p * p, partition: p})
	case formats.CSR:
		// Sequential arrays; unknown access order forbids partitioning
		// (§5.2), so colInx and values each occupy monolithic banks.
		return append(dst,
			array{words: p, partition: 1},     // offsets
			array{words: p * p, partition: 1}, // colInx
			array{words: p * p, partition: 1}, // values
		)
	case formats.CSC:
		return append(dst,
			array{words: p, partition: 1},
			array{words: p * p, partition: 1}, // rowInx
			array{words: p * p, partition: 1},
		)
	case formats.BCSR:
		// values/colInx partitioned across dim 2 (Listing 2): the block
		// rows stripe across p banks like the dense buffer. The small
		// offset/index arrays feed address generation and stay in
		// registers.
		return append(dst,
			array{words: p / b, partition: 1, ffThresholdBits: 4096},
			array{words: (p / b) * (p / b), partition: 1, ffThresholdBits: 4096}, // colInx
			array{words: p * p, partition: p},                                    // values
		)
	case formats.COO:
		// Three tuple component vectors, sequential access only.
		return append(dst,
			array{words: p*p + 1, partition: 1}, // rows
			array{words: p*p + 1, partition: 1}, // cols
			array{words: p*p + 1, partition: 1}, // values
		)
	case formats.DOK:
		// Hash table sized 2× worst-case nnz: keys and values.
		return append(dst,
			array{words: 2 * p * p, partition: 1},
			array{words: 2 * p * p, partition: 1},
		)
	case formats.LIL:
		// Column lists partitioned cyclically (factor 2 per array keeps
		// the min-tree fed while bounding banking).
		return append(dst,
			array{words: p * (p + 1), partition: 2}, // Inx, terminator row included
			array{words: p * (p + 1), partition: 2}, // values
		)
	case formats.ELL:
		// Rectangles allocated at the fixed ELLWidth, partitioned across
		// dim 2 for the fully unrolled gather; the unrolled consumer
		// keeps shallow slices in registers (the p=8 FF buffering the
		// paper observes).
		return append(dst,
			array{words: p * formats.ELLWidth, partition: formats.ELLWidth, ffThresholdBits: 512},
			array{words: p * formats.ELLWidth, partition: formats.ELLWidth, ffThresholdBits: 512},
		)
	case formats.DIA:
		// Worst case 2p-1 diagonals of p+1 slots each, partitioned by a
		// modest factor so several diagonals scan per cycle.
		return append(dst, array{words: (2*p - 1) * (p + 1), partition: 3})
	case formats.SELL:
		return append(dst,
			array{words: p * formats.ELLWidth, partition: formats.ELLWidth},
			array{words: p * formats.ELLWidth, partition: formats.ELLWidth},
			array{words: p / formats.SELLSlice, partition: 1}, // widths
		)
	case formats.ELLCOO:
		return append(arrays(dst, formats.ELL, p),
			array{words: p*p/2 + 1, partition: 1}, // spill tuples
			array{words: p*p/2 + 1, partition: 1},
			array{words: p*p/2 + 1, partition: 1})
	case formats.JDS:
		return append(dst,
			array{words: p, partition: 1},     // perm
			array{words: p + 1, partition: 1}, // ptr
			array{words: p * p, partition: 1}, // idx
			array{words: p * p, partition: 1}, // values
		)
	case formats.SELLCS:
		return append(arrays(dst, formats.SELL, p),
			array{words: p, partition: 1}) // perm
	default:
		panic(fmt.Sprintf("synth: arrays for unknown kind %v", k))
	}
}

// logicProfile returns per-format datapath characteristics that drive the
// FF/LUT and activity estimates: the unroll width of the decompressor
// datapath and a relative control-logic complexity.
func logicProfile(k formats.Kind, p int) (unroll int, control float64) {
	switch k {
	case formats.Dense:
		return p, 0.5
	case formats.CSR:
		return 1, 1.5 // offset arithmetic + dependent addressing
	case formats.CSC:
		return 1, 2.0 // column traversal state machine
	case formats.BCSR:
		return formats.BCSRBlock * formats.BCSRBlock, 1.5
	case formats.COO:
		return 1, 1.0
	case formats.DOK:
		return 1, 1.2 // key unpack + compare
	case formats.LIL:
		return p, 2.5 // p-wide min-comparator tree + gather
	case formats.ELL:
		return formats.ELLWidth, 1.0
	case formats.DIA:
		return 1, 2.2 // diagonal bound checks per Listing 7 helpers
	case formats.SELL:
		return formats.ELLWidth, 1.3
	case formats.ELLCOO:
		return formats.ELLWidth, 1.6
	case formats.JDS:
		return 1, 1.8
	case formats.SELLCS:
		return formats.ELLWidth, 1.5
	default:
		panic(fmt.Sprintf("synth: logicProfile for unknown kind %v", k))
	}
}

// bramAccessRate models the per-bank toggle rate: unrolled designs move a
// fixed word stream per partition, so widening the engine spreads the
// same toggles across more banks and across the longer dot-product
// interval and the per-bank rate falls (the decreasing dense/BCSR BRAM
// power of Fig. 13b); sequential designs hammer one bank every cycle.
func bramAccessRate(k formats.Kind, p int) float64 {
	switch k {
	case formats.Dense, formats.BCSR, formats.ELL, formats.SELL:
		return 16.0 / float64(p*(2+log2(p)))
	case formats.LIL:
		return 0.5
	default:
		return 1.0
	}
}

// MinP is the smallest partition size the estimator models (the BCSR
// block edge bounds every array sizing below). Callers fed untrusted
// partition sizes must validate p >= MinP before calling Estimate; the
// engine does (see core's sweep validation), so the panic below is a
// programmer-contract check, not a reachable crash.
const MinP = formats.BCSRBlock

// Estimate returns the synthesis estimate for format k at partition size p.
func Estimate(k formats.Kind, p int) Report {
	if p < MinP {
		panic(fmt.Sprintf("synth: partition size %d below block size", p))
	}
	r := Report{Format: k, P: p}

	// Storage.
	ffBits := 0
	var buf [maxArrays]array
	for _, a := range arrays(buf[:0], k, p) {
		banks, ff := a.bankAndFF()
		r.BRAM18K += banks
		ffBits += ff
	}
	// The dense output row buffer (drow) every decompressor writes, plus
	// the partial-output vector buffer, live in FFs at small p and one
	// bank otherwise.
	drow := array{words: 2 * p, partition: p}
	banks, ff := drow.bankAndFF()
	r.BRAM18K += banks
	ffBits += ff

	// Registers: FF-implemented arrays + pipeline registers across the
	// decompressor and the dot engine (p multipliers + adder tree), plus
	// control state.
	unroll, control := logicProfile(k, p)
	r.FF = ffBits + 40*unroll + 24*p + int(220*control)
	// LUTs: datapath muxes/comparators scale with unroll, the gather
	// crossbar with p, and control with the complexity factor.
	r.LUT = 30*unroll + 14*p + int(400*control)

	// Dynamic power (milliwatts). Calibration constants put the totals in
	// Table 2's 20–120 mW band.
	rate := bramAccessRate(k, p)
	r.LogicMW = 0.004 * float64(r.LUT)
	r.BRAMMW = 1.1 * float64(r.BRAM18K) * rate
	r.SignalsMW = 0.0030*float64(r.FF+r.LUT) + 0.30*float64(unroll)
	r.ClockMW = 8 + 0.0015*float64(r.FF)
	r.DynamicW = (r.LogicMW + r.BRAMMW + r.SignalsMW + r.ClockMW) / 1000

	// Static leakage: a base device figure plus a term for powered-up
	// BRAM, which splits the formats into the paper's two classes.
	r.StaticW = 0.098 + 0.0014*float64(r.BRAM18K)
	return r
}

// DeviceBRAM, DeviceFF and DeviceLUT are the xq7z020 budgets from
// Table 2's Total row, exposed for utilization percentages.
const (
	DeviceBRAM = 140
	DeviceFF   = 106400
	DeviceLUT  = 53200
)

// log2 returns ceil(log2(n)), and 0 for n <= 1.
func log2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
