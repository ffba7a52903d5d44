// Package hlsim is the hardware substrate of this reproduction: a
// deterministic cycle-level model of the paper's evaluation platform
// (Fig. 2) — an SpMV accelerator generated from C++ by Vivado HLS onto a
// Xilinx xq7z020 at 250 MHz, streaming compressed partitions from DDR3
// over AXI.
//
// The model reproduces the structure that determines every performance
// metric in the paper:
//
//   - a high-level three-stage pipeline (memory read → compute → memory
//     write) in which per-partition latency is max(memory, compute);
//   - two parallel AXI streamlines (values; indices/offsets), the longer
//     of which defines memory latency (§5.2);
//   - a compute stage that is itself a two-stage pipeline: a per-format
//     decompressor transliterated from the paper's HLS listings 1–7, and
//     a fixed-width dot-product engine (multiplier array feeding a
//     balanced adder tree);
//   - HLS loop semantics: `#pragma HLS pipeline` loops cost II·trip +
//     fill depth, `#pragma HLS unroll` loops over BRAM-partitioned arrays
//     cost one issue slot, and dependent BRAM reads cost BRAMReadLatency.
//
// Absolute constants live in Config and are calibrated so the dense
// baseline satisfies σ = 1 exactly (Eq. 1) and the sparse formats land in
// the paper's reported ranges (CSC up to ~21–30× dense, ELL within ~20%
// of dense, etc.). The simulation is also functional: decompressed rows
// feed real dot products, and the resulting y vector is checked against
// the software SpMV in the test suite.
package hlsim

import (
	"fmt"
	"math/bits"
)

// Config holds the hardware parameters of the modelled platform.
type Config struct {
	// ClockHz is the accelerator clock (the paper's 250 MHz).
	ClockHz float64
	// AXIBytesPerCycle is the width of each AXI streamline (64-bit).
	AXIBytesPerCycle int
	// BurstOverhead is the fixed per-partition stream setup cost in
	// cycles (address phase, FIFO fill).
	BurstOverhead int
	// SingleStreamline serializes the value and index streams onto one
	// AXI lane instead of the paper's two parallel streamlines (§5.2) —
	// the ablation knob for BenchmarkAblationStreamlines.
	SingleStreamline bool
	// BRAMReadLatency is the latency in cycles of a dependent BRAM read
	// (the "one extra access to BRAM" CSR pays per row).
	BRAMReadLatency int
	// PipeDepth is the fill/drain depth charged once per pipelined loop.
	PipeDepth int

	// MulLatency and AddLatency shape the dot-product engine: a p-wide
	// multiplier array (MulLatency) feeding a balanced adder tree of
	// depth log2(p) whose stages each take AddLatency.
	MulLatency int
	AddLatency int

	// Per-format initiation intervals for the pipelined decompressor
	// loops of Listings 1–7. II=1 is a perfectly pipelined loop; CSR's
	// dependent colInx→drow chain forces II=2.
	IICSR int
	IICOO int
	IIDIA int
	// CSCScanFrac is the average fraction of the tuple stream the CSC
	// row-reconstruction scan walks before its break fires (Listing 3
	// breaks on first match; 0.5 models uniformly placed matches).
	CSCScanFrac float64
	// CELL is the per-row cost of the fully unrolled ELL gather.
	CELL int
	// CLILBase is the per-row cost of LIL's comparator logic beyond the
	// log2(p) min-tree (the "simpler logic" of §5.2).
	CLILBase int
}

// Default returns the calibrated configuration used throughout the
// reproduction. Changing a constant shifts absolute cycle counts but not
// the structural relationships the figures report.
func Default() Config {
	return Config{
		ClockHz:          250e6,
		AXIBytesPerCycle: 8,
		BurstOverhead:    4,
		BRAMReadLatency:  2,
		PipeDepth:        3,
		MulLatency:       1,
		AddLatency:       1,
		IICSR:            2,
		IICOO:            1,
		IIDIA:            1,
		CSCScanFrac:      0.5,
		CELL:             1,
		CLILBase:         1,
	}
}

// Validate rejects configurations that would divide by zero or model
// negative time.
func (c Config) Validate() error {
	switch {
	case c.ClockHz <= 0:
		return fmt.Errorf("hlsim: ClockHz %v must be positive", c.ClockHz)
	case c.AXIBytesPerCycle <= 0:
		return fmt.Errorf("hlsim: AXIBytesPerCycle %d must be positive", c.AXIBytesPerCycle)
	case c.BurstOverhead < 0 || c.BRAMReadLatency < 0 || c.PipeDepth < 0:
		return fmt.Errorf("hlsim: negative latency constant")
	case c.MulLatency < 1 || c.AddLatency < 1:
		return fmt.Errorf("hlsim: arithmetic latencies must be at least 1")
	case c.IICSR < 1 || c.IICOO < 1 || c.IIDIA < 1 || c.CELL < 1 || c.CLILBase < 0:
		return fmt.Errorf("hlsim: initiation intervals must be at least 1")
	case c.CSCScanFrac <= 0 || c.CSCScanFrac > 1:
		return fmt.Errorf("hlsim: CSCScanFrac %v out of (0,1]", c.CSCScanFrac)
	}
	return nil
}

// DotLatency returns T_dot for a p-wide dot-product engine: the
// multiplier stage plus a balanced adder tree of depth ceil(log2 p).
func (c Config) DotLatency(p int) int {
	return c.MulLatency + c.AddLatency*log2ceil(p)
}

// CycleSeconds converts a cycle count to seconds at the configured clock.
func (c Config) CycleSeconds(cycles uint64) float64 {
	return float64(cycles) / c.ClockHz
}

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	if n < 1 {
		panic(fmt.Sprintf("hlsim: log2ceil(%d)", n))
	}
	return bits.Len(uint(n - 1))
}
