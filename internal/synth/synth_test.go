package synth

import (
	"testing"

	"copernicus/internal/formats"
)

var partitions = []int{8, 16, 32}

func TestEstimateDeterministic(t *testing.T) {
	for _, k := range formats.All() {
		for _, p := range partitions {
			if Estimate(k, p) != Estimate(k, p) {
				t.Fatalf("%v p=%d: non-deterministic estimate", k, p)
			}
		}
	}
}

func TestAllPositive(t *testing.T) {
	for _, k := range formats.All() {
		for _, p := range partitions {
			r := Estimate(k, p)
			if r.BRAM18K < 0 || r.FF <= 0 || r.LUT <= 0 {
				t.Fatalf("%v p=%d: non-positive resources %+v", k, p, r)
			}
			if r.DynamicW <= 0 || r.StaticW <= 0 {
				t.Fatalf("%v p=%d: non-positive power %+v", k, p, r)
			}
		}
	}
}

// TestDenseBCSRBanksTrackPartition: Table 2's structural identity — the
// dense buffer and BCSR's dim-2-partitioned arrays bank one-per-row, so
// BRAM = p for partition sizes 8/16/32.
func TestDenseBCSRBanksTrackPartition(t *testing.T) {
	for _, p := range partitions {
		if got := Estimate(formats.Dense, p).BRAM18K; got != p {
			t.Errorf("dense p=%d: BRAM = %d, want %d", p, got, p)
		}
		if got := Estimate(formats.BCSR, p).BRAM18K; got != p {
			t.Errorf("bcsr p=%d: BRAM = %d, want %d", p, got, p)
		}
	}
}

// TestCSRCSCLowestBanks: sequential arrays cannot be partitioned, so CSR
// and CSC use the fewest BRAM banks at small partitions (Table 2: 1–2).
func TestCSRCSCLowestBanks(t *testing.T) {
	for _, p := range []int{8, 16} {
		csr := Estimate(formats.CSR, p).BRAM18K
		csc := Estimate(formats.CSC, p).BRAM18K
		if csr > 3 || csc > 3 {
			t.Errorf("p=%d: CSR/CSC banks %d/%d, want sequential-array minimum (≤3)", p, csr, csc)
		}
		dense := Estimate(formats.Dense, p).BRAM18K
		if csr >= dense || csc >= dense {
			t.Errorf("p=%d: CSR/CSC bank more than dense", p)
		}
	}
}

// TestBanksGrowAtLargePartition: every format's worst-case arrays
// eventually outgrow single banks.
func TestBanksGrowAtLargePartition(t *testing.T) {
	for _, k := range formats.Core() {
		if Estimate(k, 32).BRAM18K < Estimate(k, 8).BRAM18K {
			t.Errorf("%v: BRAM shrinks from p=8 to p=32", k)
		}
	}
}

// TestELLSmallPartitionUsesFF reproduces the §6.4 observation: at p=8 the
// ELL rectangles fit the FF threshold, so ELL uses almost no BRAM and
// proportionally more flip-flops than the BRAM-backed p=32 design.
func TestELLSmallPartitionUsesFF(t *testing.T) {
	small := Estimate(formats.ELL, 8)
	large := Estimate(formats.ELL, 32)
	if small.BRAM18K >= large.BRAM18K {
		t.Fatalf("ELL BRAM p=8 (%d) not below p=32 (%d)", small.BRAM18K, large.BRAM18K)
	}
	// FF per unit of design size must be higher at p=8 (array bits in FF).
	if small.FF <= 24*8+40*formats.ELLWidth {
		t.Fatalf("ELL p=8 FF = %d shows no array buffering", small.FF)
	}
}

// TestStaticPowerTwoClasses: §6.4 reports 0.121 W for the BRAM-heavy
// formats (dense, CSR, BCSR, LIL, ELL) and 0.103 W for CSC, COO, DIA. The
// model must place the first group strictly above the second at p=16.
func TestStaticPowerTwoClasses(t *testing.T) {
	highAvg, lowAvg := 0.0, 0.0
	high := []formats.Kind{formats.Dense, formats.BCSR, formats.LIL, formats.ELL}
	low := []formats.Kind{formats.CSC, formats.COO, formats.DIA}
	for _, k := range high {
		highAvg += Estimate(k, 16).StaticW
	}
	for _, k := range low {
		lowAvg += Estimate(k, 16).StaticW
	}
	highAvg /= float64(len(high))
	lowAvg /= float64(len(low))
	if highAvg <= lowAvg {
		t.Fatalf("static power classes inverted: high %.4f vs low %.4f", highAvg, lowAvg)
	}
}

// TestDynamicPowerBand: Table 2's dynamic power sits in 10–120 mW.
func TestDynamicPowerBand(t *testing.T) {
	for _, k := range formats.Core() {
		for _, p := range partitions {
			r := Estimate(k, p)
			if r.DynamicW < 0.005 || r.DynamicW > 0.25 {
				t.Errorf("%v p=%d: dynamic power %.4f W outside plausible band", k, p, r.DynamicW)
			}
		}
	}
}

// TestPowerBreakdownSums: the Fig. 13 components plus clock equal the
// Table 2 total.
func TestPowerBreakdownSums(t *testing.T) {
	for _, k := range formats.All() {
		for _, p := range partitions {
			r := Estimate(k, p)
			sum := (r.LogicMW + r.BRAMMW + r.SignalsMW + r.ClockMW) / 1000
			if diff := sum - r.DynamicW; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("%v p=%d: breakdown sum %.6f != total %.6f", k, p, sum, r.DynamicW)
			}
		}
	}
}

// TestLogicPowerMonotonicInP: §6.4 — "the power consumption of logic
// always increases or stays steady as partition size increases".
func TestLogicPowerMonotonicInP(t *testing.T) {
	for _, k := range formats.Core() {
		prev := -1.0
		for _, p := range partitions {
			r := Estimate(k, p)
			if r.LogicMW < prev {
				t.Errorf("%v: logic power decreases at p=%d", k, p)
			}
			prev = r.LogicMW
		}
	}
}

// TestBRAMPowerCanDecrease: for the unrolled formats the per-bank access
// rate falls faster than banking grows at some step (dense and BCSR in
// Fig. 13b show decreasing BRAM power); at minimum the model must not
// make BRAM power strictly increasing for every format.
func TestBRAMPowerShapes(t *testing.T) {
	decreasing := 0
	for _, k := range formats.Core() {
		a := Estimate(k, 8).BRAMMW
		b := Estimate(k, 32).BRAMMW
		if b < a {
			decreasing++
		}
	}
	if decreasing == 0 {
		t.Fatal("no format shows decreasing BRAM power; Fig. 13b shape lost")
	}
}

// TestFitsDevice: each single design fits the xq7z020 budgets of Table 2.
func TestFitsDevice(t *testing.T) {
	for _, k := range formats.Core() {
		for _, p := range partitions {
			r := Estimate(k, p)
			if r.BRAM18K > DeviceBRAM {
				t.Errorf("%v p=%d: %d banks exceed device %d", k, p, r.BRAM18K, DeviceBRAM)
			}
			if r.FF > DeviceFF {
				t.Errorf("%v p=%d: %d FF exceed device %d", k, p, r.FF, DeviceFF)
			}
			if r.LUT > DeviceLUT {
				t.Errorf("%v p=%d: %d LUT exceed device %d", k, p, r.LUT, DeviceLUT)
			}
		}
	}
}

func TestSmallPartitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("p below block size accepted")
		}
	}()
	Estimate(formats.BCSR, 2)
}

// TestEstimateAllocsZero: the estimator lays each decompressor's arrays
// out in a fixed-size buffer on its stack, so an estimate allocates
// nothing — the sweep calls it once per point.
func TestEstimateAllocsZero(t *testing.T) {
	kinds := formats.All()
	if len(kinds) != 13 {
		t.Fatalf("formats.All() has %d kinds, want 13", len(kinds))
	}
	for _, k := range kinds {
		for _, p := range []int{8, 16, 32, 256} {
			if n := testing.AllocsPerRun(10, func() { Estimate(k, p) }); n != 0 {
				t.Errorf("Estimate(%v, %d): %v allocs, want 0", k, p, n)
			}
		}
	}
}
