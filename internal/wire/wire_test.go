package wire

import (
	"context"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"copernicus/internal/backend"
	"copernicus/internal/core"
	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/scenario"
	"copernicus/internal/synth"
	"copernicus/internal/workloads"
)

// adversarialResults exercises every corner the layout must carry
// exactly: all 13 formats, every kernel-spec shape, degraded rows with
// annotation strings, modelled and measured rows, repeated and empty
// strings, negative ints, and float extremes (±Inf, signed zero,
// denormals, and both ends of the float64 range — NaN is checked
// separately because reflect.DeepEqual rejects NaN == NaN).
func adversarialResults() []core.Result {
	specs := []string{"spmv", "spmm:8", "cg:60", "jacobi:3", "pagerank:20", "bfs"}
	var rs []core.Result
	for i, k := range formats.All() {
		rs = append(rs, core.Result{
			Workload:          "wl-" + k.String(),
			Format:            k,
			P:                 8 << (i % 3),
			Kernel:            specs[i%len(specs)],
			Iterations:        1 + i,
			Backend:           []string{"analytic", "native"}[i%2],
			Measured:          i%2 == 1,
			MeasuredRuns:      i % 5,
			Threads:           i % 4,
			Degraded:          i%3 == 0,
			DegradedReason:    map[bool]string{true: "native measurement failed; analytic fallback", false: ""}[i%3 == 0],
			Sigma:             1 + float64(i)/3,
			BalanceRatio:      math.Inf(1),
			MeanMemCycles:     math.Copysign(0, -1),
			MeanComputeCycles: 5e-324,
			Seconds:           1.7976931348623157e308,
			ThroughputBps:     -2.2250738585072014e-308,
			NsPerNNZ:          float64(-i),
			BandwidthUtil:     math.Inf(-1),
			DotEngineUtil:     0.9999999999999999,
			InnerPipelineUtil: 1e-300,
			NonZeroTiles:      -i,
			TotalTiles:        1 << 30,
			TotalBytes:        i * 1_000_003,
			Synth: synth.Report{
				Format: k, P: 8, BRAM18K: i, FF: -7, LUT: 1 << 20,
				LogicMW: 0.25, BRAMMW: -0.5, SignalsMW: 3.5, ClockMW: 0.125,
				DynamicW: 0.875, StaticW: 0.103,
			},
			DynamicEnergyJ: 1e21,
			StaticEnergyJ:  1e-21,
		})
	}
	return rs
}

func TestRoundTripAdversarial(t *testing.T) {
	rs := adversarialResults()
	got, err := Decode(Encode(rs))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, rs) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got[0], rs[0])
	}
}

// TestRoundTripNaN: NaN payload bits must survive even though DeepEqual
// cannot compare them.
func TestRoundTripNaN(t *testing.T) {
	rs := []core.Result{{Workload: "nan", Kernel: "spmv", Backend: "analytic",
		Seconds: math.Float64frombits(0x7ff8_dead_beef_0001)}}
	got, err := Decode(Encode(rs))
	if err != nil {
		t.Fatal(err)
	}
	if bits := math.Float64bits(got[0].Seconds); bits != 0x7ff8_dead_beef_0001 {
		t.Fatalf("NaN payload bits = %016x", bits)
	}
}

// TestRoundTripEngine: exact DeepEqual round trip over real engine
// output — the analytic backend across every implemented format and
// every kernel family, plus a measured native row.
func TestRoundTripEngine(t *testing.T) {
	e := core.New()
	ws := workloads.SuiteSparse(workloads.Config{Scale: 48, RandomDim: 48, BandDim: 48})[:3]
	var specs []scenario.Spec
	for _, s := range []string{"spmv", "spmm:2", "cg:3", "jacobi:2", "pagerank:2", "bfs"} {
		sc, err := scenario.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sc)
	}
	rs, err := e.SweepKernelsWith(context.Background(), nil, ws, specs, formats.All(), []int{8, 16})
	if err != nil {
		t.Fatal(err)
	}

	// One measured row so the native backend's fields (Measured,
	// MeasuredRuns, Threads, wall-clock Seconds) cross the wire too.
	m := gen.Random(64, 0.05, 7)
	nat, err := e.SweepKernelsWith(context.Background(), &backend.Native{Runs: 2}, []workloads.Workload{{ID: "native-row", M: m}},
		[]scenario.Spec{scenario.Default()}, []formats.Kind{formats.CSR}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	rs = append(rs, nat...)

	got, err := Decode(Encode(rs))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, rs) {
		t.Fatal("engine slab round trip is not exactly equal")
	}
}

// TestRoundTripEmpty: rows=0 encodes and decodes as nil.
func TestRoundTripEmpty(t *testing.T) {
	got, err := Decode(Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("empty slab decoded to %v, want nil", got)
	}
}

// goldenResults is a small fixed slab whose exact wire bytes are pinned
// below. If this test fails, the layout drifted: either revert the
// change or bump wire.Version and regenerate the fixture deliberately.
func goldenResults() []core.Result {
	return []core.Result{
		{
			Workload: "HM", Format: formats.CSR, P: 8, Kernel: "spmv", Iterations: 1,
			Backend: "analytic", Sigma: 1.5, BalanceRatio: 0.75, MeanMemCycles: 96,
			MeanComputeCycles: 128, Seconds: 0.0015, ThroughputBps: 2.5e9,
			NsPerNNZ: 12.25, BandwidthUtil: 0.5, DotEngineUtil: 0.25,
			InnerPipelineUtil: 0.125, NonZeroTiles: 7, TotalTiles: 16, TotalBytes: 4096,
			Synth: synth.Report{Format: formats.CSR, P: 8, BRAM18K: 2, FF: 310, LUT: 540,
				LogicMW: 0.5, BRAMMW: 1.25, SignalsMW: 0.75, ClockMW: 0.25, DynamicW: 2.75, StaticW: 0.121},
			DynamicEnergyJ: 0.004125, StaticEnergyJ: 0.0001815,
		},
		{
			Workload: "HM", Format: formats.ELL, P: 16, Kernel: "cg:60", Iterations: 60,
			Backend: "native", Measured: true, MeasuredRuns: 5, Threads: 2,
			Degraded: true, DegradedReason: "breaker open; analytic fallback",
			Sigma: 2, BalanceRatio: 1, MeanMemCycles: 64, MeanComputeCycles: 64,
			Seconds: 0.25, ThroughputBps: 1e6, NsPerNNZ: 3.5, BandwidthUtil: 1,
			DotEngineUtil: 1, InnerPipelineUtil: 1, NonZeroTiles: 4, TotalTiles: 4, TotalBytes: 100,
			Synth: synth.Report{Format: formats.ELL, P: 16, BRAM18K: 1, FF: 100, LUT: 200,
				LogicMW: 0.25, BRAMMW: 0.5, SignalsMW: 0.25, ClockMW: 0.125, DynamicW: 1.125, StaticW: 0.103},
			DynamicEnergyJ: 0.28125, StaticEnergyJ: 0.02575,
		},
	}
}

func TestGoldenFixture(t *testing.T) {
	got := hex.EncodeToString(Encode(goldenResults()))
	if got != goldenHex {
		t.Fatalf("wire bytes drifted from the version-%d golden fixture.\n got %s\nwant %s\n"+
			"If the layout change is intentional, bump wire.Version and regenerate.", Version, got, goldenHex)
	}
	rs, err := Decode(Encode(goldenResults()))
	if err != nil || !reflect.DeepEqual(rs, goldenResults()) {
		t.Fatalf("golden slab does not round trip: %v", err)
	}
}

func TestDecodeRejects(t *testing.T) {
	valid := Encode(goldenResults())
	flip := func(i int) []byte {
		b := append([]byte(nil), valid...)
		b[i] ^= 0xff
		return b
	}
	cases := map[string][]byte{
		"empty":           {},
		"short":           valid[:8],
		"bad magic":       flip(0),
		"bad version":     flip(4),
		"bad crc":         flip(len(valid) - 1),
		"flipped payload": flip(len(valid) / 2),
		"truncated":       valid[:len(valid)-9],
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", name)
		} else if !errors.Is(err, ErrCorrupt) && name != "bad crc" {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", name, err)
		}
	}
	// A huge declared row count must be rejected before allocation.
	huge := append([]byte(nil), magic[:]...)
	huge = append(huge, 1)                            // version
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0x7f) // rows varint, ~34 G
	huge = append(huge, 0)                            // empty table
	sum := crc32Of(huge)
	huge = append(huge, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
	if _, err := Decode(huge); err == nil || !strings.Contains(err.Error(), "cannot fit") {
		t.Fatalf("oversized row count not rejected: %v", err)
	}
}

func BenchmarkWireEncode(b *testing.B) {
	rs := adversarialResults()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(rs)
	}
}

func BenchmarkWireDecode(b *testing.B) {
	blob := Encode(adversarialResults())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(blob); err != nil {
			b.Fatal(err)
		}
	}
}
