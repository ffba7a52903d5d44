package main

import (
	"context"
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"copernicus/internal/core"
)

// Tiny sizes of each workload: every operation and correctness gate of
// the full benchmark, in well under a second each.
var (
	suiteTiny = suiteSize{scale: 64, ps: []int{8, 16, 32}, coldReps: 2, warmBatch: 2, minWarm: 100, traceCold: 2, traceWarm: 3}
	largeTiny = largeSize{n: 512, density: 0.01, p: 64, coldRounds: 2, minWarm: 100, traceWarm: 3}
	serveTiny = serveSize{
		scale: 64, uploadN: 128, uploadDensity: 0.05, builtins: 2, clients: 2,
		coldReps: 2, minWarm: 200, traceCold: 2, traceWarm: 1000, replayReps: 2,
	}
)

func TestSmoke(t *testing.T) {
	runs := map[string]func(context.Context, runCfg) (*outcome, error){
		wSuite: func(ctx context.Context, c runCfg) (*outcome, error) { return runSuite(ctx, c, suiteTiny) },
		wLarge: func(ctx context.Context, c runCfg) (*outcome, error) { return runLarge(ctx, c, largeTiny) },
		wServe: func(ctx context.Context, c runCfg) (*outcome, error) { return runServe(ctx, c, serveTiny) },
	}
	for name, run := range runs {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			for _, trace := range []bool{false, true} {
				t.Run(name+"/seed"+strconv.FormatUint(seed, 10)+"/trace"+strconv.FormatBool(trace), func(t *testing.T) {
					o, err := run(context.Background(), runCfg{seed: seed, seconds: 0.01, trace: trace})
					if err != nil {
						t.Fatal(err)
					}
					if o.failed != 0 || o.attempted == 0 {
						t.Fatalf("attempted %d, failed %d", o.attempted, o.failed)
					}
					if trace {
						err = fillLayers(o.metrics, name)
					} else {
						err = checkEndToEnd(o.metrics)
					}
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestSuiteDigestGate proves the suite gate fails an operation whose
// output differs from the golden digest, and refuses an input without
// one.
func TestSuiteDigestGate(t *testing.T) {
	o := newOutcome()
	if _, err := newDigestGate(o, suiteTiny.scale, defaultSeed+1); err == nil {
		t.Fatal("a seed without a golden digest was accepted")
	}
	g, err := newDigestGate(o, suiteTiny.scale, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	in := suiteSetup(defaultSeed, suiteTiny)
	groups, _, _, err := in.sweep(context.Background(), core.New(), nil)
	g.check(groups, err)
	if o.failed != 0 {
		t.Fatal("the recorded digest does not match a fresh sweep")
	}
	groups[0][0].Sigma++
	g.check(groups, nil)
	if o.failed != 1 {
		t.Fatal("a changed result was not counted as failed")
	}

	// A seed past the recorded ones draws the inputs of seed mod
	// goldenSeeds and is checked against that seed's digest.
	o, err = runSuite(context.Background(), runCfg{seed: goldenSeeds + defaultSeed, seconds: 0.01}, suiteTiny)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 || o.info["input"].(map[string]any)["input_seed"] != uint64(defaultSeed) {
		t.Fatalf("seed %d: failed %d, inputs %v", goldenSeeds+defaultSeed, o.failed, o.info["input"])
	}
}

// TestWriteGolden records the suite digests for seeds 0 … N-1 at full
// scale (N = goldenSeeds covers every seed a run can use) and for the
// default and held-out seeds at the smoke scale when
// PERFBENCH_WRITE_GOLDEN=N is set:
//
//	PERFBENCH_WRITE_GOLDEN=256 go test -run TestWriteGolden -timeout 30m .
//
// Record new digests only for a change that is meant to alter the
// sweep's output.
func TestWriteGolden(t *testing.T) {
	n, err := strconv.Atoi(os.Getenv("PERFBENCH_WRITE_GOLDEN"))
	if err != nil {
		t.Skip("set PERFBENCH_WRITE_GOLDEN=<seeds> to record golden digests")
	}
	ctx := context.Background()
	golden := map[string]string{}
	record := func(sz suiteSize, seed uint64) {
		in := suiteSetup(seed, sz)
		groups, _, _, err := in.sweep(ctx, core.New(), nil)
		if err != nil {
			t.Fatal(err)
		}
		golden[goldenKey(sz.scale, seed)] = suiteDigest(groups)
	}
	for _, seed := range []uint64{defaultSeed, heldOutSeed} {
		record(suiteTiny, seed)
	}
	for seed := 0; seed < n; seed++ {
		record(suiteDefault, uint64(seed))
	}
	b, err := json.MarshalIndent(golden, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("golden_suite.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
