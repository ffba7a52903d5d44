package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"copernicus/internal/backend"
	"copernicus/internal/core"
	"copernicus/internal/formats"
	"copernicus/internal/hlsim"
	"copernicus/internal/scenario"
	"copernicus/internal/wire"
	"copernicus/internal/workloads"
)

// suite_sweep is the paper's study: the twenty SuiteSparse surrogates ×
// the core formats × p ∈ {8, 16, 32} through the engine's streaming
// sweep on the analytic backend, with one engine worker (suiteWorkers).
// A cold operation is a sweep on a fresh engine (partition, encode and
// decode-verify of every plan); a warm operation is a sweep on the warm
// engine (backend evaluation plus the core claim/merge only).

// suiteSize sizes suite_sweep; the smoke test shrinks it.
type suiteSize struct {
	scale    int
	ps       []int
	coldReps int
	// A warm sample is warmBatch consecutive warm sweeps, reported as
	// their mean latency, so that one preemption of the host cannot
	// decide the p90 on its own; a run takes at least minWarm samples.
	warmBatch, minWarm int
	// traceCold and traceWarm are the repetitions of each operation in
	// a traced run, untraced and traced alike.
	traceCold, traceWarm int
}

var suiteDefault = suiteSize{
	scale: 1024, ps: []int{8, 16, 32},
	coldReps: 15, warmBatch: 4, minWarm: 100,
	traceCold: 5, traceWarm: 20,
}

var spmvOnly = []scenario.Spec{scenario.Default()}

// suiteWorkers is the engine's worker count in suite_sweep. One worker
// leaves the second vCPU of a 2-vCPU host to the garbage collector and
// the runtime, and does not wait on the slower of two vCPUs. Over ten
// pairs of 12 s runs on the 2-vCPU development VM, alternating one worker
// with the default two, the runs' coefficient of variation was 0.041
// against 0.078 for cold_ms and 0.019 against 0.058 for warm_p90_ms.
const suiteWorkers = 1

// suiteEngine returns a fresh engine with suiteWorkers workers.
func suiteEngine() *core.Engine {
	e := core.New()
	e.SetWorkers(suiteWorkers)
	return e
}

type suiteInputs struct {
	ws    []workloads.Workload
	kinds []formats.Kind
	ps    []int
}

func (in suiteInputs) points() int { return len(in.ws) * len(in.kinds) * len(in.ps) }

func suiteSetup(seed uint64, sz suiteSize) suiteInputs {
	c := workloads.Config{Scale: sz.scale, RandomDim: sz.scale, BandDim: sz.scale, Seed: seed}
	return suiteInputs{ws: workloads.SuiteSparse(c), kinds: formats.Core(), ps: sz.ps}
}

// sweep runs one sweep on e and returns its results group by group, its
// latency and the time until the first group reached the caller. A nil
// exec is the untraced path: the engine's own analytic sweep.
func (in suiteInputs) sweep(ctx context.Context, e *core.Engine, exec core.GroupExecutor) (groups [][]core.Result, d, first time.Duration, err error) {
	groups = make([][]core.Result, 0, len(in.ws)*len(in.ps))
	start := time.Now()
	yield := func(g core.SweepGroup) error {
		if len(groups) == 0 {
			first = time.Since(start)
		}
		groups = append(groups, g.Results)
		return nil
	}
	if exec == nil {
		err = e.SweepGroupsKernelsWith(ctx, backend.Analytic{}, in.ws, spmvOnly, in.kinds, in.ps, yield)
	} else {
		err = e.SweepGroupsExecWith(ctx, exec, in.ws, spmvOnly, in.kinds, in.ps, yield)
	}
	return groups, time.Since(start), first, err
}

// suiteDigest is the sweep's output digest: SHA-256 over the columnar
// encoding of each group in emission order. The analytic path is
// bit-deterministic, so every pass of one input must give one digest.
func suiteDigest(groups [][]core.Result) string {
	h := sha256.New()
	for _, g := range groups {
		h.Write(wire.Encode(g))
	}
	return hex.EncodeToString(h.Sum(nil))
}

//go:embed golden_suite.json
var goldenSuiteJSON []byte

// goldenSeeds is how many seeds have a recorded golden digest at full
// scale (0 … goldenSeeds-1); suite_sweep draws its inputs from seed mod
// goldenSeeds, so every seed is checked against a recorded digest.
const goldenSeeds = 256

// goldenKey names a golden digest by input size and seed.
func goldenKey(scale int, seed uint64) string { return fmt.Sprintf("scale=%d/seed=%d", scale, seed) }

// digestGate checks each pass's output against the golden digest
// recorded for the input.
type digestGate struct {
	o    *outcome
	want string
}

// newDigestGate refuses an input without a recorded digest.
func newDigestGate(o *outcome, scale int, seed uint64) (*digestGate, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenSuiteJSON, &g); err != nil {
		return nil, fmt.Errorf("golden_suite.json: %w", err)
	}
	want, ok := g[goldenKey(scale, seed)]
	if !ok {
		return nil, fmt.Errorf("no golden digest for %s; record it with TestWriteGolden (smoke_test.go)", goldenKey(scale, seed))
	}
	return &digestGate{o: o, want: want}, nil
}

func (g *digestGate) check(groups [][]core.Result, err error) {
	if err != nil {
		g.o.op(err)
		return
	}
	if d := suiteDigest(groups); d != g.want {
		g.o.op(fmt.Errorf("suite_sweep digest %s, want the golden %s", d, g.want))
		return
	}
	g.o.op(nil)
}

func runSuite(ctx context.Context, c runCfg, sz suiteSize) (*outcome, error) {
	o := newOutcome()
	start := time.Now()
	seed := c.seed % goldenSeeds
	var in suiteInputs
	setup := []float64{timeSetup(func() { in = suiteSetup(seed, sz) })}
	nnz := 0
	for _, w := range in.ws {
		nnz += w.M.NNZ()
	}
	o.info["input"] = map[string]any{
		"matrices": len(in.ws), "scale": sz.scale, "nnz": nnz, "input_seed": seed,
		"formats": len(in.kinds), "ps": in.ps, "points": in.points(),
		"backend": "analytic", "workers": suiteWorkers,
	}
	gate, err := newDigestGate(o, sz.scale, seed)
	if err != nil {
		return nil, err
	}
	if c.trace {
		return o, suiteTraced(ctx, sz, in, gate, o)
	}

	// The first cold sweep's engine is the warm engine; every later cold
	// sweep runs on a fresh engine that is dropped afterwards. Each cold
	// round also times a rebuild of the inputs, which it drops.
	var cold, alloc, warm []float64
	var busy time.Duration
	var warmE *core.Engine
	coldOp := func(int) {
		setup = append(setup, timeSetup(func() { _ = suiteSetup(seed, sz) }))
		e := suiteEngine()
		d, a, _, groups, err := suiteCold(ctx, in, e)
		gate.check(groups, err)
		cold = append(cold, ms(d))
		alloc = append(alloc, mb(a))
		if warmE == nil {
			warmE = e
		}
	}
	warmOp := func(until time.Time) {
		for ok := true; ok; ok = time.Now().Before(until) {
			var sum time.Duration
			for i := 0; i < sz.warmBatch; i++ {
				groups, d, _, err := in.sweep(ctx, warmE, nil)
				gate.check(groups, err)
				sum += d
			}
			warm = append(warm, ms(sum)/float64(sz.warmBatch))
			busy += sum
		}
	}
	interleave(c.deadline(start), sz.coldReps, coldOp, warmOp)
	for len(warm) < sz.minWarm {
		warmOp(time.Now())
	}
	o.info["samples"] = map[string]int{"setup": len(setup), "cold": len(cold), "warm": len(warm), "sweeps_per_warm_sample": sz.warmBatch}
	if err := setE2E(o, setup, cold, warm, alloc, float64(in.points()*len(warm)*sz.warmBatch)/busy.Seconds()); err != nil {
		return nil, err
	}
	cold, warm = nil, nil
	o.set("retained_mb", retainedMB(), "MB")
	runtime.KeepAlive(warmE)
	runtime.KeepAlive(in)
	return o, nil
}

// suiteCold runs one cold sweep on the fresh engine e after a forced GC,
// returning its latency, the bytes it allocated and the GC activity
// during it.
func suiteCold(ctx context.Context, in suiteInputs, e *core.Engine) (time.Duration, uint64, gcDelta, [][]core.Result, error) {
	var groups [][]core.Result
	var d time.Duration
	var err error
	a, g := measureAlloc(func() { groups, d, _, err = in.sweep(ctx, e, nil) })
	return d, a, g, groups, err
}

// tracedExec records a core.group span around every group the engine
// hands to its executor; with several engine workers these spans
// overlap.
type tracedExec struct {
	inner    core.GroupExecutor
	tr       *tracer
	root, op int
}

func (x tracedExec) ExecuteGroup(ctx context.Context, w workloads.Workload, sc scenario.Spec, p int, kinds []formats.Kind) ([]core.Result, error) {
	id := x.tr.begin("core.group", x.root, x.op)
	defer x.tr.end(id)
	return x.inner.ExecuteGroup(ctx, w, sc, p, kinds)
}

func (x tracedExec) Parallelizable() bool { return x.inner.Parallelizable() }

// suiteTraced is the traced run: the cold and warm sweeps untraced and
// traced (spans around every group) in turn, and a serial replay that calls
// each layer's functions directly on the same inputs to split a cold
// sweep into partition, encode and decode-verify and a warm one into
// backend evaluations.
func suiteTraced(ctx context.Context, sz suiteSize, in suiteInputs, gate *digestGate, o *outcome) error {
	tr := newTracer()
	o.tr = tr
	op := 0
	traced := func(e *core.Engine, name string) (root int, first time.Duration) {
		op++
		root = tr.begin(name, 0, op)
		exec := tracedExec{inner: e.LocalExecutor(backend.Analytic{}), tr: tr, root: root, op: op}
		groups, _, first, err := in.sweep(ctx, e, exec)
		tr.end(root)
		gate.check(groups, err)
		return root, first
	}
	// Untraced and traced operations alternate, so that both medians
	// describe the same conditions of the host; each side keeps its own
	// warm engine. Every cold sweep starts after a forced GC.
	var uCold, uWarm, gcCycles, gcPause, firstGroup []float64
	var tColdRoots, tWarmRoots []int
	var uE, e *core.Engine
	for i := 0; i < sz.traceCold; i++ {
		uE = suiteEngine()
		d, _, g, groups, err := suiteCold(ctx, in, uE)
		gate.check(groups, err)
		uCold = append(uCold, ms(d))
		gcCycles = append(gcCycles, float64(g.cycles))
		gcPause = append(gcPause, ms(g.pause))

		e = suiteEngine()
		runtime.GC()
		root, first := traced(e, "suite.cold")
		tColdRoots = append(tColdRoots, root)
		firstGroup = append(firstGroup, ms(first))
	}
	for i := 0; i < sz.traceWarm; i++ {
		groups, d, _, err := in.sweep(ctx, uE, nil)
		gate.check(groups, err)
		uWarm = append(uWarm, ms(d))

		root, _ := traced(e, "suite.warm")
		tWarmRoots = append(tWarmRoots, root)
	}
	ps := e.PlanStats()

	spans := tr.snapshot()
	self := selfTimes(spans)
	var busy []float64
	for _, root := range tWarmRoots {
		var b time.Duration
		for _, s := range spans {
			if s.Parent == root && s.Name == "core.group" {
				b += s.dur()
			}
		}
		busy = append(busy, ms(b))
	}
	tc, unc := rootStats(spans, self, tColdRoots)
	tw, unw := rootStats(spans, self, tWarmRoots)
	setTrace(o, med(tc)-med(uCold), med(tw)-med(uWarm), med(unc), med(unw))
	if err := suiteReplay(ctx, in, tr, op+1, o); err != nil {
		return err
	}
	o.set("core.group_busy_ms", med(busy), "ms")
	o.set("core.first_group_ms", med(firstGroup), "ms")
	o.set("core.plan_hits", float64(ps.Hits), "count")
	o.set("core.plan_misses", float64(ps.Misses), "count")
	o.set("core.plan_evictions", float64(ps.Evictions), "count")
	o.set("core.plan_resident_mb", mb(uint64(ps.ResidentBytes)), "MB")
	o.set("runtime.gc_cycles", med(gcCycles), "count")
	o.set("runtime.gc_pause_ms", med(gcPause), "ms")
	return nil
}

// suiteReplay calls the layers directly, one call at a time, on the
// suite's inputs: hlsim.NewPlan (the partition), Plan.Trace (the
// encode), the first Plan.RunIntoContext (the decode-verify) and, on the
// now-warm plans, backend.Analytic.Evaluate. The cold replay is
// operation op and the warm one op+1.
func suiteReplay(ctx context.Context, in suiteInputs, tr *tracer, op int, o *outcome) error {
	type planned struct {
		pl     *hlsim.Plan
		x, ref []float64
	}
	var plans []planned
	var part, enc, ver, eval time.Duration
	var encAlloc, verAlloc uint64
	tiles, nnz := 0, 0
	root := tr.begin("suite.replay_cold", 0, op)
	for _, w := range in.ws {
		nnz += w.M.NNZ()
		x := replayVector(w.M.Cols)
		ref := w.M.MulVec(x)
		for _, p := range in.ps {
			var pl *hlsim.Plan
			var err error
			part += traceCall(tr, "matrix.partition", root, op, func() { pl, err = hlsim.NewPlan(hlsim.Default(), w.M, p) })
			if err != nil {
				return fmt.Errorf("replay partition %s p=%d: %w", w.ID, p, err)
			}
			tiles += len(pl.Partitioning().Tiles)
			for _, k := range in.kinds {
				encAlloc += allocOf(func() {
					enc += traceCall(tr, "formats.encode", root, op, func() { _, err = pl.Trace(k) })
				})
				if err != nil {
					return fmt.Errorf("replay encode %s/%v/p=%d: %w", w.ID, k, p, err)
				}
			}
			var r hlsim.Result
			for _, k := range in.kinds {
				verAlloc += allocOf(func() {
					ver += traceCall(tr, "formats.decode_verify", root, op, func() { err = pl.RunIntoContext(ctx, k, x, &r) })
				})
				if err != nil {
					return fmt.Errorf("replay decode-verify %s/%v/p=%d: %w", w.ID, k, p, err)
				}
			}
			plans = append(plans, planned{pl, x, ref})
		}
	}
	tr.end(root)
	root = tr.begin("suite.replay_warm", 0, op+1)
	for _, pp := range plans {
		for _, k := range in.kinds {
			var meas backend.Measurement
			var err error
			eval += traceCall(tr, "backend.analytic_eval", root, op+1, func() {
				meas, err = backend.Analytic{}.Evaluate(ctx, pp.pl, scenario.Default(), k, pp.x)
			})
			o.op(checkY(err, meas.Run, pp.ref))
		}
	}
	tr.end(root)
	o.set("matrix.partition_ms", ms(part), "ms")
	o.set("matrix.nonzero_tiles", float64(tiles), "count")
	o.set("matrix.nnz", float64(nnz), "count")
	o.set("formats.encode_ms", ms(enc), "ms")
	o.set("formats.encode_alloc_mb", mb(encAlloc), "MB")
	o.set("formats.decode_verify_ms", ms(ver), "ms")
	o.set("formats.decode_verify_alloc_mb", mb(verAlloc), "MB")
	o.set("backend.analytic_eval_us", us(eval)/float64(in.points()), "us")
	return nil
}

// yTol bounds |y - A·x| per element. The column-ordered exec kernels
// (CSC, DIA, ...) sum in another order than the reference product.
const yTol = 1e-9

// checkY compares a multiplication's output with the reference product.
func checkY(err error, r *hlsim.Result, ref []float64) error {
	if err != nil {
		return err
	}
	if len(r.Y) != len(ref) {
		return fmt.Errorf("output has %d rows, want %d", len(r.Y), len(ref))
	}
	for i := range ref {
		if math.Abs(r.Y[i]-ref[i]) > yTol {
			return fmt.Errorf("row %d: %g, want %g", i, r.Y[i], ref[i])
		}
	}
	return nil
}

// replayVector is a fixed operand for the replay's multiplications.
func replayVector(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 - float64(i%17)/8
	}
	return x
}
