package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/hlsim"
	"copernicus/internal/matrix"
)

// large_sparse is one big, very sparse matrix (dimension ≫ √nnz) at a
// large partition size, over the twelve sparse formats. A cold
// operation is a fresh hlsim.NewPlan, the first RunIntoContext (encode
// and decode-verify) and the first RunExecIntoContext (exec build); a
// warm operation is one single-thread RunExecIntoContext SpMV through
// the format's own kernel. Every timing is the geometric mean over the
// formats of that format's own statistic, so each format weighs the
// same.

type largeSize struct {
	n          int
	density    float64
	p          int
	coldRounds int
	minWarm    int
	traceWarm  int
}

var largeDefault = largeSize{
	n: 8192, density: 0.002, p: 256,
	coldRounds: 4, minWarm: 100, traceWarm: 20,
}

type largeInputs struct {
	m     *matrix.CSR
	x     []float64
	ref   []float64
	kinds []formats.Kind
}

func largeSetup(seed uint64, sz largeSize) largeInputs {
	m := gen.Random(sz.n, sz.density, seed)
	r := rand.New(rand.NewPCG(seed, 0x1a59e))
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 2*r.Float64() - 1
	}
	return largeInputs{m: m, x: x, ref: m.MulVec(x), kinds: sparseKinds()}
}

// largeState is one format's warm plan and its output buffer.
type largeState struct {
	pl *hlsim.Plan
	r  hlsim.Result
}

// largeCold runs one cold operation of format k and checks both
// products against the reference.
func largeCold(ctx context.Context, in largeInputs, sz largeSize, k formats.Kind) (st *largeState, d time.Duration, alloc uint64, g gcDelta, err error) {
	st = &largeState{}
	var first hlsim.Result
	alloc, g = measureAlloc(func() {
		t := time.Now()
		st.pl, err = hlsim.NewPlan(hlsim.Default(), in.m, sz.p)
		if err == nil {
			err = st.pl.RunIntoContext(ctx, k, in.x, &first)
		}
		if err == nil {
			err = st.pl.RunExecIntoContext(ctx, k, in.x, &st.r, 1)
		}
		d = time.Since(t)
	})
	if err == nil {
		err = checkY(nil, &first, in.ref)
	}
	if err == nil {
		err = checkY(nil, &st.r, in.ref)
	}
	if err != nil {
		err = fmt.Errorf("large_sparse cold %v: %w", k, err)
	}
	return st, d, alloc, g, err
}

// largeWarm runs one warm SpMV of format k and checks it.
func largeWarm(ctx context.Context, in largeInputs, st *largeState, k formats.Kind) (time.Duration, error) {
	t := time.Now()
	err := st.pl.RunExecIntoContext(ctx, k, in.x, &st.r, 1)
	d := time.Since(t)
	if err == nil {
		err = checkY(nil, &st.r, in.ref)
	}
	if err != nil {
		err = fmt.Errorf("large_sparse warm %v: %w", k, err)
	}
	return d, err
}

func runLarge(ctx context.Context, c runCfg, sz largeSize) (*outcome, error) {
	o := newOutcome()
	start := time.Now()
	var in largeInputs
	setup := []float64{timeSetup(func() { in = largeSetup(c.seed, sz) })}
	o.info["input"] = map[string]any{
		"n": sz.n, "density": sz.density, "nnz": in.m.NNZ(), "p": sz.p,
		"formats": len(in.kinds), "threads": 1,
		// No bandwidth figure: the arrays cannot exceed the shared L3
		// (300 MiB here) within the machine's memory.
		"spmv_bytes": "computed from footprint (formats.<kind>.footprint_bytes), not measured",
	}
	if c.trace {
		return o, largeTraced(ctx, sz, in, o)
	}
	// One cold operation per format makes the warm plans; the remaining
	// cold operations cycle through the formats, interleaved with warm
	// rounds (one SpMV per format each). Each of those also times a
	// rebuild of the inputs, which it drops.
	nk := len(in.kinds)
	cold := make([][]float64, nk)
	alloc := make([][]float64, nk)
	states := make([]*largeState, nk)
	coldOp := func(i int) {
		k := i % nk
		if i >= nk {
			setup = append(setup, timeSetup(func() { _ = largeSetup(c.seed, sz) }))
		}
		st, d, a, _, err := largeCold(ctx, in, sz, in.kinds[k])
		o.op(err)
		cold[k] = append(cold[k], ms(d))
		alloc[k] = append(alloc[k], mb(a))
		if states[k] == nil && err == nil {
			states[k] = st
		}
	}
	for i, k := range in.kinds {
		coldOp(i)
		if states[i] == nil {
			return nil, fmt.Errorf("large_sparse: no warm plan for %v", k)
		}
	}
	warm := make([][]float64, nk)
	busy := make([]time.Duration, nk)
	warmRound := func(until time.Time) {
		for ok := true; ok; ok = time.Now().Before(until) {
			for i, k := range in.kinds {
				d, err := largeWarm(ctx, in, states[i], k)
				o.op(err)
				warm[i] = append(warm[i], ms(d))
				busy[i] += d
			}
		}
	}
	interleave(c.deadline(start), (sz.coldRounds-1)*nk, func(i int) { coldOp(nk + i) }, warmRound)
	for len(warm[0]) < sz.minWarm {
		warmRound(time.Now())
	}

	var coldK, allocK, warmK, p90K, tputK []float64
	for i := range in.kinds {
		p90, err := percentile(warm[i], 90)
		if err != nil {
			return nil, err
		}
		coldK = append(coldK, med(cold[i]))
		allocK = append(allocK, med(alloc[i]))
		warmK = append(warmK, med(warm[i]))
		p90K = append(p90K, p90)
		tputK = append(tputK, float64(in.m.NNZ()*len(warm[i]))/busy[i].Seconds())
	}
	o.set("setup_s", med(setup), "s")
	for _, m := range []struct {
		name, unit string
		perKind    []float64
	}{
		{"cold_ms", "ms", coldK}, {"warm_ms", "ms", warmK}, {"warm_p90_ms", "ms", p90K},
		{"throughput_per_s", "1/s", tputK}, {"alloc_mb", "MB", allocK},
	} {
		v, err := geomean(m.perKind)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		o.set(m.name, v, m.unit)
	}
	o.info["samples"] = map[string]int{"setup": len(setup), "cold_per_format": sz.coldRounds, "warm_per_format": len(warm[0])}
	cold, warm = nil, nil
	o.set("retained_mb", retainedMB(), "MB")
	runtime.KeepAlive(states)
	runtime.KeepAlive(in)
	return o, nil
}

// largeTraced is the traced run: per format, one cold operation
// untraced and one with a span around each layer call, then traceWarm
// warm SpMVs on each side in turn, so that both sides describe the same
// conditions of the host. The traced cold operation is split by calling
// Plan.Trace (the encode) before the first RunIntoContext, which then
// only decode-verifies.
func largeTraced(ctx context.Context, sz largeSize, in largeInputs, o *outcome) error {
	tr := newTracer()
	o.tr = tr
	var uCold, uWarm, gcCycles, gcPause []float64
	var part, enc, ver, build, encA, verA, buildA, tWarm []float64
	var coldRoots, warmRoots []int
	tiles, op := 0, 0
	for _, k := range in.kinds {
		ust, d, _, g, err := largeCold(ctx, in, sz, k)
		if err != nil {
			return err
		}
		o.op(nil)
		uCold = append(uCold, ms(d))
		gcCycles = append(gcCycles, float64(g.cycles))
		gcPause = append(gcPause, ms(g.pause))

		op++
		runtime.GC() // as before each untraced cold operation
		root := tr.begin("large.cold", 0, op)
		var pl *hlsim.Plan
		var first, r hlsim.Result
		step := func(name string, ds, as *[]float64, fn func() error) {
			if err != nil {
				return
			}
			var d time.Duration
			a := allocOf(func() { d = traceCall(tr, name, root, op, func() { err = fn() }) })
			*ds = append(*ds, ms(d))
			if as != nil {
				*as = append(*as, mb(a))
			}
		}
		step("matrix.partition", &part, nil, func() (e error) { pl, e = hlsim.NewPlan(hlsim.Default(), in.m, sz.p); return e })
		step("formats.encode", &enc, &encA, func() (e error) { _, e = pl.Trace(k); return e })
		step("formats.decode_verify", &ver, &verA, func() error { return pl.RunIntoContext(ctx, k, in.x, &first) })
		step("hlsim.exec_build", &build, &buildA, func() error { return pl.RunExecIntoContext(ctx, k, in.x, &r, 1) })
		tr.end(root)
		if err != nil {
			return fmt.Errorf("large_sparse traced cold %v: %w", k, err)
		}
		o.op(checkY(nil, &r, in.ref))
		coldRoots = append(coldRoots, root)
		tiles = len(pl.Partitioning().Tiles)
		o.set("formats."+kindName(k)+".footprint_bytes", float64(r.Footprint.TotalBytes()), "B")

		var uw, w []float64
		for j := 0; j < sz.traceWarm; j++ {
			d, err := largeWarm(ctx, in, ust, k)
			o.op(err)
			uw = append(uw, ms(d))

			op++
			wroot := tr.begin("large.warm", 0, op)
			d = traceCall(tr, "formats."+kindName(k)+".exec", wroot, op, func() { err = pl.RunExecIntoContext(ctx, k, in.x, &r, 1) })
			tr.end(wroot)
			o.op(checkY(err, &r, in.ref))
			w = append(w, ms(d))
			warmRoots = append(warmRoots, wroot)
		}
		uWarm = append(uWarm, med(uw))
		o.set("formats."+kindName(k)+".exec_ms", med(w), "ms")
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	tCold, unCold := rootStats(spans, self, coldRoots)
	wd, unWarm := rootStats(spans, self, warmRoots)
	for i := range in.kinds {
		tWarm = append(tWarm, med(wd[i*sz.traceWarm:(i+1)*sz.traceWarm]))
	}
	for _, m := range []struct {
		name, unit string
		perKind    []float64
	}{
		{"matrix.partition_ms", "ms", part},
		{"formats.encode_ms", "ms", enc}, {"formats.encode_alloc_mb", "MB", encA},
		{"formats.decode_verify_ms", "ms", ver}, {"formats.decode_verify_alloc_mb", "MB", verA},
		{"hlsim.exec_build_ms", "ms", build}, {"hlsim.exec_build_alloc_mb", "MB", buildA},
	} {
		v, err := geomean(m.perKind)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		o.set(m.name, v, m.unit)
	}
	o.set("matrix.nonzero_tiles", float64(tiles), "count")
	o.set("matrix.nnz", float64(in.m.NNZ()), "count")
	o.set("runtime.gc_cycles", med(gcCycles), "count")
	o.set("runtime.gc_pause_ms", med(gcPause), "ms")
	gCold, err := geomean(tCold)
	if err != nil {
		return err
	}
	gUCold, _ := geomean(uCold)
	gWarm, err := geomean(tWarm)
	if err != nil {
		return err
	}
	gUWarm, _ := geomean(uWarm)
	setTrace(o, gCold-gUCold, gWarm-gUWarm, mean(unCold), mean(unWarm))
	return nil
}
