// Package core is the Copernicus characterization engine — the paper's
// primary contribution. It drives the hlsim accelerator model and the
// synth estimator over (workload × format × partition size) points,
// verifies every run's functional SpMV output against the software
// reference, and aggregates the six metric families of §4.2: σ, latency
// breakdown, balance ratio, throughput, memory-bandwidth utilization, and
// resource/power.
package core

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"copernicus/internal/backend"
	"copernicus/internal/faults"
	"copernicus/internal/formats"
	"copernicus/internal/hlsim"
	"copernicus/internal/matrix"
	"copernicus/internal/resilience"
	"copernicus/internal/scenario"
	"copernicus/internal/synth"
	"copernicus/internal/workloads"
	"copernicus/internal/xrand"
)

// Result is one characterization point.
type Result struct {
	Workload string
	Format   formats.Kind
	P        int

	// Kernel is the canonical kernel spec this point was costed for
	// ("spmv", "cg:60", "spmm:8", ...; see internal/scenario), and
	// Iterations its resolved SpMV-shaped iteration count (1 for spmv,
	// the frontier level count for bfs). Seconds — and everything derived
	// from it — covers the whole kernel invocation, all Iterations of it.
	Kernel     string
	Iterations int

	// Backend identifies the backend that costed this point ("analytic"
	// for the paper's cycle model, "native" for host-CPU measurement);
	// result caches key on it. Measured is true when Seconds (and the
	// quantities derived from it: throughput, energy, ns-per-nnz) is a
	// wall-clock measurement rather than a model prediction. The
	// structural metrics (σ, balance, cycle means, utilizations) always
	// come from the analytic model — they describe the format on the
	// modelled hardware, not the costing method.
	Backend  string
	Measured bool
	// MeasuredRuns and Threads record a measured backend's methodology:
	// timed repetitions (Seconds is their minimum) and the requested SpMV
	// fan-out (backend.Measurement.Threads, an upper bound on the
	// goroutines used). Zero for modelled results.
	MeasuredRuns int
	Threads      int
	// Degraded is true when the requested backend could not cost this
	// point and a fallback did instead (e.g. native measurement failing
	// transiently past its retry budget, degrading to the analytic
	// model); DegradedReason says why. The row is still complete and
	// correct under the fallback — degradation is an annotation, not an
	// error.
	Degraded       bool
	DegradedReason string

	// Sigma is the decompression latency overhead of Eq. (1), aggregated
	// over all non-zero partitions (dense ≡ 1).
	Sigma float64
	// BalanceRatio is the mean memory/compute latency ratio (ideal 1).
	BalanceRatio float64
	// MeanMemCycles and MeanComputeCycles are the per-partition averages
	// plotted in Fig. 8.
	MeanMemCycles     float64
	MeanComputeCycles float64
	// Seconds is the point's cost under the backend (modelled end-to-end
	// time for analytic, measured wall time for native) for one full
	// kernel invocation — all Iterations of it; ThroughputBps is
	// processed bytes (data + metadata) per second of it. NsPerNNZ is
	// Seconds over the stored non-zeros in nanoseconds — the
	// backend-neutral per-element cost the model-vs-measured comparison
	// plots (per kernel invocation, so multi-iteration kernels scale it
	// with their iteration count).
	Seconds       float64
	ThroughputBps float64
	NsPerNNZ      float64
	// BandwidthUtil is useful bytes over transmitted bytes.
	BandwidthUtil float64
	// DotEngineUtil and InnerPipelineUtil are the §5.1 run-time
	// utilizations: multiplier slots carrying real non-zeros, and
	// partition rows occupying the decompress→dot pipeline.
	DotEngineUtil     float64
	InnerPipelineUtil float64

	NonZeroTiles int
	TotalTiles   int
	TotalBytes   int

	// Synth is the resource/power estimate for this decompressor
	// variant at this partition size.
	Synth synth.Report

	// DynamicEnergyJ and StaticEnergyJ integrate the power estimates
	// over the modelled run time. §6.4: "the static energy, which
	// depends on time, can be an issue for those slower sparse formats
	// that require less dynamic energy."
	DynamicEnergyJ float64
	StaticEnergyJ  float64
}

// Engine runs characterizations with a fixed hardware configuration.
// It caches encode-once streaming plans per (matrix, partition size), so
// characterizing one matrix across several formats — or re-characterizing
// it across calls, as the advisor and report harness do — partitions and
// encodes each point exactly once. An Engine is safe for concurrent use.
type Engine struct {
	cfg hlsim.Config
	// VerifyTolerance bounds the allowed |y_sim - y_ref| per element.
	verifyTol float64
	// workers bounds the sweep worker pool; 0 means GOMAXPROCS.
	workers int

	mu    sync.Mutex
	plans map[planKey]*list.Element // value: *planEntry
	lru   *list.List                // front = most recently used
	stats PlanStats
}

// planKey identifies a cached streaming plan. Matrices are treated as
// immutable once characterized (every producer in this repository builds
// them once via Builder), so identity by pointer is sound. Note the key
// pins its matrix (and the plan its tiles) until eviction; engines fed a
// stream of large one-off matrices should call DropPlansFor on each once
// it is done.
type planKey struct {
	m *matrix.CSR
	p int
}

// planEntry is one LRU node: the key lets eviction delete the map slot
// from the list element alone. x is the matrix's characterization operand
// (testVector) and ref its software reference product (MulVec). They are
// built once on a miss, next to the plan, or shared with another cached
// entry of the same matrix, and are released with the entry: they live on
// the entries, not in a table keyed by matrix, so DropPlansFor and
// eviction free them with the matrix's last plan. Since every sweep of the
// plan multiplies the same x, the plan walks its rows once and every
// later point copies the stored product (hlsim.Plan.RunContext); the copy
// has the bits of the group's verified output, so its functional check
// is one byte compare (groupCheck).
type planEntry struct {
	key    planKey
	pl     *hlsim.Plan
	x, ref []float64
}

// maxCachedPlans bounds the plan cache. Beyond it the least-recently-used
// entry is evicted — hot plans stay warm under sustained mixed traffic,
// and a later miss on the evicted point only re-pays that one encoding.
const maxCachedPlans = 128

// PlanStats counts plan-cache traffic since the engine was created.
// Hits are requests served by a cached plan (the amortized regime: no
// re-partition, no re-encode); misses built a new plan; evictions are
// LRU capacity drops, not explicit DropPlansFor calls. ResidentBytes is the
// total resident footprint of every cached plan (Plan.MemoryBytes): the
// sparse tile spans and functional arrays, which scale with nnz, the
// stored product, the per-format cycle tables at 16 B per non-zero tile,
// plus any resident exec encodings at their host size, which for Dense is
// tiles·p² float64 values. It also counts each cached matrix's operand
// and reference vectors once.
type PlanStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Cached        int    `json:"cached"`
	ResidentBytes int64  `json:"resident_bytes"`
}

// New returns an engine with the calibrated default hardware model.
func New() *Engine {
	e, err := NewWithConfig(hlsim.Default())
	if err != nil {
		panic(err) // the default configuration is always valid
	}
	return e
}

// NewWithConfig returns an engine for a custom hardware configuration.
func NewWithConfig(cfg hlsim.Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		cfg:       cfg,
		verifyTol: 1e-9,
		plans:     make(map[planKey]*list.Element),
		lru:       list.New(),
	}, nil
}

// Config returns the engine's hardware configuration.
func (e *Engine) Config() hlsim.Config { return e.cfg }

// SetWorkers bounds the sweep worker pool, and with it each cached
// plan's tile-parallel warmup (see plan). n <= 0 restores the default
// (GOMAXPROCS). Parallel and serial sweeps produce identical results in
// identical order.
func (e *Engine) SetWorkers(n int) {
	e.mu.Lock()
	e.workers = max(n, 0)
	w := e.workersLocked()
	for el := e.lru.Front(); el != nil; el = el.Next() {
		el.Value.(*planEntry).pl.SetWorkers(w)
	}
	e.mu.Unlock()
}

// Workers returns the effective sweep worker-pool size.
func (e *Engine) Workers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.workersLocked()
}

// workersLocked is Workers for a caller holding e.mu.
func (e *Engine) workersLocked() int {
	if e.workers > 0 {
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// DropPlansFor releases every cached plan of one matrix — all partition
// sizes — unpinning it from the engine. Services that key matrices by ID
// call this when an ID is deleted, ending that matrix's plan lifecycle
// without disturbing other warm plans.
func (e *Engine) DropPlansFor(m *matrix.CSR) {
	e.mu.Lock()
	for el := e.lru.Front(); el != nil; {
		next := el.Next()
		if ent := el.Value.(*planEntry); ent.key.m == m {
			e.lru.Remove(el)
			delete(e.plans, ent.key)
		}
		el = next
	}
	e.mu.Unlock()
}

// PlanStats returns a snapshot of the plan-cache counters, including the
// total resident bytes of every cached plan and of each cached matrix's
// operand and reference vectors.
func (e *Engine) PlanStats() PlanStats {
	e.mu.Lock()
	s := e.stats
	s.Cached = len(e.plans)
	counted := make(map[*matrix.CSR]bool, len(e.plans))
	for el := e.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*planEntry)
		s.ResidentBytes += ent.pl.MemoryBytes()
		if !counted[ent.key.m] {
			counted[ent.key.m] = true
			s.ResidentBytes += int64(len(ent.x)+len(ent.ref)) * 8
		}
	}
	e.mu.Unlock()
	return s
}

// plan returns the cached entry for (m, p) — the streaming plan, the
// operand and the reference product — building it on the first request
// and promoting it to most-recently-used on every hit.
func (e *Engine) plan(m *matrix.CSR, p int) (*planEntry, error) {
	key := planKey{m: m, p: p}
	e.mu.Lock()
	if el, ok := e.plans[key]; ok {
		e.lru.MoveToFront(el)
		e.stats.Hits++
		ent := el.Value.(*planEntry)
		e.mu.Unlock()
		return ent, nil
	}
	workers := e.workersLocked()
	ent := &planEntry{key: key}
	shared := e.operandsLocked(ent)
	e.mu.Unlock()
	pl, err := hlsim.NewPlan(e.cfg, m, p)
	if err != nil {
		return nil, err
	}
	ent.pl = pl
	if !shared {
		ent.x = testVector(m.Cols)
		ent.ref = m.MulVec(ent.x)
	}
	// Warm this plan's formats on up to `workers` goroutines, borrowing
	// helpers from the process-wide hlsim pool: tiles encode in parallel
	// with deterministic, tile-ordered aggregation, and total helpers
	// across all concurrent sweep groups and engines stay bounded by the
	// pool's size.
	pl.SetWorkers(workers)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Misses++
	// Prefer a plan another goroutine may have raced in, so concurrent
	// sweep groups over the same point share encodings.
	if el, ok := e.plans[key]; ok {
		e.lru.MoveToFront(el)
		return el.Value.(*planEntry), nil
	}
	// A plan of the same matrix may have been cached meanwhile: share its
	// operands, so one matrix's entries always hold one pair.
	e.operandsLocked(ent)
	e.plans[key] = e.lru.PushFront(ent)
	for len(e.plans) > maxCachedPlans {
		oldest := e.lru.Back()
		e.lru.Remove(oldest)
		delete(e.plans, oldest.Value.(*planEntry).key)
		e.stats.Evictions++
	}
	return ent, nil
}

// operandsLocked points ent at the operand and reference of another
// cached entry of ent's matrix, if there is one, and reports whether there
// was. The caller holds e.mu.
func (e *Engine) operandsLocked(ent *planEntry) bool {
	for el := e.lru.Front(); el != nil; el = el.Next() {
		if o := el.Value.(*planEntry); o.key.m == ent.key.m {
			ent.x, ent.ref = o.x, o.ref
			return true
		}
	}
	return false
}

// testVector returns the deterministic operand vector used in every
// characterization: reproducible, non-trivial values so functional
// verification exercises real arithmetic.
func testVector(n int) []float64 {
	r := xrand.NewStream(0x7EC7, uint64(n))
	x := make([]float64, n)
	for i := range x {
		x[i] = r.ValueIn(-1, 1)
	}
	return x
}

// ptSweepGroup lets the chaos suite fail or stall one (workload, kernel,
// p) group of a streaming sweep — e.g. after the first group has already
// been emitted, proving the mid-stream error contract.
var ptSweepGroup = faults.Point("core.sweep.group")

// validatePoint rejects (format, partition size) combinations that the
// encoders or the synthesis estimator cannot model, before any plan or
// worker goroutine touches them: blocked/sliced formats need divisible
// tile edges, and the synth model floors p at synth.MinP. Both are
// wrapped formats.ErrBadPartition — a client fault, mapped to 400 by the
// service — closing the remote crash where an indivisible or tiny p
// panicked inside a sweep worker and killed the process.
func validatePoint(k formats.Kind, p int) error {
	if err := formats.ValidateP(k, p); err != nil {
		return err
	}
	if p < synth.MinP {
		return fmt.Errorf("%w: p=%d below the synthesis model minimum %d", formats.ErrBadPartition, p, synth.MinP)
	}
	return nil
}

// characterizeOn runs one (kernel, format) point on a prepared plan against
// the plan entry's operand vector and software reference — the shared
// inner step of Characterize and every sweep. The backend supplies the cost
// (Seconds and everything derived from it) for the kernel's full iteration
// stream; the structural metrics come from the plan's analytic cycle totals
// either way, and the functional output — one A·x, the iteration operand
// held fixed — is verified against the reference under every backend and
// kernel, through the group's check g.check: an output whose bits equal
// the group's last verified one passes on one byte compare, any other runs
// the full loop of mismatchRow. The backend writes that output into
// g.run, the group's buffer; the returned Result keeps none of it.
func (e *Engine) characterizeOn(ctx context.Context, b backend.Backend, name string, pl *hlsim.Plan, sc scenario.Spec, k formats.Kind, x, ref []float64, g *groupRun) (Result, error) {
	p := pl.P()
	meas, err := b.EvaluateInto(ctx, pl, sc, k, x, &g.run)
	if err != nil {
		return Result{}, fmt.Errorf("core: %s/%s/%v/p=%d: %w", name, sc, k, p, err)
	}
	run := meas.Run
	if i := g.check.mismatch(run.Y, ref, e.verifyTol); i >= 0 {
		return Result{}, fmt.Errorf("core: %s/%v/p=%d: functional mismatch at row %d: %g vs %g",
			name, k, p, i, run.Y[i], ref[i])
	}
	rep := synth.Estimate(k, p)
	// For the analytic backend these are exactly the pre-backend
	// expressions (meas.Seconds is run.Seconds()), so results stay
	// bit-identical; measured backends recompute the derived rates from
	// their own seconds.
	tput := run.Throughput()
	if meas.Measured {
		tput = 0
		if meas.Seconds > 0 {
			tput = float64(run.Footprint.TotalBytes()) / meas.Seconds
		}
	}
	var nsPerNNZ float64
	if run.NNZ > 0 {
		nsPerNNZ = meas.Seconds * 1e9 / float64(run.NNZ)
	}
	return Result{
		Workload:          name,
		Format:            k,
		P:                 p,
		Kernel:            sc.String(),
		Iterations:        meas.Iterations,
		Backend:           b.ID(),
		Measured:          meas.Measured,
		MeasuredRuns:      meas.Runs,
		Threads:           meas.Threads,
		Degraded:          meas.Degraded,
		DegradedReason:    meas.DegradedReason,
		DynamicEnergyJ:    rep.DynamicW * meas.Seconds,
		StaticEnergyJ:     rep.StaticW * meas.Seconds,
		Sigma:             run.Sigma(),
		BalanceRatio:      run.BalanceRatio(),
		MeanMemCycles:     run.MeanMemCycles(),
		MeanComputeCycles: run.MeanComputeCycles(),
		Seconds:           meas.Seconds,
		ThroughputBps:     tput,
		NsPerNNZ:          nsPerNNZ,
		BandwidthUtil:     run.BandwidthUtilization(),
		DotEngineUtil:     run.DotEngineUtilization(),
		InnerPipelineUtil: run.InnerPipelineUtilization(),
		NonZeroTiles:      run.NonZeroTiles,
		TotalTiles:        run.TotalTiles,
		TotalBytes:        run.Footprint.TotalBytes(),
		Synth:             rep,
	}, nil
}

// Characterize runs one (matrix, format, partition size) point under the
// analytic cycle model and verifies the simulated SpMV output against the
// software reference; a mismatch is a hard error, never a silently wrong
// metric. It is one sweep group of the one format, for one SpMV.
func (e *Engine) Characterize(name string, m *matrix.CSR, k formats.Kind, p int) (Result, error) {
	rs, err := e.sweepGroup(context.Background(), backend.Analytic{}, name, m, scenario.Default(), p, []formats.Kind{k})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// SweepKernelsWith sweeps the full (workload × kernel × format × p)
// space and collects the results in deterministic order; pass
// []scenario.Spec{scenario.Default()} for the paper's single-SpMV study.
// The (workload, kernel, p) groups run on a bounded worker pool (Workers
// wide; GOMAXPROCS by default, configurable with SetWorkers), and the
// output is identical to a serial run. Backends that are not
// Parallelizable — wall-clock measurement degrades under contention —
// run their groups serially regardless of the worker-pool setting. It is
// a thin collector over SweepGroupsKernelsWith.
func (e *Engine) SweepKernelsWith(ctx context.Context, b backend.Backend, ws []workloads.Workload, specs []scenario.Spec, kinds []formats.Kind, ps []int) ([]Result, error) {
	out := make([]Result, 0, len(ws)*len(specs)*len(ps)*len(kinds))
	err := e.SweepGroupsKernelsWith(ctx, b, ws, specs, kinds, ps, func(g SweepGroup) error {
		out = append(out, g.Results...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SweepGroup is one completed (workload, kernel, partition size) group of
// a streaming sweep: its results in format order, plus the group's
// compute wall time as observed by the worker that ran it (plan warmup
// included on a cold point — the first-group latency a streaming client
// sees). Kernel is the group's canonical kernel spec ("spmv" for
// single-kernel sweeps).
type SweepGroup struct {
	Workload string
	Kernel   string
	P        int
	Results  []Result
	Elapsed  time.Duration
}

// GroupExecutor executes one (workload, kernel, p) sweep group and
// returns its results in format order. It is the seam between the
// deterministic claim/merge machinery of SweepGroupsExecWith and the
// place the group actually computes: the engine's own backend
// (LocalExecutor) or a remote worker reached over the wire (the
// cluster coordinator). Executors must be safe for concurrent calls
// when Parallelizable reports true.
type GroupExecutor interface {
	ExecuteGroup(ctx context.Context, w workloads.Workload, sc scenario.Spec, p int, kinds []formats.Kind) ([]Result, error)
	// Parallelizable reports whether groups may execute concurrently.
	// Wall-clock-measuring local backends return false (contention
	// corrupts timings); remote executors return true — contention is
	// the owning worker's concern.
	Parallelizable() bool
}

// localExecutor runs groups on the engine's own backend with panic
// containment — the executor behind every single-node sweep.
type localExecutor struct {
	e *Engine
	b backend.Backend
}

func (x localExecutor) ExecuteGroup(ctx context.Context, w workloads.Workload, sc scenario.Spec, p int, kinds []formats.Kind) ([]Result, error) {
	return x.e.sweepGroup(ctx, x.b, w.ID, w.M, sc, p, kinds)
}

func (x localExecutor) Parallelizable() bool { return x.b.Parallelizable() }

// LocalExecutor returns the engine's own GroupExecutor under backend b
// (nil selects the analytic default). Remote executors wrap this as
// their fallback when every replica of a group is unreachable.
func (e *Engine) LocalExecutor(b backend.Backend) GroupExecutor {
	if b == nil {
		b = backend.Analytic{}
	}
	return localExecutor{e: e, b: b}
}

// SweepGroupsKernelsWith is the streaming sweep on the engine's own
// backend b (nil selects the analytic default): yield receives each
// completed (workload, kernel, p) group — results in format order plus
// compute timing — in deterministic index order, so the concatenated
// group results equal SweepKernelsWith exactly. Groups are ordered workload-major, then kernel, then
// partition size; with specs = [spmv] the decomposition is exactly the
// (workload, p) grid of the paper's study. Callers that want single
// results loop over g.Results. It is the primitive under the service's
// streamed responses and the job subsystem's progress feed.
//
// The calling goroutine both computes groups and yields them (see
// SweepGroupsExecWith): a ready group waits at most one of the caller's
// own group computes before it is yielded, and at one worker a slow
// yield no longer overlaps compute. Returning a non-nil error from yield
// stops the sweep (in-flight groups are canceled) and propagates that
// error. A canceled ctx aborts compute mid-warmup and returns ctx.Err().
func (e *Engine) SweepGroupsKernelsWith(ctx context.Context, b backend.Backend, ws []workloads.Workload, specs []scenario.Spec, kinds []formats.Kind, ps []int, yield func(SweepGroup) error) error {
	return e.SweepGroupsExecWith(ctx, e.LocalExecutor(b), ws, specs, kinds, ps, yield)
}

// SweepGroupsExecWith is SweepGroupsKernelsWith with group execution
// delegated to exec. The calling goroutine is one of the sweep's Workers
// participants: it starts Workers−1 helper goroutines, and caller and
// helpers claim group indices in order through one claim function and
// run them through the executor. The caller also emits: while the next
// group in index order is not ready and unclaimed groups remain, it
// claims and computes one, and only then waits for that group. A ready
// group therefore waits at most one of the caller's own group computes
// before it is yielded, and with one worker no goroutine starts: each
// group is computed and then yielded on the caller, so a slow yield no
// longer overlaps compute. The claim/merge machinery — not the executor —
// guarantees ordering, so any executor that returns deterministic
// per-group results yields a byte-identical sweep.
func (e *Engine) SweepGroupsExecWith(ctx context.Context, exec GroupExecutor, ws []workloads.Workload, specs []scenario.Spec, kinds []formats.Kind, ps []int, yield func(SweepGroup) error) error {
	for _, sc := range specs {
		if err := sc.Validate(); err != nil {
			return fmt.Errorf("core: sweep: %w", err)
		}
	}
	groups := len(ws) * len(specs) * len(ps)
	if groups == 0 || len(kinds) == 0 {
		return ctx.Err()
	}
	workers := e.Workers()
	if !exec.Parallelizable() {
		workers = 1
	}
	workers = max(1, min(workers, groups))

	// Participants claim group indices in order and deposit each group's
	// outcome in its slot, closing ready[g]. After the first failure no
	// one claims a *new* group (claimed ones run to completion, keeping
	// earlier groups' results and the lowest-indexed error
	// deterministic); a context cancellation aborts claimed groups
	// mid-warmup too.
	type groupOut struct {
		g   SweepGroup
		err error
	}
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	outs := make([]groupOut, groups)
	ready := make([]chan struct{}, groups)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	var next atomic.Int64
	var failed atomic.Bool
	// claim returns the next unclaimed group, or -1 once every group is
	// claimed, a group has failed or the sweep is canceled.
	claim := func() int {
		if failed.Load() || ictx.Err() != nil {
			return -1
		}
		if g := int(next.Add(1)) - 1; g < groups {
			return g
		}
		return -1
	}
	compute := func(g int) {
		w := ws[g/(len(specs)*len(ps))]
		sc := specs[(g/len(ps))%len(specs)]
		p := ps[g%len(ps)]
		start := time.Now()
		rs, err := exec.ExecuteGroup(ictx, w, sc, p, kinds)
		outs[g] = groupOut{
			g:   SweepGroup{Workload: w.ID, Kernel: sc.String(), P: p, Results: rs, Elapsed: time.Since(start)},
			err: err,
		}
		if err != nil {
			failed.Store(true)
		}
		close(ready[g])
	}
	isReady := func(g int) bool {
		select {
		case <-ready[g]:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := claim(); g >= 0; g = claim() {
				compute(g)
			}
		}()
	}

	// The caller walks groups in index order. A group that was never
	// claimed (claims stopped on failure or cancellation) never closes its
	// ready channel, but the caller always hits the terminating condition
	// — the erroring group or ctx.Done — first, because claims are made in
	// index order.
	err := func() error {
		for g := 0; g < groups; g++ {
			for !isReady(g) {
				c := claim()
				if c < 0 {
					break
				}
				compute(c)
			}
			select {
			case <-ready[g]:
			case <-ctx.Done():
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if outs[g].err != nil {
				return outs[g].err
			}
			if err := yield(outs[g].g); err != nil {
				return err
			}
		}
		return nil
	}()
	cancel() // stop any still-running groups before returning
	wg.Wait()
	return err
}

// groupRun is the state the formats of one sweep group share: the Result
// every evaluation writes its functional output into, and the group's
// functional check.
type groupRun struct {
	run   hlsim.Result
	check groupCheck
}

// groupRuns holds the groupRuns of sweep groups; a group takes one for its
// formats and returns it when done.
var groupRuns = sync.Pool{New: func() any { return new(groupRun) }}

// groupCheck is the functional check of one sweep group's points. Every
// point of a group is checked against the group's one reference under the
// engine's one tolerance, and the check is a pure function of the output's
// bits, so an output whose bits equal one that already passed passes too.
// The check keeps a copy of the last output that passed the full loop and
// compares each output with it first, as one byte compare (hlsim.SameBits);
// any other output runs the full loop and, if it passes, becomes the copy.
// Under the analytic backend every format of a group outputs the same
// bits, so only the group's first point pays the loop.
type groupCheck struct {
	verified []float64
	ok       bool // verified passed against the current group's reference
}

// reset forgets the verified copy. A group calls it before its first
// point: the reference differs between matrices.
func (c *groupCheck) reset() { c.ok = false }

// mismatch is mismatchRow(y, ref, tol), answered from the verified copy
// when y has its bits.
func (c *groupCheck) mismatch(y, ref []float64, tol float64) int {
	if c.ok && hlsim.SameBits(y, c.verified) {
		return -1
	}
	if i := mismatchRow(y, ref, tol); i >= 0 {
		return i
	}
	c.verified = append(c.verified[:0], y...)
	c.ok = true
	return -1
}

// mismatchRow is the full functional check: the first row at which y
// differs from the reference ref, or -1 when none does. A row passes iff
// |y−ref| ≤ tol, or y == ref (same-sign infinities), or both are NaN, so a
// NaN never passes against a number. The engine's operand is finite, so a
// non-finite row comes only from the matrix's own NaN or infinite values,
// which the reference carries too.
func mismatchRow(y, ref []float64, tol float64) int {
	y = y[:len(ref)]
	for i, r := range ref {
		if v := y[i]; !(math.Abs(v-r) <= tol) && v != r && !(v != v && r != r) {
			return i
		}
	}
	return -1
}

// sweepGroup characterizes one matrix across formats at one partition
// size, in the given format order, with every format costed for kernel sc
// by backend b — the one (workload, kernel, p) group every sweep and
// Characterize compute. The plan, the operand vector and the reference
// MulVec are shared across formats and, because the plan cache keys only
// (matrix, p), across kernels and calls too: sweeping spmv and cg:60 over
// one matrix encodes each format exactly once, and the analytic backend
// walks the plan's rows for A·x once. The formats write their functional
// output into one pooled groupRun, checked against the reference after
// each format: the group's first point runs the full loop, and a later one
// whose output has the verified bits passes on one byte compare (see
// groupCheck). Cancellation is checked between formats and inside
// each format's warmup (and a measured backend's timing loop), returning
// ctx.Err().
//
// A panic anywhere under the group — plan warmup, backend evaluation,
// metric aggregation — is recovered into a *resilience.PanicError and
// becomes the group's error, failing the sweep with a structured error
// instead of unwinding the sweep's goroutine and killing the process. The
// ptSweepGroup fault point lets the chaos suite fail a chosen group
// (e.g. the second, after the first has streamed out).
func (e *Engine) sweepGroup(ctx context.Context, b backend.Backend, name string, m *matrix.CSR, sc scenario.Spec, p int, kinds []formats.Kind) (rs []Result, err error) {
	defer func() {
		if pe := resilience.Recovered(ptSweepGroup.Name(), recover()); pe != nil {
			rs, err = nil, fmt.Errorf("core: %s/%s/p=%d: %w", name, sc, p, pe)
		}
	}()
	if ferr := ptSweepGroup.Hit(); ferr != nil {
		return nil, fmt.Errorf("core: %s/%s/p=%d: %w", name, sc, p, ferr)
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("core: %s/p=%d: %w", name, p, err)
	}
	for _, k := range kinds {
		if err := validatePoint(k, p); err != nil {
			return nil, fmt.Errorf("core: %s/%v: %w", name, k, err)
		}
	}
	ent, err := e.plan(m, p)
	if err != nil {
		return nil, fmt.Errorf("core: %s/%s/p=%d: %w", name, sc, p, err)
	}
	// One pooled groupRun serves every format of the group: each
	// evaluation overwrites its Result and reuses its Y, and nothing in a
	// core.Result keeps Y, so a warm sweep reuses its output vectors — and
	// the check's verified copy — across groups instead of allocating them
	// per group.
	g := groupRuns.Get().(*groupRun)
	defer groupRuns.Put(g)
	g.check.reset()
	// Poll cancellation through the done channel: a closed-channel receive
	// takes no lock, where cancelCtx.Err does.
	done := ctx.Done()
	out := make([]Result, 0, len(kinds))
	for _, k := range kinds {
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
		r, err := e.characterizeOn(ctx, b, name, ent.pl, sc, k, ent.x, ent.ref, g)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
