package hlsim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"copernicus/internal/faults"
	"copernicus/internal/formats"
	"copernicus/internal/matrix"
	"copernicus/internal/resilience"
)

// Plan is an encode-once streaming plan: one matrix partitioned at one
// partition size, with each format warmed exactly once, by whichever use
// of it comes first: one pass encodes every tile, prices it, verifies
// that it round-trips (decodeCheck), then drops the encoding. Only the
// priced tile table is cached, so every tile the model prices has
// round-tripped.
// The Plan is the package's one way into the model: a one-shot run
// builds a plan and calls one method (RunContext, RunParallel, RunSpMM,
// Trace, Schedule), and callers that stream the same matrix repeatedly —
// iterative kernels, characterization sweeps — hold a Plan so each SpMV
// pays only the per-iteration dot work.
//
// The plan is sparse-native end to end: the partitioning stores compact
// per-tile CSR spans (O(nnz) resident, never p² buffers), the functional
// rows/cols/vals arrays are copied straight out of those spans, and each
// format's encoder walks the sparse tile in O(nnz + p).
//
// Format state is guarded per format (one warmup guard per Kind), so
// concurrent consumers characterizing different formats on one plan never
// serialize against each other; a format's tiles can additionally be
// warmed on helpers borrowed from the process-wide worker pool
// (SetWorkers) with deterministic, tile-ordered aggregation.
//
// A Plan is safe for concurrent use.
type Plan struct {
	cfg Config
	m   *matrix.CSR
	p   int
	pt  *matrix.Partitioning

	// helpers caps the pool helpers the tile passes (warmup and exec
	// build) borrow: SetWorkers(n) stores n-1, and the zero value keeps
	// them serial.
	helpers atomic.Int32

	// spansOnce/spans hold the per-grid-block-row ownership table of the
	// exec path: each span owns a contiguous y range and tile range, so
	// parallel workers never write the same output row (see exec.go).
	spansOnce sync.Once
	spans     []execSpan

	// CSR-native functional view of the non-zero tiles, built lazily by
	// ensureRows on the first multiplication (cycle-model-only paths —
	// Trace, Schedule — never pay for it): each row spans
	// cols/vals[start:row.end], where start is the previous row's end.
	// Iterating these reproduces the exact accumulation order of the
	// per-tile pipeline (ascending local row, ascending column), so results
	// are bit-identical to the pre-plan path.
	rowsOnce  sync.Once
	rows      []planRow
	cols      []int32
	vals      []float64
	rowsBytes atomic.Int64

	// prod is the product of the first operand the modelled path
	// multiplied (see mulVec), published once and never replaced. The
	// exec path never reads it.
	prod atomic.Pointer[product]

	ptBytes int64
	fmts    [formats.NumKinds]planSlot
}

// planSlot is one format's cached state: the warmup and the
// executable-kernel phases, each with its own leader guard so distinct
// formats (and a format's two phases) never serialize against each other.
// warm publishes the priced tile table once every tile has been
// verified (a sticky pricing or verify error lives in it); ex
// holds the resident encodings the RunExecIntoContext path walks (built
// fresh: no warmup encoding outlives its tile's step).
type planSlot struct {
	warm phase[planFormat]
	ex   phase[planExec]
}

// phase is a cancellation-safe once: the first caller of do becomes the
// leader and runs build; concurrent callers park until the leader
// finishes. Unlike a sync.Once, a leader whose build fails (a canceled
// context, an injected fault, a recovered panic) abandons the phase
// *unpublished* — no half-built state is ever visible — and the next
// caller, or a waiter that was parked on the aborted leader, re-runs
// build from scratch under its own context. A successful build is
// published exactly once and never re-run; the warm path is one atomic
// load.
type phase[T any] struct {
	mu sync.Mutex
	// wait is non-nil while a leader builds; waiters park on it and
	// re-check the phase when it closes (completion or abort).
	wait chan struct{}
	v    atomic.Pointer[T]
}

// do returns the published value, building it first if needed. A waiter
// whose ctx is canceled returns ctx.Err() without affecting the leader.
func (ph *phase[T]) do(ctx context.Context, build func() (*T, error)) (*T, error) {
	for {
		if v := ph.v.Load(); v != nil {
			return v, nil
		}
		ph.mu.Lock()
		if v := ph.v.Load(); v != nil {
			ph.mu.Unlock()
			return v, nil
		}
		if w := ph.wait; w != nil {
			ph.mu.Unlock()
			select {
			case <-w:
				// The leader finished or aborted; re-check the phase (and
				// become the next leader if it aborted).
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		w := make(chan struct{})
		ph.wait = w
		ph.mu.Unlock()

		v, err := build()
		ph.mu.Lock()
		ph.wait = nil
		if err == nil {
			ph.v.Store(v)
		}
		ph.mu.Unlock()
		close(w)
		if err != nil {
			return nil, err
		}
		return v, nil
	}
}

// planFormat caches everything format-dependent: the packed per-tile
// cycle table, the aggregated Result totals, and the outcome of the
// warmup's round-trip verify, which every use of the format
// shares. It is immutable once published and holds no encodings: each is
// dropped at the end of its tile's warmup step. The table keeps only the
// four counts the warm paths read per tile, 16 B a tile; a tile's
// Footprint is summed into agg during the warmup and not kept.
type planFormat struct {
	tiles []tileCost
	agg   formatAgg
	// err is the sticky pricing or cross-check failure of the lowest
	// failing tile; a format that has one is never priced for a caller.
	err error
}

// tileCost is one tile's priced cycle counts, packed. warmPass makes a
// count outside uint32 the tile's sticky error, so no reader sees a
// wrapped value; readers widen to uint64 (or int) before any multiply.
type tileCost struct {
	mem, decomp, compute, dotRows uint32
}

// packCost packs tile's priced tileResult, or fails naming the tile when
// a count does not fit in uint32.
func packCost(tile *matrix.Tile, tr tileResult) (tileCost, error) {
	for _, v := range [...]int{tr.MemCycles, tr.DecompCycles, tr.ComputeCycles, tr.DotRows} {
		if v < 0 || v > math.MaxUint32 {
			return tileCost{}, fmt.Errorf("hlsim: tile (%d,%d): cycle count %d does not fit the uint32 cost table", tile.Row, tile.Col, v)
		}
	}
	return tileCost{uint32(tr.MemCycles), uint32(tr.DecompCycles), uint32(tr.ComputeCycles), uint32(tr.DotRows)}, nil
}

// pipelined returns the tile's max(mem, compute), widened.
func (tc tileCost) pipelined() uint64 { return uint64(max(tc.mem, tc.compute)) }

// formatAgg carries the Result totals aggregated over all non-zero tiles.
type formatAgg struct {
	MemCycles         uint64
	ComputeCycles     uint64
	DecompCycles      uint64
	PipelinedCycles   uint64
	IdleComputeCycles uint64
	StallMemCycles    uint64
	DotRows           uint64
	NNZ               uint64
	Footprint         formats.Footprint
	sumBalance        float64
}

// planRow is one non-zero tile row: its global row index and the end of
// its entries in the plan's cols/vals arrays. A row starts where the
// previous one ends, so the start is not stored.
type planRow struct {
	gi, end int
}

// product is one remembered A·x: a private copy of the operand x and the
// product y the rows gave for it. It is immutable once published.
type product struct {
	x, y []float64
}

// planEncodeHook, when non-nil, is called at the start of every warmup
// pass — a test seam proving that different formats warm up
// concurrently rather than serializing on a shared lock.
var planEncodeHook func(formats.Kind)

// planTileHook, when non-nil, sees every tile encoding a warmup pass
// makes and may swap it — a test seam that plants a wrong encoding for
// the verify to catch.
var planTileHook func(k formats.Kind, ti int, enc formats.Encoded) formats.Encoded

// NewPlan partitions m once at partition size p under the given hardware
// configuration. Encodings are produced lazily, once per format, on first
// use.
func NewPlan(cfg Config, m *matrix.CSR, p int) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pl := &Plan{
		cfg: cfg,
		m:   m,
		p:   p,
		pt:  matrix.Partition(m, p),
	}
	pl.ptBytes = pl.pt.MemoryBytes()
	return pl, nil
}

// Config returns the plan's hardware configuration.
func (pl *Plan) Config() Config { return pl.cfg }

// Matrix returns the planned matrix.
func (pl *Plan) Matrix() *matrix.CSR { return pl.m }

// P returns the partition size.
func (pl *Plan) P() int { return pl.p }

// Partitioning returns the cached partitioning.
func (pl *Plan) Partitioning() *matrix.Partitioning { return pl.pt }

// SetWorkers bounds the tile passes (the warmup and the exec build): they
// fan tiles out over up to n goroutines, the caller plus n-1 helpers
// borrowed from the process-wide pool (aggregation stays serial and
// tile-ordered, so results are bit-identical to a serial pass). A new
// plan works serially; 0 is treated as GOMAXPROCS.
func (pl *Plan) SetWorkers(n int) {
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	pl.helpers.Store(int32(max(n, 1) - 1))
}

// MemoryBytes returns the plan's resident footprint: the sparse tile
// spans, the functional rows/cols/vals arrays (once built), the stored
// product (once made), every cached per-format cycle table (16 B a tile),
// and every resident exec encoding at its host size (formats.HostBytes:
// float64 values, host-kernel indexes included). The warmup state is
// O(nnz + tiles·p + formats·tiles), since tiles are CSR-native; an exec
// encoding is as large as its format makes it, so a Dense one is
// O(tiles·p²).
func (pl *Plan) MemoryBytes() int64 {
	b := pl.ptBytes + pl.rowsBytes.Load()
	if pr := pl.prod.Load(); pr != nil {
		b += int64(len(pr.x)+len(pr.y)) * 8
	}
	for i := range pl.fmts {
		if pf := pl.fmts[i].warm.v.Load(); pf != nil {
			b += int64(len(pf.tiles)) * int64(unsafe.Sizeof(tileCost{}))
		}
		if ex := pl.fmts[i].ex.v.Load(); ex != nil {
			b += ex.bytes
		}
	}
	return b
}

// ensureRows copies the CSR-native per-tile row spans into the plan's
// functional arrays, once per plan, on the first multiplication — a pure
// O(nnz) copy out of the sparse tiles. The cycle-model-only uses (Trace,
// Schedule, KernelCycles, SpMMCycles) never call it.
func (pl *Plan) ensureRows() {
	pl.rowsOnce.Do(func() {
		nnz := 0
		nzRows := 0
		for _, t := range pl.pt.Tiles {
			nnz += t.NNZ()
			nzRows += t.NonZeroRows()
		}
		rows := make([]planRow, 0, nzRows)
		cols := make([]int32, 0, nnz)
		vals := make([]float64, 0, nnz)
		for _, t := range pl.pt.Tiles {
			base := int32(t.Col)
			rp, tc, tv := t.Spans()
			for i := 0; i < t.P; i++ {
				gi := t.Row + i
				if gi >= pl.m.Rows {
					break
				}
				lo, hi := rp[i], rp[i+1]
				if lo == hi {
					continue
				}
				for _, c := range tc[lo:hi] {
					cols = append(cols, base+c)
				}
				vals = append(vals, tv[lo:hi]...)
				rows = append(rows, planRow{gi: gi, end: len(cols)})
			}
		}
		pl.rows, pl.cols, pl.vals = rows, cols, vals
		pl.rowsBytes.Store(int64(len(rows))*int64(unsafe.Sizeof(planRow{})) +
			int64(len(cols))*4 + int64(len(vals))*8)
	})
}

// format returns the cached per-format state, warming the format on its
// first use by any caller — under that format's own leader guard, so
// distinct formats warm concurrently. The warmup is one pass (warmPass)
// that encodes, prices and round-trip verifies every non-zero tile, so
// every priced tile has round-tripped exactly and any stream corruption
// surfaces here rather than as a silently wrong cycle count or SpMV. A
// Kind outside the implemented range is an ErrUnknownFormat error, not a
// panic, so it propagates through Characterize/Sweep to callers (and
// services) as a client fault.
//
// Cancellation discipline: a canceled ctx aborts the warmup between tile
// chunks and returns ctx.Err(). If the canceled caller was the leader,
// the slot is left idle (never half-priced), so a later use of the same
// format on this cached plan re-runs the pass cleanly; if it was a
// waiter, the leader is unaffected. Panics and injected faults follow the
// same discipline — the slot is abandoned and the failure propagates as
// an error.
func (pl *Plan) format(ctx context.Context, k formats.Kind) (*planFormat, error) {
	if err := checkKind(k); err != nil {
		return nil, err
	}
	pf, err := pl.fmts[k].warm.do(ctx, func() (*planFormat, error) { return pl.price(ctx, k) })
	if err != nil {
		return nil, err // aborted mid-warmup; the phase stays idle
	}
	return pf, pf.err
}

// checkKind rejects a Kind outside the implemented range.
func checkKind(k formats.Kind) error {
	if k < 0 || int(k) >= formats.NumKinds {
		return fmt.Errorf("%w: kind %d", ErrUnknownFormat, int(k))
	}
	return nil
}

// price runs the warmup pass of format k into a new planFormat and
// aggregates the cycle totals and the balance sum in tile order (the
// pass already summed NNZ and Footprint).
func (pl *Plan) price(ctx context.Context, k formats.Kind) (*planFormat, error) {
	pf := &planFormat{tiles: make([]tileCost, len(pl.pt.Tiles))}
	if err := pl.warmPass(ctx, k, pf); err != nil {
		return nil, err
	}
	if pf.err != nil {
		return pf, nil
	}
	for _, tc := range pf.tiles {
		mem, comp := uint64(tc.mem), uint64(tc.compute)
		pf.agg.MemCycles += mem
		pf.agg.ComputeCycles += comp
		pf.agg.DecompCycles += uint64(tc.decomp)
		pf.agg.PipelinedCycles += max(mem, comp)
		if mem > comp {
			pf.agg.IdleComputeCycles += mem - comp
		} else {
			pf.agg.StallMemCycles += comp - mem
		}
		pf.agg.DotRows += uint64(tc.dotRows)
		pf.agg.sumBalance += float64(tc.mem) / float64(tc.compute)
	}
	return pf, nil
}

// encodeChunk is how many tiles a tile-pass participant claims at once,
// so stragglers balance; a pass lends a helper per further chunk at most,
// so tiny tile counts stay serial.
const encodeChunk = 8

// warmSlab is one tile-pass participant's reusable memory: the slab its
// warmup encodings are carved from, rewound after every tile, the current
// tile's encoding, the tile its decodes land in, and the participant's
// share of the pass's sums.
type warmSlab struct {
	sl   formats.Slab
	enc  formats.Encoded
	dec  *matrix.Tile
	sums tileSums
}

// tileSums is what a tile pass adds up over its tiles: each participant
// sums into its own warmSlab, and the pass merges the shares as the
// participants leave. Integer sums do not depend on the order, so the
// totals do not depend on the helper count.
type tileSums struct {
	nnz   uint64
	fp    formats.Footprint
	bytes int64
}

func (s *tileSums) add(o tileSums) {
	s.nnz += o.nnz
	s.fp = addFootprint(s.fp, o.fp)
	s.bytes += o.bytes
}

func addFootprint(a, b formats.Footprint) formats.Footprint {
	return formats.Footprint{
		UsefulBytes:    a.UsefulBytes + b.UsefulBytes,
		MetaBytes:      a.MetaBytes + b.MetaBytes,
		ValueLaneBytes: a.ValueLaneBytes + b.ValueLaneBytes,
		IndexLaneBytes: a.IndexLaneBytes + b.IndexLaneBytes,
	}
}

// reset drops the current tile's encoding and rewinds the slab.
func (ws *warmSlab) reset() {
	ws.enc = nil
	ws.sl.Reset()
}

// slabPool lends each tile-pass participant a warmSlab. No warmup
// encoding outlives its tile's step, so a participant resets its slab
// after every tile and once more before returning it here (a panic
// included), and the next pass starts from a clean slab.
var slabPool = sync.Pool{New: func() any { return &warmSlab{dec: matrix.NewTile(1, 0, 0)} }}

// tileErr is a sticky failure of one tile: a model gap in pricing or a
// failed decode cross-check.
type tileErr struct {
	ti  int
	err error
}

// storeLowest keeps the failure of the lowest tile index.
func storeLowest(p *atomic.Pointer[tileErr], ti int, err error) {
	te := &tileErr{ti, err}
	for {
		cur := p.Load()
		if cur != nil && cur.ti <= ti {
			return
		}
		if p.CompareAndSwap(cur, te) {
			return
		}
	}
}

// tileStage is one step a tile pass takes on every tile, behind its fault
// point: the point fires before the step, and a panic inside the step is
// reported at that point. An error the step returns is the tile's sticky
// failure.
type tileStage struct {
	pt   *faults.P
	step func(ws *warmSlab, i int) error
}

// tilePass is one chunk-claiming pass over the plan's non-zero tiles, the
// shape of both the warmup and the exec build. The caller and however
// many pool helpers are free claim encodeChunk tiles at a time and run
// every stage on each tile in order, writing index-addressed slots, so
// the result does not depend on the helper count. Cancellation is checked
// between chunks by every participant.
//
// A step's error is sticky: it stops the claiming of new chunks, the
// chunks already claimed finish, and the pass reports the failure of the
// lowest tile index — the one a serial pass would report. An injected
// fault, or a panic in any participant (an encoder or decoder invariant
// violation, an injected chaos fault) recovered into a
// *resilience.PanicError naming the point of the stage it hit, aborts
// the pass instead, with the first such fault kept.
type tilePass struct {
	ctx    context.Context
	n      int
	stages []tileStage
	next   atomic.Int64
	fail   atomic.Pointer[error]
	sticky atomic.Pointer[tileErr]
	wg     sync.WaitGroup

	// mu guards sums, the participants' merged tileSums.
	mu   sync.Mutex
	sums tileSums
}

func (t *tilePass) run() {
	ws := slabPool.Get().(*warmSlab)
	at := t.stages[0].pt
	defer func() {
		if pe := resilience.Recovered(at.Name(), recover()); pe != nil {
			storeFirst(&t.fail, pe)
		}
		t.mu.Lock()
		t.sums.add(ws.sums)
		t.mu.Unlock()
		ws.sums = tileSums{}
		ws.reset()
		slabPool.Put(ws)
	}()
	for t.ctx.Err() == nil && t.fail.Load() == nil && t.sticky.Load() == nil {
		lo := int(t.next.Add(encodeChunk)) - encodeChunk
		if lo >= t.n {
			return
		}
	chunk:
		for i := lo; i < min(lo+encodeChunk, t.n); i++ {
			for _, s := range t.stages {
				at = s.pt
				if err := at.Hit(); err != nil {
					storeFirst(&t.fail, err)
					return
				}
				if err := s.step(ws, i); err != nil {
					storeLowest(&t.sticky, i, err)
					break chunk
				}
			}
			ws.reset()
		}
	}
}

// runTiles runs one tile pass of the given stages over the plan's tiles,
// on the caller plus up to SetWorkers-1 helpers borrowed from the
// process-wide pool. It returns the pass's abort (ctx.Err() or the first
// fault) as err, and otherwise the steps' sums and the lowest failing
// tile's error as sticky.
func (pl *Plan) runTiles(ctx context.Context, stages ...tileStage) (sums tileSums, sticky, err error) {
	t := &tilePass{ctx: ctx, n: len(pl.pt.Tiles), stages: stages}
	defaultPool.fanOut(t, &t.wg, min(int(pl.helpers.Load()), t.n/encodeChunk-1))
	if err := ctx.Err(); err != nil {
		return tileSums{}, nil, err
	}
	if err := loadErr(&t.fail); err != nil {
		return tileSums{}, nil, err
	}
	if te := t.sticky.Load(); te != nil {
		sticky = te.err
	}
	return t.sums, sticky, nil
}

// warmPass walks every non-zero tile of format k once, one step per tile:
// encode it into the participant's slab, price it into pf.tiles (its NNZ
// and Footprint into the pass's sums), verify it, and rewind the slab.
// The verify (decodeCheck) compares the streams of the nine matched
// formats (Dense, CSR, BCSR, COO, ELL, SELL, CSC, LIL and DIA) with the
// original tile's CSR arrays, and decodes the other four (JDS, SELL-C-σ,
// ELL+COO and DOK) into the participant's reused tile and cross-checks
// that against the original. It is the plan's only warmup: whichever use of a
// format comes first runs it, so no tile is priced without its round
// trip. hlsim.encode.tile fires before each encode and hlsim.verify.tile
// before each verify.
//
// A model gap, a cycle count outside the packed table's uint32, or a
// failed cross-check becomes pf.err. An abort (a cancellation, an
// injected fault, a recovered panic) is returned, and the caller
// publishes nothing, so a retry re-runs the pass from scratch and the
// result is bit-identical to a fault-free run.
func (pl *Plan) warmPass(ctx context.Context, k formats.Kind, pf *planFormat) error {
	if planEncodeHook != nil {
		planEncodeHook(k)
	}
	tiles := pl.pt.Tiles
	sums, sticky, err := pl.runTiles(ctx,
		tileStage{ptEncodeTile, func(ws *warmSlab, i int) error {
			ws.enc = ws.sl.Encode(k, tiles[i])
			if planTileHook != nil {
				ws.enc = planTileHook(k, i, ws.enc)
			}
			// A model gap is unreachable for in-range Kinds (format()
			// guards the range), but it must surface as the slot's sticky
			// error, never a panic in a worker.
			tr, st, err := runTile(pl.cfg, ws.enc)
			if err != nil {
				return err
			}
			if pf.tiles[i], err = packCost(tiles[i], tr); err != nil {
				return err
			}
			ws.sums.nnz += uint64(st.NNZ)
			ws.sums.fp = addFootprint(ws.sums.fp, tr.Footprint)
			return nil
		}},
		tileStage{ptVerifyTile, func(ws *warmSlab, i int) error {
			return decodeCheck(k, tiles[i], ws.enc, ws.dec)
		}})
	if err != nil {
		return err
	}
	pf.err = sticky
	pf.agg.NNZ, pf.agg.Footprint = sums.nnz, sums.fp
	return nil
}

// decodeCheck verifies that enc round-trips to tile. The streams of the
// nine matched formats — the six row-major ones, CSC and LIL's column
// lists, and DIA — are compared with the tile's CSR arrays directly
// (formats.Matches). The other four formats, and any stream that
// comparison cannot prove, are decoded into dec and cross-checked against
// tile, the only route that builds an error, so the ErrCorrupt and decode
// mismatch messages do not depend on the format's route.
func decodeCheck(k formats.Kind, tile *matrix.Tile, enc formats.Encoded, dec *matrix.Tile) error {
	if formats.Matches(enc, tile) {
		return nil
	}
	if err := enc.DecodeInto(dec); err != nil {
		return fmt.Errorf("hlsim: tile (%d,%d): %w", tile.Row, tile.Col, err)
	}
	return crossCheck(k, tile, dec)
}

// crossCheck compares a decoded tile against the original — O(nnz), with
// NaN-tolerant exact equality: NaN entries round-trip as NaN (the mtx
// loader admits them), which must not read as corruption. The check is one
// flat compare of the two tiles' entries; only on a mismatch does it walk
// the rows, to name the first differing row and column.
func crossCheck(k formats.Kind, tile, dec *matrix.Tile) error {
	if tile.SameEntries(dec) {
		return nil
	}
	for i := 0; i < tile.P; i++ {
		tc, tv := tile.RowView(i)
		dc, dv := dec.RowView(i)
		if len(tc) != len(dc) {
			return fmt.Errorf("hlsim: tile (%d,%d): %v decode mismatch at local row %d: %d non-zeros != %d",
				tile.Row, tile.Col, k, i, len(dc), len(tc))
		}
		for x := range tc {
			if tc[x] != dc[x] {
				return fmt.Errorf("hlsim: tile (%d,%d): %v decode mismatch at local row %d: column %d != %d",
					tile.Row, tile.Col, k, i, dc[x], tc[x])
			}
			if dv[x] != tv[x] && !(math.IsNaN(dv[x]) && math.IsNaN(tv[x])) {
				return fmt.Errorf("hlsim: tile (%d,%d): %v decode mismatch at local (%d,%d): %g != %g",
					tile.Row, tile.Col, k, i, tc[x], dv[x], tv[x])
			}
		}
	}
	return nil
}

// slicesOverlap reports whether the two slices' element ranges share any
// memory (compared by address range, so offset overlaps are caught too).
func slicesOverlap(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	pb := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	const w = unsafe.Sizeof(float64(0))
	return pa < pb+uintptr(len(b))*w && pb < pa+uintptr(len(a))*w
}

// spmv accumulates y += A·x through the plan's tile rows, reproducing the
// per-tile-row accumulation order of the modelled pipeline. Like the
// software reference CSR.MulVec, it multiplies only stored non-zeros: a
// structural zero never meets a non-finite operand entry (0·Inf, 0·NaN),
// exactly as in the golden model the output is verified against.
func (pl *Plan) spmv(x []float64, y []float64) {
	pl.ensureRows()
	start := 0
	for _, r := range pl.rows {
		s := 0.0
		for k := start; k < r.end; k++ {
			s += pl.vals[k] * x[pl.cols[k]]
		}
		y[r.gi] += s
		start = r.end
	}
}

// mulVec overwrites y (m.Rows long) with A·x on the modelled path. The
// product does not depend on the format, so the plan keeps the one for
// the first operand it multiplies: an operand whose bits equal the stored
// one gets a copy of the stored y, and any other operand walks the rows,
// allocation-free. A sweep multiplies one operand per format, so it walks
// the rows once per plan.
func (pl *Plan) mulVec(x, y []float64) {
	pr := pl.prod.Load()
	if pr != nil && SameBits(pr.x, x) {
		copy(y, pr.y)
		return
	}
	clear(y)
	pl.spmv(x, y)
	if pr == nil {
		pl.prod.CompareAndSwap(nil, &product{x: slices.Clone(x), y: slices.Clone(y)})
	}
}

// SameBits reports whether a and b hold the same bits, as one byte
// compare: -0 differs from +0, and a NaN matches only its own payload.
// The sweep's functional check uses it to pass an output whose bits equal
// one that already passed against the same reference.
func SameBits(a, b []float64) bool {
	return len(a) == len(b) && bytes.Equal(float64Bytes(a), float64Bytes(b))
}

// float64Bytes views v's memory as bytes, without a copy.
func float64Bytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*8)
}

// RunContext streams every non-zero partition through the modelled
// accelerator in format k, multiplying by x. Cycle totals come from the
// cached per-format aggregates; the functional product is format
// independent and paid once per plan for the first operand (later calls
// with the same operand bits copy it), and once per call for any other
// operand. A cancellation aborts the one-time warmup (encode and
// decode-verify) between tile chunks and returns ctx.Err() without
// poisoning the plan's per-format slots — a later run of the same format
// redoes the aborted phase cleanly. A warm format ignores the context
// entirely (the remaining work is pure dot products or a copy).
func (pl *Plan) RunContext(ctx context.Context, k formats.Kind, x []float64) (*Result, error) {
	r := new(Result)
	if err := pl.RunIntoContext(ctx, k, x, r); err != nil {
		return nil, err
	}
	return r, nil
}

// RunIntoContext is RunContext writing into a caller-held Result,
// reusing r.Y when its capacity suffices: the warm path performs zero
// allocations and no context checks, so solver loops and sweep services
// can stream SpMVs with no GC traffic. Only the plan's first
// multiplication allocates, to keep a copy of its operand and product; a
// later call whose x has the same bits copies that product instead of
// walking the rows. The previous contents of r are overwritten. The input
// x must not alias the reused r.Y (the output is cleared before
// accumulation, which would zero the input); feeding an iteration's
// output back in requires a second Result, as kernels.Accelerator's double
// buffering does — the aliasing is detected and rejected.
func (pl *Plan) RunIntoContext(ctx context.Context, k formats.Kind, x []float64, r *Result) error {
	if len(x) != pl.m.Cols {
		return fmt.Errorf("hlsim: vector length %d for %d-column matrix", len(x), pl.m.Cols)
	}
	pf, err := pl.format(ctx, k)
	if err != nil {
		return err
	}
	y := r.Y
	if cap(y) < pl.m.Rows {
		y = make([]float64, pl.m.Rows)
	} else {
		if slicesOverlap(x, y[:cap(y)]) {
			return fmt.Errorf("hlsim: RunInto input x overlaps the reused r.Y buffer; use a second Result to feed an output back in")
		}
		y = y[:pl.m.Rows]
	}
	pl.fillResult(r, k, pf, y)
	pl.mulVec(x, y)
	return nil
}

// fillResult overwrites r with the modelled run of format k over output
// buffer y: the plan's tile counts plus the format's aggregated cycle
// costs. Shared by the modelled (RunIntoContext) and executed
// (RunExecIntoContext) warm paths; it allocates nothing.
func (pl *Plan) fillResult(r *Result, k formats.Kind, pf *planFormat, y []float64) {
	*r = Result{
		Kind:              k,
		P:                 pl.p,
		Y:                 y,
		NonZeroTiles:      len(pl.pt.Tiles),
		TotalTiles:        pl.pt.TotalTiles,
		MemCycles:         pf.agg.MemCycles,
		ComputeCycles:     pf.agg.ComputeCycles,
		DecompCycles:      pf.agg.DecompCycles,
		PipelinedCycles:   pf.agg.PipelinedCycles,
		IdleComputeCycles: pf.agg.IdleComputeCycles,
		StallMemCycles:    pf.agg.StallMemCycles,
		DotRows:           pf.agg.DotRows,
		NNZ:               pf.agg.NNZ,
		Footprint:         pf.agg.Footprint,
		sumBalance:        pf.agg.sumBalance,
		cfg:               pl.cfg,
	}
}

// RunParallel distributes the non-zero partitions across `lanes`
// independent pipeline instances (round-robin, the static schedule a
// streaming DMA would use) using the cached per-tile costs. With lanes=1
// it degenerates to RunContext's pipelined total.
func (pl *Plan) RunParallel(k formats.Kind, x []float64, lanes int) (*ParallelResult, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("hlsim: RunParallel with %d lanes", lanes)
	}
	if len(x) != pl.m.Cols {
		return nil, fmt.Errorf("hlsim: vector length %d for %d-column matrix", len(x), pl.m.Cols)
	}
	pf, err := pl.format(context.Background(), k)
	if err != nil {
		return nil, err
	}
	r := &ParallelResult{
		Kind:         k,
		P:            pl.p,
		Lanes:        lanes,
		Y:            make([]float64, pl.m.Rows),
		LaneCycles:   make([]uint64, lanes),
		NonZeroTiles: len(pl.pt.Tiles),
		cfg:          pl.cfg,
	}
	for i, tc := range pf.tiles {
		r.LaneCycles[i%lanes] += tc.pipelined()
	}
	for _, c := range r.LaneCycles {
		if c > r.TotalCycles {
			r.TotalCycles = c
		}
	}
	pl.mulVec(x, r.Y)
	return r, nil
}

// RunSpMM multiplies the planned matrix by the dense operand b
// (m.Cols × cols, row-major) through the modelled pipeline.
func (pl *Plan) RunSpMM(k formats.Kind, b []float64, cols int) (*SpMMResult, error) {
	if cols < 1 {
		return nil, fmt.Errorf("hlsim: RunSpMM with %d columns", cols)
	}
	if len(b) != pl.m.Cols*cols {
		return nil, fmt.Errorf("hlsim: operand is %d values, want %d×%d", len(b), pl.m.Cols, cols)
	}
	pf, err := pl.format(context.Background(), k)
	if err != nil {
		return nil, err
	}
	r := &SpMMResult{
		Kind: k, P: pl.p, Columns: cols,
		Y:            make([]float64, pl.m.Rows*cols),
		NonZeroTiles: len(pl.pt.Tiles),
		cfg:          pl.cfg,
	}
	colDot := uint64(cols) * uint64(pl.cfg.DotLatency(pl.p))
	for _, tc := range pf.tiles {
		mem, comp := uint64(tc.mem), uint64(tc.decomp)+uint64(tc.dotRows)*colDot
		r.MemCycles += mem
		r.DecompCycles += uint64(tc.decomp)
		r.ComputeCycles += comp
		r.PipelinedCycles += max(mem, comp)
	}
	pl.ensureRows()
	start := 0
	for _, row := range pl.rows {
		for kk := start; kk < row.end; kk++ {
			v := pl.vals[kk]
			gj := int(pl.cols[kk])
			for c := 0; c < cols; c++ {
				r.Y[row.gi*cols+c] += v * b[gj*cols+c]
			}
		}
		start = row.end
	}
	return r, nil
}

// Trace returns the per-partition streaming record in streaming order. A
// first use of k warms it in full, verify included (see format).
func (pl *Plan) Trace(k formats.Kind) ([]TileTrace, error) {
	pf, err := pl.format(context.Background(), k)
	if err != nil {
		return nil, err
	}
	out := make([]TileTrace, 0, len(pl.pt.Tiles))
	for i, tc := range pf.tiles {
		tile := pl.pt.Tiles[i]
		mem, comp := int(tc.mem), int(tc.compute)
		tt := TileTrace{
			Row: tile.Row, Col: tile.Col, NNZ: tile.NNZ(),
			MemCycles:     mem,
			DecompCycles:  int(tc.decomp),
			ComputeCycles: comp,
			Pipelined:     max(mem, comp),
			MemoryBound:   mem > comp,
		}
		if tt.MemoryBound {
			tt.Bubble = mem - comp
		} else {
			tt.Bubble = comp - mem
		}
		out = append(out, tt)
	}
	return out, nil
}

// Schedule computes the event-level three-stage pipeline timeline from
// the cached per-tile costs; like Trace, a first use of k warms it in
// full.
func (pl *Plan) Schedule(k formats.Kind) (*Schedule, error) {
	pf, err := pl.format(context.Background(), k)
	if err != nil {
		return nil, err
	}
	s := &Schedule{Kind: k, P: pl.p, Tiles: make([]StageTimes, 0, len(pf.tiles)), cfg: pl.cfg}
	var memFree, compFree, writeFree uint64
	for _, tc := range pf.tiles {
		var st StageTimes
		st.MemStart = memFree
		st.MemEnd = st.MemStart + uint64(tc.mem)
		memFree = st.MemEnd

		st.ComputeStart = max(st.MemEnd, compFree)
		st.ComputeEnd = st.ComputeStart + uint64(tc.compute)
		compFree = st.ComputeEnd

		st.WriteStart = max(st.ComputeEnd, writeFree)
		st.WriteEnd = st.WriteStart + uint64(pl.cfg.writeCycles(pl.p))
		writeFree = st.WriteEnd

		s.Tiles = append(s.Tiles, st)
	}
	s.Makespan = writeFree
	return s, nil
}
