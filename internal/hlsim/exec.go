package hlsim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"copernicus/internal/formats"
	"copernicus/internal/matrix"
	"copernicus/internal/resilience"
)

// Tile-parallel executable SpMV: RunExecIntoContext multiplies through
// the format's own encoded layout (formats.Encoded.SpMV) instead of the
// plan's CSR-native reference rows, fanning block rows out over helpers
// borrowed from the process-wide worker pool (pool.go).
//
// Parallel decomposition: the partitioning emits tiles block-row-major,
// so each grid block row is a contiguous tile range whose kernels write
// a private y range. Workers claim whole block rows from an atomic
// counter — exclusive output ownership, no atomics on y, and a result
// that is bit-for-bit independent of the thread count (each block row's
// tiles always run in ascending block-column order on one goroutine).
//
// Cancellation is checked between block-row claims; a helper that
// observes it simply stops claiming and parks again, so the pool's
// capacity is fully restored.

// execSpan is one grid block row's ownership record: the half-open
// output range y[y0:y1) and the contiguous tile range Tiles[t0:t1) that
// writes it. Spans cover every block row — including all-zero ones with
// t0 == t1 — so clearing y span-by-span covers the whole output.
type execSpan struct {
	y0, y1 int
	t0, t1 int
}

// ensureSpans builds the block-row ownership table once per plan.
func (pl *Plan) ensureSpans() {
	pl.spansOnce.Do(func() {
		tiles := pl.pt.Tiles
		spans := make([]execSpan, 0, pl.pt.GridRows)
		ti := 0
		for br := 0; br < pl.pt.GridRows; br++ {
			row := br * pl.p
			t0 := ti
			for ti < len(tiles) && tiles[ti].Row == row {
				ti++
			}
			spans = append(spans, execSpan{
				y0: row,
				y1: min(row+pl.p, pl.m.Rows),
				t0: t0,
				t1: ti,
			})
		}
		pl.spans = spans
	})
}

// planExec is one format's executable state: a fresh re-encode of every
// non-zero tile, kept resident for kernel traversal (no warmup encoding
// outlives its tile's step, so the exec path owns its own copy). bytes
// is its host size for MemoryBytes: the encs slice plus each encoding's
// formats.HostBytes.
type planExec struct {
	encs  []formats.Encoded
	bytes int64
}

// exec returns the cached executable state for format k, building it at
// most once per (plan, format) under the slot's exec leader guard — the
// same cancellation-safe discipline as format: a canceled
// leader publishes nothing and the next caller rebuilds cleanly.
func (pl *Plan) exec(ctx context.Context, k formats.Kind) (*planExec, error) {
	return pl.fmts[k].ex.do(ctx, func() (*planExec, error) { return pl.buildExec(ctx, k) })
}

// buildExec re-encodes every non-zero tile in format k for resident
// kernel use in one tile pass (runTiles), so chunk claiming, helper
// borrowing, cancellation and fault containment are the warmup's:
// hlsim.exec.build fires before each encode, and an abort publishes
// nothing.
func (pl *Plan) buildExec(ctx context.Context, k formats.Kind) (*planExec, error) {
	tiles := pl.pt.Tiles
	ex := &planExec{encs: make([]formats.Encoded, len(tiles))}
	sums, _, err := pl.runTiles(ctx, tileStage{ptExecBuild, func(ws *warmSlab, i int) error {
		ex.encs[i] = formats.Encode(k, tiles[i])
		ws.sums.bytes += formats.HostBytes(ex.encs[i])
		return nil
	}})
	if err != nil {
		return nil, err
	}
	ex.bytes = int64(len(ex.encs))*int64(unsafe.Sizeof(formats.Encoded(nil))) + sums.bytes
	return ex, nil
}

// execJob is one RunExecIntoContext dispatch, pooled so the warm path
// performs zero allocations. Workers and the caller claim block-row spans from
// next; done (nil for uncancellable contexts) and failed are polled
// between claims, so a cancellation or a contained fault stops every
// participant at the next span boundary.
type execJob struct {
	encs   []formats.Encoded
	tiles  []*matrix.Tile
	spans  []execSpan
	x, y   []float64
	done   <-chan struct{}
	next   atomic.Int64
	wg     sync.WaitGroup
	failed atomic.Bool
	errp   atomic.Pointer[error]
}

var execJobPool = sync.Pool{New: func() any { return new(execJob) }}

// fail records the job's first failure (a recovered panic or an injected
// fault) and stops further span claims. Later failures are discarded.
func (j *execJob) fail(err error) {
	storeFirst(&j.errp, err)
	j.failed.Store(true)
}

// err returns the job's recorded failure, if any.
func (j *execJob) err() error { return loadErr(&j.errp) }

// run claims block rows until none remain, the job is canceled, or a
// participant failed. Each claimed span clears its own y range and
// accumulates its tiles in ascending block-column order through the
// format kernels. A panic inside a kernel (or an injected chaos fault) is
// recovered into a *resilience.PanicError recorded on the job, on a pool
// helper and the caller alike, so it never unwinds past the dispatch.
func (j *execJob) run() {
	defer func() {
		if pe := resilience.Recovered(ptExecSpan.Name(), recover()); pe != nil {
			j.fail(pe)
		}
	}()
	nspans := int64(len(j.spans))
	for {
		if j.failed.Load() {
			return
		}
		if j.done != nil {
			select {
			case <-j.done:
				return
			default:
			}
		}
		s := j.next.Add(1) - 1
		if s >= nspans {
			return
		}
		if err := ptExecSpan.Hit(); err != nil {
			j.fail(err)
			return
		}
		sp := j.spans[s]
		y := j.y[sp.y0:sp.y1]
		clear(y)
		for ti := sp.t0; ti < sp.t1; ti++ {
			j.encs[ti].SpMV(j.x[j.tiles[ti].Col:], y)
		}
	}
}

// RunExecIntoContext is RunIntoContext through the executable format
// kernels: y = A·x computed by walking format k's own encoded layout tile
// by tile, with block rows fanned out across up to `threads` goroutines
// (the caller plus helpers borrowed from the process-wide pool; a busy pool
// lends fewer). The result is bit-for-bit
// independent of the thread count, and — for the row-ordered kernels (see
// formats/spmv.go) — bit-identical to RunIntoContext when every block row
// spans a single tile column; multi-tile rows and the column-ordered
// kernels agree within FP-reassociation tolerance. Cycle totals and
// footprints in r come from the same cached per-format aggregates as
// RunIntoContext. The warm path performs zero allocations.
//
// Cancellation aborts the one-time warmup (encode, decode-verify, exec
// build) between tile chunks and the multiplication itself between
// block-row claims, returning ctx.Err(); r's contents are then
// unspecified. A warm uncancellable call (context.Background) polls
// nothing.
func (pl *Plan) RunExecIntoContext(ctx context.Context, k formats.Kind, x []float64, r *Result, threads int) error {
	if threads < 1 {
		return fmt.Errorf("hlsim: RunExecInto with %d threads", threads)
	}
	if len(x) != pl.m.Cols {
		return fmt.Errorf("hlsim: vector length %d for %d-column matrix", len(x), pl.m.Cols)
	}
	pf, err := pl.format(ctx, k)
	if err != nil {
		return err
	}
	ex, err := pl.exec(ctx, k)
	if err != nil {
		return err
	}
	pl.ensureSpans()
	y := r.Y
	if cap(y) < pl.m.Rows {
		y = make([]float64, pl.m.Rows)
	} else {
		if slicesOverlap(x, y[:cap(y)]) {
			return fmt.Errorf("hlsim: RunExecInto input x overlaps the reused r.Y buffer; use a second Result to feed an output back in")
		}
		y = y[:pl.m.Rows]
		// No global clear: every span clears its own y range, and the
		// spans cover [0, rows) including all-zero block rows.
	}
	pl.fillResult(r, k, pf, y)

	job := execJobPool.Get().(*execJob)
	job.encs, job.tiles, job.spans = ex.encs, pl.pt.Tiles, pl.spans
	job.x, job.y = x, y
	job.done = ctx.Done()
	job.next.Store(0)
	job.failed.Store(false)
	job.errp.Store(nil)

	defaultPool.fanOut(job, &job.wg, min(threads-1, len(pl.spans)-1))
	ferr := job.err()

	job.encs, job.tiles, job.spans = nil, nil, nil
	job.x, job.y, job.done = nil, nil, nil
	job.errp.Store(nil)
	execJobPool.Put(job)
	if ferr != nil {
		return ferr
	}
	return ctx.Err()
}
