package hlsim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workerPool is a set of parked worker goroutines that lends helpers to
// every tile fan-out of the plans using it: the warmup pass, the exec
// build and the exec SpMV. Dispatch is a non-blocking handoff, so a job
// reaches only the workers parked at that instant; a busy pool lends
// fewer helpers and a drained one leaves the caller working alone,
// instead of oversubscribing the host. The caller always works too.
// Parked workers are the pool's tokens: a canceled or failed job parks
// its helpers again, so there is nothing to leak.
type workerPool struct {
	queue chan handoff
	quit  chan struct{}
	idle  atomic.Int32
	size  int
}

// runner is one fan-out's shared work. Every participant, the caller
// included, calls run, which claims work until none remains and contains
// its own panics.
type runner interface{ run() }

// handoff carries a job to a parked worker; the worker calls wg.Done
// once its share is done.
type handoff struct {
	r  runner
	wg *sync.WaitGroup
}

// defaultPool is the process-wide pool every plan borrows from:
// GOMAXPROCS−1 workers, so a full-width fan-out (caller included) matches
// the host's parallelism. It starts at package init, so its goroutines
// exist before any caller counts goroutines. Only in-package tests swap
// it, while no plan of theirs is running.
var defaultPool = newPool(runtime.GOMAXPROCS(0) - 1)

// newPool starts a pool of `workers` parked helper goroutines (0 means
// every caller works alone). Once every dispatched job has completed,
// failed or been canceled, idle equals size.
func newPool(workers int) *workerPool {
	if workers < 0 {
		workers = 0
	}
	p := &workerPool{
		queue: make(chan handoff),
		quit:  make(chan struct{}),
		size:  workers,
	}
	p.idle.Store(int32(workers))
	for i := 0; i < workers; i++ {
		go p.work()
	}
	return p
}

// work parks until a job or stop arrives. The worker counts itself idle
// again before Done, so once a dispatcher's Wait returns, every helper it
// reached is already counted idle — the invariant the leak tests assert.
func (p *workerPool) work() {
	for {
		select {
		case h := <-p.queue:
			p.idle.Add(-1)
			h.r.run()
			p.idle.Add(1)
			h.wg.Done()
		case <-p.quit:
			return
		}
	}
}

// fanOut hands r to at most `helpers` parked workers without blocking,
// runs it on the caller too, and waits for every worker it reached. wg
// belongs to the job, so the warm exec path allocates nothing.
func (p *workerPool) fanOut(r runner, wg *sync.WaitGroup, helpers int) {
dispatch:
	for h := 0; h < helpers; h++ {
		wg.Add(1)
		select {
		case p.queue <- handoff{r, wg}: // a parked worker takes the job
		default:
			wg.Done()
			break dispatch // pool busy: fewer helpers
		}
	}
	r.run()
	wg.Wait()
}

// stop stops the parked workers. Jobs already dispatched run to
// completion; stop never strands a caller's WaitGroup.
func (p *workerPool) stop() { close(p.quit) }
