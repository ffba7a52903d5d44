package service

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"copernicus/internal/cluster"
	"copernicus/internal/core"
	"copernicus/internal/jobs"
	"copernicus/internal/workloads"
)

// Options configures a Server. Zero values take the documented defaults.
type Options struct {
	// Engine is the characterization engine to serve; nil builds one
	// with the calibrated default hardware model. The engine's plan
	// cache is what makes a warm repeated request amortized — the server
	// never drops it except when a matrix is deleted.
	Engine *core.Engine
	// Scale sizes the pre-registered built-in suites (default 256).
	Scale int
	// CacheEntries bounds the sweep-result LRU cache (default 256).
	CacheEntries int
	// MaxUploadBytes bounds an upload request body (default 32 MiB).
	MaxUploadBytes int64
	// MaxMatrixDim and MaxMatrixEntries bound an uploaded matrix's
	// declared shape (defaults 1<<20 and 1<<24); the size line is
	// checked before any entry is parsed.
	MaxMatrixDim     int
	MaxMatrixEntries int
	// JobWorkers is the number of background job runner goroutines
	// (default 1: each sweep job already parallelizes its groups on the
	// engine pool). JobQueue bounds queued-but-unstarted jobs (default
	// jobs.DefaultQueue); a full queue rejects submissions with 429.
	JobWorkers int
	JobQueue   int
	// JobRetries is the total attempt budget per background job: a job
	// whose attempt fails retryably (a recovered panic, an injected
	// transient fault) is re-run from scratch with backoff up to this
	// many attempts, then quarantined. Zero takes the default of 2;
	// negative disables retry (one attempt).
	JobRetries int
	// RequestTimeout is the server-side deadline cap applied to every
	// synchronous compute request (sweep, characterize, advise): compute
	// exceeding it is aborted and answered 503. Zero takes the default
	// of 60s; negative disables the cap. Job event streams (SSE) are
	// never capped — they observe background work rather than hold
	// compute.
	RequestTimeout time.Duration
	// Cluster, when non-nil, turns the server into a coordinator: cold
	// sweep groups are fanned out to the fleet's owning workers over the
	// columnar wire format (with replica re-dispatch and local fallback)
	// instead of computing locally. New starts the coordinator's health
	// prober and Shutdown closes it. Requests carrying the
	// cluster-internal header always compute locally — the dispatch-loop
	// guard.
	Cluster *cluster.Coordinator
}

func (o Options) withDefaults() Options {
	if o.Engine == nil {
		o.Engine = core.New()
	}
	if o.Scale <= 0 {
		o.Scale = 256
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 256
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 32 << 20
	}
	if o.MaxMatrixDim <= 0 {
		o.MaxMatrixDim = 1 << 20
	}
	if o.MaxMatrixEntries <= 0 {
		o.MaxMatrixEntries = 1 << 24
	}
	if o.JobWorkers <= 0 {
		o.JobWorkers = 1
	}
	if o.JobQueue <= 0 {
		o.JobQueue = jobs.DefaultQueue
	}
	switch {
	case o.JobRetries == 0:
		o.JobRetries = 2
	case o.JobRetries < 0:
		o.JobRetries = 1
	}
	switch {
	case o.RequestTimeout == 0:
		o.RequestTimeout = 60 * time.Second
	case o.RequestTimeout < 0:
		o.RequestTimeout = 0
	}
	return o
}

// Server is the long-running characterization service: registry, cached
// sweep API, and advisor, sharing one warm engine. Safe for concurrent
// use; construct with New and mount Handler on an http.Server.
type Server struct {
	opts    Options
	engine  *core.Engine
	reg     *Registry
	cache   *resultCache
	jobs    *jobs.Manager
	cluster *cluster.Coordinator // nil on plain (non-coordinator) servers
	mux     *http.ServeMux
	start   time.Time

	// baseCtx is the server's lifetime context: Shutdown cancels it,
	// which aborts every in-flight engine call (request contexts are
	// joined with it) and every queued and running job — draining stops
	// compute instead of waiting it out.
	baseCtx context.Context
	stop    context.CancelFunc

	// bmu guards bstats: per-backend sweep-cache hit/miss tallies.
	// Entries in the shared result cache already isolate by backend
	// (the key embeds the backend ID); these counters expose each
	// backend's hit rate separately on /v1/stats.
	bmu    sync.Mutex
	bstats map[string]*BackendStats

	// panics counts handler panics recovered by the middleware — each
	// one answered 500 instead of killing the process.
	panics atomic.Uint64

	// encJSON/encNDJSON/encCol tally serving traffic per content type
	// (responses, bytes, encodes, encode time); encResident gauges the
	// bytes currently held by cached pre-encoded response bodies — it
	// rises as warm entries build their slabs and falls when the result
	// cache evicts or invalidates them (see encoding.go).
	encJSON     encCounter
	encNDJSON   encCounter
	encCol      encCounter
	encResident atomic.Int64
}

// BackendStats is the per-backend slice of sweep-cache traffic: Hits are
// requests served from (or shared with) a cached sweep of this backend,
// Misses ran the engine under it.
type BackendStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// noteBackend tallies one sweep request against its backend.
func (s *Server) noteBackend(id string, hit bool) {
	s.bmu.Lock()
	st, ok := s.bstats[id]
	if !ok {
		st = &BackendStats{}
		s.bstats[id] = st
	}
	if hit {
		st.Hits++
	} else {
		st.Misses++
	}
	s.bmu.Unlock()
}

// backendStats snapshots the per-backend counters.
func (s *Server) backendStats() map[string]BackendStats {
	s.bmu.Lock()
	out := make(map[string]BackendStats, len(s.bstats))
	for id, st := range s.bstats {
		out[id] = *st
	}
	s.bmu.Unlock()
	return out
}

// New builds a server and pre-registers the built-in workload suites
// (SuiteSparse surrogates by their Table 1 two-letter IDs, the random
// suite as R<density>, the band suite as B<width>).
func New(o Options) *Server {
	o = o.withDefaults()
	baseCtx, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:    o,
		engine:  o.Engine,
		reg:     newRegistry(),
		cache:   newResultCache(o.CacheEntries),
		jobs:    jobs.NewManager(baseCtx, o.JobWorkers, o.JobQueue),
		cluster: o.Cluster,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		baseCtx: baseCtx,
		stop:    stop,
		bstats:  map[string]*BackendStats{},
	}
	if s.cluster != nil {
		s.cluster.Start()
	}
	// Entries leaving the cache release their pre-encoded bodies from
	// the resident-bytes gauge (called with the cache lock held; drop
	// only takes the entry's own lock).
	s.cache.onEvict = func(_ string, val any) {
		if e, ok := val.(*sweepEntry); ok {
			e.drop(&s.encResident)
		}
	}
	s.jobs.SetRetries(jobs.Retries{
		Max:       o.JobRetries,
		BaseDelay: 50 * time.Millisecond,
		MaxDelay:  time.Second,
	})
	c := workloads.Config{Scale: o.Scale, RandomDim: o.Scale, BandDim: o.Scale}
	for _, w := range workloads.SuiteSparse(c) {
		s.reg.addBuiltin(w.ID, w.Name, w.Kind, w.M)
	}
	for _, w := range workloads.RandomSuite(c) {
		s.reg.addBuiltin(w.ID, w.Name, w.Kind, w.M)
	}
	for _, w := range workloads.BandSuite(c) {
		s.reg.addBuiltin(w.ID, w.Name, w.Kind, w.M)
	}
	s.routes()
	return s
}

// Handler returns the service's HTTP handler: the route mux behind the
// panic-recovery middleware.
func (s *Server) Handler() http.Handler { return s.recoverer(s.mux) }

// HandlerPanics returns how many handler panics the recovery middleware
// has absorbed (also surfaced under /v1/stats "failures").
func (s *Server) HandlerPanics() uint64 { return s.panics.Load() }

// recoverer contains handler panics: a panicking request is answered
// with a structured 500 (when the response hasn't started) and counted,
// instead of unwinding into the http.Server and leaving the process's
// health to net/http's per-connection recovery. http.ErrAbortHandler is
// re-panicked — it is net/http's documented way to abort a response.
func (s *Server) recoverer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.panics.Add(1)
			if !cw.wrote {
				writeErr(cw, http.StatusInternalServerError, "internal error: handler panic recovered")
			}
		}()
		next.ServeHTTP(cw, r)
	})
}

// countingWriter records whether the response status has been written,
// so the recoverer knows when a 500 can still be sent.
type countingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (c *countingWriter) WriteHeader(status int) {
	c.wrote = true
	c.ResponseWriter.WriteHeader(status)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	c.wrote = true
	return c.ResponseWriter.Write(b)
}

// Flush forwards http.Flusher so streaming handlers keep flushing
// through the recovery wrapper.
func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Engine returns the shared characterization engine.
func (s *Server) Engine() *core.Engine { return s.engine }

// Registry returns the matrix registry.
func (s *Server) Registry() *Registry { return s.reg }

// Jobs returns the background job manager.
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Shutdown cancels the server's base context: every in-flight sweep,
// characterization, and advise call unwinds with a context error, every
// queued and running job is canceled, and new job submissions are
// rejected. Call it before http.Server.Shutdown so draining does not
// wait for compute that no longer has anyone to answer to; it blocks
// until the job runners have exited.
func (s *Server) Shutdown() {
	s.stop()
	s.jobs.Wait()
	if s.cluster != nil {
		s.cluster.Close()
	}
}

// reqCtx joins a request's context with the server's base context: the
// returned context is canceled when the client disconnects, when the
// request finishes, or when the server shuts down — whichever comes
// first. Handlers run engine work under it so both a gone client and a
// draining server abort compute promptly.
func (s *Server) reqCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	if s.baseCtx.Err() != nil {
		// Already draining: hand back a synchronously-canceled context so
		// late requests observe it deterministically.
		cancel()
		return ctx, cancel
	}
	stopWatch := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stopWatch(); cancel() }
}

// computeCtx is reqCtx with the server-side deadline cap applied —
// the context compute handlers (sweep, characterize, advise) run under.
// A request whose engine work exceeds the cap unwinds with
// DeadlineExceeded and is answered 503, so one pathological request
// cannot hold a connection and its compute forever. SSE streams keep
// using reqCtx: they watch background jobs, not hold compute.
func (s *Server) computeCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := s.reqCtx(r)
	if s.opts.RequestTimeout <= 0 {
		return ctx, cancel
	}
	tctx, tcancel := context.WithTimeout(ctx, s.opts.RequestTimeout)
	return tctx, func() { tcancel(); cancel() }
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/matrices", s.handleListMatrices)
	s.mux.HandleFunc("POST /v1/matrices", s.handleUploadMatrix)
	s.mux.HandleFunc("GET /v1/matrices/{id}", s.handleGetMatrix)
	s.mux.HandleFunc("DELETE /v1/matrices/{id}", s.handleDeleteMatrix)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/characterize", s.handleCharacterize)
	s.mux.HandleFunc("GET /v1/advise", s.handleAdvise)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/jobs/sweep", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
}
