package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"copernicus/internal/core"
	"copernicus/internal/faults"
	"copernicus/internal/formats"
	"copernicus/internal/resilience"
	"copernicus/internal/scenario"
	"copernicus/internal/wire"
	"copernicus/internal/workloads"
)

// InternalHeader marks coordinator-originated requests. A worker that is
// itself configured as a coordinator computes such requests locally
// instead of fanning out again — the guard against dispatch loops when a
// node appears in its own worker list (or in a cycle of coordinators).
const InternalHeader = "X-Copernicus-Cluster"

// headerCached mirrors the service's X-Copernicus-Cached response header
// (the literal is part of the HTTP contract; the service package imports
// cluster, so the constant cannot live there without a cycle).
const headerCached = "X-Copernicus-Cached"

// ptDispatch lets the chaos suite fail remote dispatch attempts
// deterministically: an armed error is handled exactly like a transport
// failure — breaker accounting, re-dispatch to the next replica, and
// finally local fallback.
var ptDispatch = faults.Point("cluster.dispatch")

// errPeerMiss is the sentinel for a cache=only probe that found nothing:
// the worker is healthy but its LRU has no entry for the group.
var errPeerMiss = errors.New("cluster: peer cache miss")

// Config describes a coordinator's worker fleet and dispatch policy.
type Config struct {
	// Workers are the fleet members as "host:port" (http:// assumed) or
	// full base URLs. At least one is required.
	Workers []string
	// VNodes is the ring's virtual nodes per worker (DefaultVNodes if 0).
	VNodes int
	// Seed is the ring's placement seed (DefaultSeed if 0). Every
	// coordinator for one fleet must agree on it.
	Seed uint64
	// ProbeInterval is the /v1/readyz polling period (default 2s).
	ProbeInterval time.Duration
	// Timeout bounds one dispatch round-trip (default 60s).
	Timeout time.Duration
	// BreakerThreshold trips a worker's dispatch breaker after that many
	// consecutive failures (default 3); BreakerCooldown is the open
	// period before a half-open probe (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	return c
}

// worker is one fleet member: its address, dispatch breaker, readiness
// flag, and tallies.
type worker struct {
	name string // as configured — the ring key and stats label
	base string // normalized base URL

	br    *resilience.Breaker
	ready atomic.Bool // last /v1/readyz verdict (optimistic true at start)

	dispatched atomic.Uint64 // successful group fetches
	failures   atomic.Uint64 // failed dispatch attempts
	probeHits  atomic.Uint64 // cache=only probes answered from the LRU
}

// Coordinator owns the ring, the worker clients, and the background
// health prober. It is constructed once per serving process and shared
// by every request; all methods are safe for concurrent use.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	workers map[string]*worker
	hc      *http.Client

	groups        atomic.Uint64 // groups served remotely
	redispatched  atomic.Uint64 // extra dispatch attempts after a replica failed
	peerHits      atomic.Uint64 // groups answered from a worker's sweep LRU
	peerMisses    atomic.Uint64 // groups the owning worker had to compute
	localFallback atomic.Uint64 // groups that fell back to local compute

	stop     context.CancelFunc
	stopped  chan struct{}
	startMu  sync.Mutex
	started  bool
	closedMu sync.Mutex
	closed   bool
}

// New builds a coordinator over the configured fleet. The health prober
// is not running yet — call Start (service.New does this when wiring a
// cluster into a server).
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Workers, cfg.VNodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		ring:    ring,
		workers: make(map[string]*worker, len(cfg.Workers)),
		hc:      &http.Client{Timeout: cfg.Timeout},
	}
	for _, name := range ring.Workers() {
		base := name
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		u, err := url.Parse(base)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("cluster: bad worker address %q", name)
		}
		w := &worker{
			name: name,
			base: strings.TrimRight(base, "/"),
			br:   resilience.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		}
		w.ready.Store(true)
		c.workers[name] = w
	}
	return c, nil
}

// Start launches the background /v1/readyz prober. Idempotent.
func (c *Coordinator) Start() {
	c.startMu.Lock()
	defer c.startMu.Unlock()
	if c.started {
		return
	}
	c.started = true
	ctx, cancel := context.WithCancel(context.Background())
	c.stop = cancel
	c.stopped = make(chan struct{})
	go func() {
		defer close(c.stopped)
		t := time.NewTicker(c.cfg.ProbeInterval)
		defer t.Stop()
		for {
			c.probeOnce(ctx)
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
		}
	}()
}

// Close stops the prober. Safe to call multiple times and without Start.
func (c *Coordinator) Close() {
	c.closedMu.Lock()
	defer c.closedMu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.startMu.Lock()
	started := c.started
	c.startMu.Unlock()
	if started {
		c.stop()
		<-c.stopped
	}
}

// probeOnce runs one synchronous /v1/readyz round over the fleet,
// updating each worker's readiness flag.
func (c *Coordinator) probeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, "GET", w.base+"/v1/readyz", nil)
			if err != nil {
				w.ready.Store(false)
				return
			}
			resp, err := c.hc.Do(req)
			if err != nil {
				w.ready.Store(false)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			w.ready.Store(resp.StatusCode == http.StatusOK)
		}(w)
	}
	wg.Wait()
}

// SweepQuery is the one request shape of every sweep-shaped endpoint:
// the POST /v1/sweep and POST /v1/jobs/sweep body, what ParseSweepQuery
// reads the GET forms into, and the worker-side sweep a coordinator's
// dispatch or cache probe carries (values encodes it). Backend selects
// the costing backend ("analytic" cycle model by default, "native" for
// measured host-CPU wall time); Threads sets the native SpMV fan-out
// (native-only, 1..GOMAXPROCS, default 1); Kernel selects the kernel spec
// the points are costed for ("spmv" by default; "cg:60", "spmm:8", ... —
// see internal/scenario).
type SweepQuery struct {
	Matrix     string   `json:"matrix"`
	Formats    []string `json:"formats,omitempty"`
	Partitions []int    `json:"partitions,omitempty"`
	Backend    string   `json:"backend,omitempty"`
	Threads    int      `json:"threads,omitempty"`
	Kernel     string   `json:"kernel,omitempty"`
}

// Key is the deterministic placement key: every coordinator maps the
// same query to the same owner.
func (q SweepQuery) Key() string {
	var sb strings.Builder
	sb.WriteString(q.Matrix)
	sb.WriteString("|b=")
	sb.WriteString(q.Backend)
	if q.Threads > 0 {
		sb.WriteString("|t=")
		sb.WriteString(strconv.Itoa(q.Threads))
	}
	sb.WriteString("|k=")
	sb.WriteString(q.Kernel)
	sb.WriteString("|p=")
	for i, p := range q.Partitions {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(p))
	}
	return sb.String()
}

// values renders the query parameters for the worker's GET /v1/sweep.
func (q SweepQuery) values(cacheOnly bool) url.Values {
	v := url.Values{}
	v.Set("matrix", q.Matrix)
	if len(q.Formats) > 0 {
		v.Set("formats", strings.Join(q.Formats, ","))
	}
	ps := make([]string, len(q.Partitions))
	for i, p := range q.Partitions {
		ps[i] = strconv.Itoa(p)
	}
	v.Set("partitions", strings.Join(ps, ","))
	if q.Backend != "" {
		v.Set("backend", q.Backend)
	}
	if q.Threads > 0 {
		v.Set("threads", strconv.Itoa(q.Threads))
	}
	if q.Kernel != "" {
		v.Set("kernel", q.Kernel)
	}
	if cacheOnly {
		v.Set("cache", "only")
	}
	return v
}

// ParseSweepQuery reads a GET query into a SweepQuery: the lists
// formats=CSR,COO&partitions=8,16 of GET /v1/sweep — what values writes —
// or, onePoint, for characterize and advise, format=CSR&p=16 (defaults
// CSR and 16). Every form takes backend=, threads= and kernel=. Only the
// syntax of the integers is checked here; the service validates the
// values.
func ParseSweepQuery(q url.Values, onePoint bool) (SweepQuery, error) {
	req := SweepQuery{Matrix: q.Get("matrix"), Backend: q.Get("backend"), Kernel: q.Get("kernel")}
	if onePoint {
		req.Formats = []string{cmp.Or(q.Get("format"), "CSR")}
		p, err := strconv.Atoi(cmp.Or(q.Get("p"), "16"))
		if err != nil {
			return req, fmt.Errorf("bad p: %w", err)
		}
		req.Partitions = []int{p}
	} else {
		if raw := q.Get("formats"); raw != "" {
			for _, tok := range strings.Split(raw, ",") {
				req.Formats = append(req.Formats, strings.TrimSpace(tok))
			}
		}
		if raw := q.Get("partitions"); raw != "" {
			for _, tok := range strings.Split(raw, ",") {
				p, err := strconv.Atoi(strings.TrimSpace(tok))
				if err != nil {
					return req, fmt.Errorf("bad partition size %q", tok)
				}
				req.Partitions = append(req.Partitions, p)
			}
		}
	}
	// An explicit threads= must be a positive integer (absent means the
	// native default); its upper bound and backend applicability are
	// resolveBackend's checks.
	if raw := q.Get("threads"); raw != "" {
		t, err := strconv.Atoi(raw)
		if err != nil || t < 1 {
			return req, fmt.Errorf("bad threads %q (want a positive integer)", raw)
		}
		req.Threads = t
	}
	return req, nil
}

// fetch issues one sweep request to one worker and decodes the columnar
// response. cacheOnly asks the worker's LRU without permitting compute;
// a miss comes back as errPeerMiss. The returned bool reports whether
// the worker answered from its cache.
func (c *Coordinator) fetch(ctx context.Context, w *worker, q SweepQuery, cacheOnly bool) ([]core.Result, bool, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", w.base+"/v1/sweep?"+q.values(cacheOnly).Encode(), nil)
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Accept", wire.ContentType)
	req.Header.Set(InternalHeader, "1")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound && cacheOnly {
		return nil, false, errPeerMiss
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, false, fmt.Errorf("cluster: worker %s: %s: %s", w.name, resp.Status, strings.TrimSpace(string(body)))
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if n, err := wire.Rows(blob); err != nil {
		return nil, false, fmt.Errorf("cluster: worker %s: %w", w.name, err)
	} else if want := len(q.Formats) * len(q.Partitions); len(q.Formats) > 0 && n != want {
		return nil, false, fmt.Errorf("cluster: worker %s: %d rows, want %d", w.name, n, want)
	}
	rows, err := wire.Decode(blob)
	if err != nil {
		return nil, false, fmt.Errorf("cluster: worker %s: %w", w.name, err)
	}
	return rows, resp.Header.Get(headerCached) == "true", nil
}

// fetchGroup walks the group's ring replicas: the owner first, then
// each successor until one serves it. A ready worker with a closed
// breaker gets a full dispatch (its sweep LRU answers warm groups
// before computing — the peer cache tier's fast path); a ready worker
// whose breaker is open is consulted as a cache-only peer, never asked
// to compute. Workers failing their readiness probe are skipped
// outright. Every attempt past ring position 0 counts as a re-dispatch
// — whether the owner failed the attempt or was already known dead, the
// group moved off its owner.
func (c *Coordinator) fetchGroup(ctx context.Context, q SweepQuery) ([]core.Result, error) {
	reps := c.ring.replicas(q.Key(), 0)
	var lastErr error
	for i, name := range reps {
		w := c.workers[name]
		if !w.ready.Load() {
			continue
		}
		if i > 0 {
			c.redispatched.Add(1)
		}

		allowed := w.br.Allow() == nil
		if ferr := ptDispatch.Hit(); ferr != nil {
			if allowed {
				w.br.Failure()
			}
			w.failures.Add(1)
			lastErr = fmt.Errorf("cluster: worker %s: %w", w.name, ferr)
			continue
		}
		rctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
		rows, cached, err := c.fetch(rctx, w, q, !allowed)
		cancel()
		switch {
		case err == nil:
			if allowed {
				w.br.Success()
			} else {
				w.probeHits.Add(1)
			}
			w.dispatched.Add(1)
			c.groups.Add(1)
			if cached {
				c.peerHits.Add(1)
			} else {
				c.peerMisses.Add(1)
			}
			return rows, nil
		case errors.Is(err, errPeerMiss):
			// Breaker-open peer without the entry: not a health signal.
			lastErr = err
		case ctx.Err() != nil:
			if allowed {
				w.br.Cancel()
			}
			return nil, ctx.Err()
		default:
			if allowed {
				w.br.Failure()
			}
			w.failures.Add(1)
			lastErr = err
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no worker available for %s", q.Key())
	}
	return nil, lastErr
}

// Executor returns a core.GroupExecutor that dispatches each group to
// its ring owner (with replica re-dispatch) and falls back to local —
// the executor the coordinator's sweep paths hand to
// core.SweepGroupsExecWith. backendName/threads are echoed into every
// worker query so the worker resolves the exact backend the client
// asked for; local is the engine-side fallback (required).
func (c *Coordinator) Executor(backendName string, threads int, local core.GroupExecutor) core.GroupExecutor {
	return &Executor{c: c, backend: backendName, threads: threads, local: local}
}

// Executor fans sweep groups over the fleet. One value serves one
// request (it captures the request's backend selection); the shared
// state all lives in the Coordinator.
type Executor struct {
	c       *Coordinator
	backend string
	threads int
	local   core.GroupExecutor
}

// Parallelizable is always true: concurrency is bounded by the engine's
// worker pool, and measurement contention is the owning worker's
// concern, not the dispatching coordinator's.
func (x *Executor) Parallelizable() bool { return true }

// ExecuteGroup serves one (workload, kernel, p) group from the fleet,
// or locally when every replica is unavailable. Results are exactly
// what the engine would have produced: the analytic model is
// deterministic and the columnar codec is exact, so remote and local
// groups are interchangeable byte-for-byte.
func (x *Executor) ExecuteGroup(ctx context.Context, w workloads.Workload, sc scenario.Spec, p int, kinds []formats.Kind) ([]core.Result, error) {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	q := SweepQuery{
		Matrix:     w.ID,
		Formats:    names,
		Partitions: []int{p},
		Backend:    x.backend,
		Threads:    x.threads,
		Kernel:     sc.String(),
	}
	rows, err := x.c.fetchGroup(ctx, q)
	if err == nil {
		return rows, nil
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if x.local == nil {
		return nil, err
	}
	x.c.localFallback.Add(1)
	return x.local.ExecuteGroup(ctx, w, sc, p, kinds)
}

// WorkerStats is one fleet member's line in /v1/stats.
type WorkerStats struct {
	Name       string                     `json:"name"`
	Ready      bool                       `json:"ready"`
	Breaker    resilience.BreakerSnapshot `json:"breaker"`
	Dispatched uint64                     `json:"dispatched"`
	Failures   uint64                     `json:"failures"`
	ProbeHits  uint64                     `json:"cache_probe_hits"`
}

// Stats is the coordinator's /v1/stats section.
type Stats struct {
	Workers       []WorkerStats `json:"workers"`
	Groups        uint64        `json:"groups_dispatched"`
	Redispatched  uint64        `json:"redispatched"`
	PeerHits      uint64        `json:"peer_cache_hits"`
	PeerMisses    uint64        `json:"peer_cache_misses"`
	LocalFallback uint64        `json:"local_fallbacks"`
}

// Stats snapshots the dispatch counters and per-worker health.
func (c *Coordinator) Stats() Stats {
	st := Stats{
		Groups:        c.groups.Load(),
		Redispatched:  c.redispatched.Load(),
		PeerHits:      c.peerHits.Load(),
		PeerMisses:    c.peerMisses.Load(),
		LocalFallback: c.localFallback.Load(),
	}
	names := make([]string, 0, len(c.workers))
	for n := range c.workers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w := c.workers[n]
		st.Workers = append(st.Workers, WorkerStats{
			Name:       w.name,
			Ready:      w.ready.Load(),
			Breaker:    w.br.Snapshot(),
			Dispatched: w.dispatched.Load(),
			Failures:   w.failures.Load(),
			ProbeHits:  w.probeHits.Load(),
		})
	}
	return st
}

// ParseWorkersFile parses a static fleet config: one worker address per
// line, blank lines and #-comments ignored.
func ParseWorkersFile(data []byte) []string {
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out
}
