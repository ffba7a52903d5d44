package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"copernicus/internal/backend"
	"copernicus/internal/cluster"
	"copernicus/internal/core"
	"copernicus/internal/faults"
	"copernicus/internal/formats"
	"copernicus/internal/hlsim"
	"copernicus/internal/matrix"
	"copernicus/internal/mtx"
	"copernicus/internal/scenario"
	"copernicus/internal/wire"
	"copernicus/internal/workloads"
)

// ptServiceSweep lets the chaos suite fail (or panic) the compute phase
// of a sweep request after validation — exercising the in-band NDJSON
// error line, the batch error statuses, and the singleflight cache's
// panic containment.
var ptServiceSweep = faults.Point("service.sweep")

// Request-shape bounds: a sweep request fans out |formats| × |partitions|
// characterizations, so both lists are capped, and partition sizes are
// bounded because a p×p dense tile is allocated per partition.
const (
	maxRequestFormats    = 16
	maxRequestPartitions = 8
	maxPartitionSize     = 1024
	// maxKernelIters caps a kernel spec's iteration/column parameter:
	// every iteration is a full pass over the encoded operand, so the
	// parameter multiplies compute fan-out the way the format and
	// partition lists do (scenario.MaxN is a grammar bound, not an
	// admission policy).
	maxKernelIters = 4096
)

// resultJSON is the wire form of one characterization point. Backend
// names the costing backend; Measured marks seconds (and derived rates)
// as wall-clock measurements; MeasuredRuns/Threads document a measured
// backend's methodology and are omitted for modelled results.
type resultJSON struct {
	Workload          string  `json:"workload"`
	Format            string  `json:"format"`
	P                 int     `json:"p"`
	Kernel            string  `json:"kernel"`
	Iterations        int     `json:"iterations"`
	Backend           string  `json:"backend"`
	Measured          bool    `json:"measured"`
	MeasuredRuns      int     `json:"measured_runs,omitempty"`
	Threads           int     `json:"threads,omitempty"`
	Degraded          bool    `json:"degraded,omitempty"`
	DegradedReason    string  `json:"degraded_reason,omitempty"`
	NsPerNNZ          float64 `json:"ns_per_nnz"`
	Sigma             float64 `json:"sigma"`
	BalanceRatio      float64 `json:"balance_ratio"`
	MeanMemCycles     float64 `json:"mean_mem_cycles"`
	MeanComputeCycles float64 `json:"mean_compute_cycles"`
	Seconds           float64 `json:"seconds"`
	ThroughputBps     float64 `json:"throughput_bps"`
	BandwidthUtil     float64 `json:"bandwidth_util"`
	DotEngineUtil     float64 `json:"dot_engine_util"`
	InnerPipelineUtil float64 `json:"inner_pipeline_util"`
	NonZeroTiles      int     `json:"nonzero_tiles"`
	TotalTiles        int     `json:"total_tiles"`
	TotalBytes        int     `json:"total_bytes"`
	DynamicEnergyJ    float64 `json:"dynamic_energy_j"`
	StaticEnergyJ     float64 `json:"static_energy_j"`
	DynamicW          float64 `json:"dynamic_w"`
	StaticW           float64 `json:"static_w"`
	BRAM18K           int     `json:"bram_18k"`
	FF                int     `json:"ff"`
	LUT               int     `json:"lut"`
}

func toResultJSON(r core.Result) resultJSON {
	return resultJSON{
		Workload:          r.Workload,
		Format:            r.Format.String(),
		P:                 r.P,
		Kernel:            r.Kernel,
		Iterations:        r.Iterations,
		Backend:           r.Backend,
		Measured:          r.Measured,
		MeasuredRuns:      r.MeasuredRuns,
		Threads:           r.Threads,
		Degraded:          r.Degraded,
		DegradedReason:    r.DegradedReason,
		NsPerNNZ:          r.NsPerNNZ,
		Sigma:             r.Sigma,
		BalanceRatio:      r.BalanceRatio,
		MeanMemCycles:     r.MeanMemCycles,
		MeanComputeCycles: r.MeanComputeCycles,
		Seconds:           r.Seconds,
		ThroughputBps:     r.ThroughputBps,
		BandwidthUtil:     r.BandwidthUtil,
		DotEngineUtil:     r.DotEngineUtil,
		InnerPipelineUtil: r.InnerPipelineUtil,
		NonZeroTiles:      r.NonZeroTiles,
		TotalTiles:        r.TotalTiles,
		TotalBytes:        r.TotalBytes,
		DynamicEnergyJ:    r.DynamicEnergyJ,
		StaticEnergyJ:     r.StaticEnergyJ,
		DynamicW:          r.Synth.DynamicW,
		StaticW:           r.Synth.StaticW,
		BRAM18K:           r.Synth.BRAM18K,
		FF:                r.Synth.FF,
		LUT:               r.Synth.LUT,
	}
}

func toResultsJSON(rs []core.Result) []resultJSON {
	out := make([]resultJSON, len(rs))
	for i, r := range rs {
		out[i] = toResultJSON(r)
	}
	return out
}

// writeJSON emits a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr emits the service's uniform error shape.
func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// parseKinds resolves format names case-insensitively, rejecting
// duplicates; empty defaults to the paper's measured core set.
func parseKinds(names []string) ([]formats.Kind, error) {
	if len(names) == 0 {
		return formats.Core(), nil
	}
	if len(names) > maxRequestFormats {
		return nil, fmt.Errorf("at most %d formats per request, got %d", maxRequestFormats, len(names))
	}
	out := make([]formats.Kind, 0, len(names))
	for _, name := range names {
		k, err := formats.Parse(name)
		if err != nil {
			return nil, err
		}
		if slices.Contains(out, k) {
			return nil, fmt.Errorf("duplicate format %q", name)
		}
		out = append(out, k)
	}
	return out, nil
}

// parsePartitions validates partition sizes, rejecting duplicates; empty
// defaults to the paper's {8, 16, 32} sweep.
func parsePartitions(ps []int) ([]int, error) {
	if len(ps) == 0 {
		return []int{8, 16, 32}, nil
	}
	if len(ps) > maxRequestPartitions {
		return nil, fmt.Errorf("at most %d partition sizes per request, got %d", maxRequestPartitions, len(ps))
	}
	for i, p := range ps {
		if p < 1 || p > maxPartitionSize {
			return nil, fmt.Errorf("partition size %d outside [1, %d]", p, maxPartitionSize)
		}
		for _, prior := range ps[:i] {
			if prior == p {
				return nil, fmt.Errorf("duplicate partition size %d", p)
			}
		}
	}
	return ps, nil
}

// parseKernel resolves the kernel spec parameter of a request; empty
// defaults to spmv, the pre-kernel-axis behavior of every endpoint. The
// grammar (and its bound) is scenario.Parse's; the service additionally
// caps the iteration/column parameter, since it multiplies compute
// fan-out like the format and partition lists do.
func parseKernel(raw string) (scenario.Spec, error) {
	if raw == "" {
		return scenario.Default(), nil
	}
	sc, err := scenario.Parse(raw)
	if err != nil {
		return scenario.Spec{}, err
	}
	if sc.N > maxKernelIters {
		return scenario.Spec{}, fmt.Errorf("kernel %q parameter exceeds %d", raw, maxKernelIters)
	}
	return sc, nil
}

// sweepKey names one cached sweep: the matrix ID leads (so deletion can
// invalidate by prefix), then the backend ID, then the kernel spec, then
// the format and partition lists in request order. The backend is part of
// the key because the stored results carry its costing — analytic and
// native sweeps of one point are distinct cache entries that never
// cross-contaminate — while the engine plan cache below stays shared, so
// a second backend on a warm point pays no re-partition or re-encode.
// A native backend additionally keys its effective thread count, since
// the measured seconds depend on the SpMV fan-out — one- and
// eight-thread measurements of a point must never share an entry. The
// kernel spec is always present (spmv included), since the stored Seconds
// is the kernel's amortized/measured cost — a cg:60 entry must never
// answer an spmv request. Format/partition order is part of the key
// because the stored results mirror it — [CSR,ELL] and [ELL,CSR] cache
// separately.
func sweepKey(matrixID string, b backend.Backend, sc scenario.Spec, kinds []formats.Kind, ps []int) string {
	var sb strings.Builder
	sb.WriteString(matrixID)
	sb.WriteString("|b=")
	sb.WriteString(b.ID())
	if nb, ok := b.(*backend.Native); ok {
		sb.WriteString("|t=")
		sb.WriteString(strconv.Itoa(max(nb.Threads, 1)))
	}
	sb.WriteString("|k=")
	sb.WriteString(sc.String())
	sb.WriteString("|f=")
	for i, k := range kinds {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k.String())
	}
	sb.WriteString("|p=")
	for i, p := range ps {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(p))
	}
	return sb.String()
}

// resolveBackend resolves a backend selection plus the optional SpMV
// thread count. threads == 0 means unset (the native default of 1);
// any explicit count is native-only — measured fan-out is meaningless
// for the analytic model — and bounded by GOMAXPROCS, since goroutines
// beyond the machine width could only time-slice and distort the
// measurement. The thread count lands in the backend value itself, so
// sweepKey can derive its cache-key component from the same source the
// measurement uses.
func resolveBackend(name string, threads int) (backend.Backend, error) {
	b, err := backend.For(name)
	if err != nil {
		return nil, err
	}
	if threads == 0 {
		return b, nil
	}
	return backend.WithThreads(b, threads)
}

// errMatrixDeleted marks a sweep that lost a race with DELETE — a
// client-attributable 404, not a server fault.
var errMatrixDeleted = errors.New("matrix deleted")

// clusterInternal reports whether a request was dispatched by another
// coordinator. Such requests always compute locally — the guard that
// keeps a node listed in its own (or a peer coordinator's) worker list
// from fanning out again in a loop.
func clusterInternal(r *http.Request) bool {
	return r.Header.Get(cluster.InternalHeader) != ""
}

// execFor selects the group executor for one sweep: on a coordinator,
// external requests fan groups out to the fleet (with the engine as the
// per-group fallback); coordinator-internal requests and plain servers
// run the engine directly.
func (s *Server) execFor(b backend.Backend, internal bool) core.GroupExecutor {
	local := s.engine.LocalExecutor(b)
	if s.cluster == nil || internal {
		return local
	}
	threads := 0
	if nb, ok := b.(*backend.Native); ok {
		threads = nb.Threads
	}
	return s.cluster.Executor(b.ID(), threads, local)
}

// readSweepRequest reads a /v1/sweep or /v1/jobs/sweep request: the
// JSON body of a POST (unknown fields rejected), or the query of a GET.
func readSweepRequest(w http.ResponseWriter, r *http.Request) (cluster.SweepQuery, error) {
	if r.Method != http.MethodPost {
		return cluster.ParseSweepQuery(r.URL.Query(), false)
	}
	var req cluster.SweepQuery
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("parse request: %w", err)
	}
	return req, nil
}

// sweepSel is a validated sweep selection: one matrix and the format ×
// partition points a backend costs for a kernel.
type sweepSel struct {
	info  MatrixInfo
	m     *matrix.CSR
	kinds []formats.Kind
	ps    []int
	b     backend.Backend
	sc    scenario.Spec
}

// key is the selection's result-cache key.
func (sel sweepSel) key() string {
	return sweepKey(sel.info.ID, sel.b, sel.sc, sel.kinds, sel.ps)
}

// selectSweep is the one validation seam of the sweep-shaped endpoints
// (both /v1/sweep forms, characterize, advise, and sweep jobs): a
// missing matrix is 400 and an unknown one 404; a bad format, partition,
// backend, thread count or kernel is 400. The status is for answering
// a non-nil error.
func (s *Server) selectSweep(req cluster.SweepQuery) (sweepSel, int, error) {
	if req.Matrix == "" {
		return sweepSel{}, http.StatusBadRequest, errors.New(`missing "matrix"`)
	}
	info, m, ok := s.reg.Lookup(req.Matrix)
	if !ok {
		return sweepSel{}, http.StatusNotFound, fmt.Errorf("unknown matrix %q", req.Matrix)
	}
	sel := sweepSel{info: info, m: m}
	var err error
	if sel.kinds, err = parseKinds(req.Formats); err != nil {
		return sel, http.StatusBadRequest, err
	}
	if sel.ps, err = parsePartitions(req.Partitions); err != nil {
		return sel, http.StatusBadRequest, err
	}
	if sel.b, err = resolveBackend(req.Backend, req.Threads); err != nil {
		return sel, http.StatusBadRequest, err
	}
	if sel.sc, err = parseKernel(req.Kernel); err != nil {
		return sel, http.StatusBadRequest, err
	}
	return sel, http.StatusOK, nil
}

// computeSweep is the engine half of every sweep path — synchronous,
// streamed, and job alike: the streaming sweep over the selection
// through the given group executor (local engine or cluster fan-out),
// with each group optionally observed by onGroup as it completes,
// followed by the first half of the delete-race discipline. A DELETE
// may have raced the sweep (its DropPlansFor ran before the sweep
// re-inserted the plans), so registration is re-checked before results
// are considered valid; a deleted matrix is never re-pinned by the
// engine (and errors are never cached).
func (s *Server) computeSweep(ctx context.Context, sel sweepSel, exec core.GroupExecutor, onGroup func(core.SweepGroup)) ([]core.Result, error) {
	if err := ptServiceSweep.Hit(); err != nil {
		return nil, err
	}
	ws := []workloads.Workload{{ID: sel.info.ID, M: sel.m}}
	out := make([]core.Result, 0, len(sel.kinds)*len(sel.ps))
	err := s.engine.SweepGroupsExecWith(ctx, exec, ws, []scenario.Spec{sel.sc}, sel.kinds, sel.ps, func(g core.SweepGroup) error {
		out = append(out, g.Results...)
		if onGroup != nil {
			onGroup(g)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if _, _, still := s.reg.Lookup(sel.info.ID); !still {
		s.engine.DropPlansFor(sel.m)
		return nil, fmt.Errorf("matrix %q: %w", sel.info.ID, errMatrixDeleted)
	}
	return out, nil
}

// sweepEpilogue closes the remaining delete window after results landed
// in the cache: a DELETE between the compute's re-check and the insert
// has already run its invalidation, so the entry (and the plans the
// sweep re-inserted) would outlive the matrix. Re-checking after the
// insert means either the delete's invalidation ran after the insert
// and cleaned it, or this check sees the deletion and cleans up itself.
// Shared by the batch, streamed, and job sweep paths.
func (s *Server) sweepEpilogue(sel sweepSel) error {
	if _, _, still := s.reg.Lookup(sel.info.ID); !still {
		s.cache.InvalidatePrefix(sel.info.ID + "|")
		s.engine.DropPlansFor(sel.m)
		return fmt.Errorf("matrix %q: %w", sel.info.ID, errMatrixDeleted)
	}
	return nil
}

// runSweep computes (or returns cached) results for one selection,
// singleflight-deduplicated on its canonical key (which embeds the
// backend ID, isolating each backend's cache entries). The caller's ctx
// governs how long it *waits*; the compute itself runs under the
// cache's detached, ref-counted context, so it is aborted only when
// every request interested in the key — leader and waiters alike — has
// disconnected.
//
// onGroup, when non-nil, observes each group as the singleflight
// *leader's* compute produces it — the streaming path's incremental
// feed. A caller that attached to another leader's flight (or hit the
// cache) gets cached=true and must replay the returned slab itself.
func (s *Server) runSweep(ctx context.Context, sel sweepSel, exec core.GroupExecutor, onGroup func(core.SweepGroup)) (*sweepEntry, bool, error) {
	v, cached, err := s.cache.Do(ctx, sel.key(), func(fctx context.Context) (any, error) {
		rs, err := s.computeSweep(fctx, sel, exec, onGroup)
		if err != nil {
			return nil, err
		}
		// The cache stores the entry, not the raw slab: warm requests of
		// each content type attach their pre-encoded response body to it.
		return &sweepEntry{results: rs}, nil
	})
	s.noteBackend(sel.b.ID(), cached && err == nil)
	if err != nil {
		return nil, false, err
	}
	if err := s.sweepEpilogue(sel); err != nil {
		return nil, false, err
	}
	return v.(*sweepEntry), cached, nil
}

// sweepStatus maps a runSweep error to its HTTP status: losing a race
// with DELETE is the client's 404, and asking the cycle model for a
// format it has no equations for is the client's 400 — neither is a
// server fault (and the latter is an error up the stack now, not a
// crashed goroutine). A context error means the client disconnected or
// the server is draining; 503 tells well-behaved clients to retry
// elsewhere (the disconnected ones never see it).
func sweepStatus(err error) int {
	switch {
	case errors.Is(err, errMatrixDeleted):
		return http.StatusNotFound
	case errors.Is(err, hlsim.ErrUnknownFormat), errors.Is(err, formats.ErrBadPartition):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "uptime_s": time.Since(s.start).Seconds()})
}

// handleReadyz is the load-balancer signal, distinct from healthz:
// healthz says "the process is alive" (and stays 200 through a drain so
// orchestrators don't kill a server that's finishing its work), while
// readyz says "send me traffic". It flips to 503 the moment Shutdown
// begins — before healthz ever changes — and while the job queue is
// saturated (new submissions would bounce with 429 anyway).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	queued := s.jobs.Queued()
	switch {
	case s.baseCtx.Err() != nil:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
	case queued >= s.opts.JobQueue:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "saturated", "queued": queued, "queue_cap": s.opts.JobQueue,
		})
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ready", "queued": queued, "queue_cap": s.opts.JobQueue,
		})
	}
}

func (s *Server) handleListMatrices(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"matrices": s.reg.List()})
}

func (s *Server) handleGetMatrix(w http.ResponseWriter, r *http.Request) {
	info, _, ok := s.reg.Lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown matrix %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleUploadMatrix ingests a Matrix Market body. The body size, the
// declared dimensions, and the declared entry count are all bounded
// before per-entry parsing; the parsed matrix is content-hash addressed,
// so re-uploading identical content returns the existing entry (200)
// instead of creating a new one (201).
func (s *Server) handleUploadMatrix(w http.ResponseWriter, r *http.Request) {
	// One sentinel byte past the cap distinguishes "file too large" from
	// "file malformed": a truncation that lands mid-line would otherwise
	// surface as a parse error on the partial line and mask the real
	// cause with a misleading 400.
	body := &io.LimitedReader{R: r.Body, N: s.opts.MaxUploadBytes + 1}
	m, err := mtx.ReadLimited(body, mtx.Limits{
		MaxRows:    s.opts.MaxMatrixDim,
		MaxCols:    s.opts.MaxMatrixDim,
		MaxEntries: s.opts.MaxMatrixEntries,
	})
	// The limit is uniform: an over-cap body is 413 whether the parser
	// happened to fail (truncation mid-line) or happened to succeed (a
	// complete matrix followed by truncated padding).
	if body.N <= 0 {
		writeErr(w, http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", s.opts.MaxUploadBytes)
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "parse upload: %v", err)
		return
	}
	info, existed := s.reg.addUpload(r.URL.Query().Get("name"), m)
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	writeJSON(w, status, map[string]any{"matrix": info, "deduplicated": existed})
}

// handleDeleteMatrix removes a matrix by ID and ends its plan lifecycle:
// the engine's cached plans for it are dropped and its cached sweeps
// invalidated. Built-in suite matrices cannot be deleted.
func (s *Server) handleDeleteMatrix(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, _, ok := s.reg.Lookup(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown matrix %q", id)
		return
	}
	if info.Source == "builtin" {
		writeErr(w, http.StatusForbidden, "built-in matrix %q cannot be deleted", info.ID)
		return
	}
	_, m, ok := s.reg.Remove(info.ID)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown matrix %q", id)
		return
	}
	s.engine.DropPlansFor(m)
	s.cache.InvalidatePrefix(info.ID + "|")
	w.WriteHeader(http.StatusNoContent)
}

// handleSweep answers both /v1/sweep forms — the POST JSON body and the
// GET query (matrix=ID&formats=CSR,COO&partitions=8,16&backend=native,
// &threads=N for the native SpMV fan-out, &kernel=cg:60 for the kernel
// spec) — through one selection, so the two share validation, cache
// keys and response shape and cannot drift apart. It answers as one
// JSON slab (the default), as the columnar slab, or, when the request
// prefers application/x-ndjson, as a row-per-line stream flushed as each
// (workload, kernel, p) group completes.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, err := readSweepRequest(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	sel, status, err := s.selectSweep(req)
	if err != nil {
		writeErr(w, status, "%v", err)
		return
	}
	// cache=only answers from the sweep LRU or 404s — never computes.
	// It is the peer-cache probe of the cluster fabric (a coordinator
	// consulting a breaker-open worker as a pure cache tier), and a
	// cheap cache interrogation for tooling.
	switch mode := r.URL.Query().Get("cache"); mode {
	case "":
	case "only":
		v, ok := s.cache.Get(sel.key())
		if !ok {
			writeErr(w, http.StatusNotFound, "cache miss")
			return
		}
		s.noteBackend(sel.b.ID(), true)
		s.writeSweep(w, r, sel, v.(*sweepEntry), true, bodyJSONSweep)
		return
	default:
		writeErr(w, http.StatusBadRequest, "bad cache mode %q (want \"only\")", mode)
		return
	}
	ctx, cancel := s.computeCtx(r)
	defer cancel()
	exec := s.execFor(sel.b, clusterInternal(r))
	if wantsNDJSON(r) {
		// Streaming keeps precedence over the columnar batch body: a
		// client listing both asked for incremental delivery.
		s.streamSweep(ctx, w, sel, exec)
		return
	}
	entry, cached, err := s.runSweep(ctx, sel, exec, nil)
	if err != nil {
		writeErr(w, sweepStatus(err), "sweep: %v", err)
		return
	}
	s.writeSweep(w, r, sel, entry, cached, bodyJSONSweep)
}

// wantsNDJSON reports whether the request negotiated newline-delimited
// JSON streaming.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// streamSweep answers a sweep as NDJSON: one result row per line,
// flushed per row, emitted in the same deterministic order as the batch
// response as soon as each (workload, p) group completes — a client sees
// its first rows while later groups are still computing. A warm request
// streams straight from the cached slab; a cold one runs through the
// same singleflighted runSweep as the batch path (concurrent identical
// requests share one engine sweep: the leader streams incrementally and
// populates the cache, attached callers replay the finished slab) under
// the joined request/server context. A mid-stream failure truncates the
// row stream and appends a final {"error": ...} line — the rows before
// it are still a valid prefix of the batch result set; a failure before
// any row was written is reported with a proper HTTP status instead,
// exactly like the batch form.
func (s *Server) streamSweep(ctx context.Context, w http.ResponseWriter, sel sweepSel, exec core.GroupExecutor) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	s.encNDJSON.responses.Add(1)

	// Rows are encoded into one pooled buffer reused for the stream's
	// lifetime — the append encoder is byte-identical to encoding/json
	// and allocates nothing per row (the old per-row path allocated a
	// resultJSON box plus encoder scratch for every line).
	bufp := rowBufPool.Get().(*[]byte)
	var encNs int64
	defer func() {
		s.encNDJSON.encodeNs.Add(encNs)
		*bufp = (*bufp)[:0]
		rowBufPool.Put(bufp)
	}()

	emitted := 0
	emitDead := false
	emit := func(rs []core.Result) {
		for _, r := range rs {
			if emitDead {
				return
			}
			start := time.Now()
			*bufp = appendResultNDJSON((*bufp)[:0], r)
			encNs += time.Since(start).Nanoseconds()
			s.encNDJSON.encodes.Add(1)
			n, err := w.Write(*bufp)
			s.encNDJSON.bytes.Add(int64(n))
			if err != nil {
				// This client is gone; keep computing silently — as the
				// singleflight leader the slab still serves attached
				// callers and warms the cache.
				emitDead = true
				return
			}
			emitted++
			if flusher != nil {
				flusher.Flush()
			}
		}
	}

	if v, ok := s.cache.Get(sel.key()); ok {
		s.noteBackend(sel.b.ID(), true)
		emit(v.(*sweepEntry).results)
		return
	}

	entry, cached, err := s.runSweep(ctx, sel, exec, func(g core.SweepGroup) { emit(g.Results) })
	if err != nil {
		if emitted == 0 {
			// Nothing on the wire yet: a real status line (404/400/503)
			// beats an in-band error masquerading as a 200.
			writeErr(w, sweepStatus(err), "sweep: %v", err)
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf("sweep: %v", err)})
		return
	}
	if cached {
		// We attached to another caller's in-flight sweep (or raced a
		// fresh cache insert): our emit never saw the leader's rows, so
		// replay the slab.
		emit(entry.results)
	}
}

// handleCharacterize runs one (matrix, format, p) point:
// GET /v1/characterize?matrix=ID&format=CSR&p=16&backend=analytic|native
// (&threads=N for the native SpMV fan-out, &kernel=cg:60 for the kernel
// spec).
func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	req, err := cluster.ParseSweepQuery(r.URL.Query(), true)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	sel, status, err := s.selectSweep(req)
	if err != nil {
		writeErr(w, status, "%v", err)
		return
	}
	ctx, cancel := s.computeCtx(r)
	defer cancel()
	entry, cached, err := s.runSweep(ctx, sel, s.execFor(sel.b, clusterInternal(r)), nil)
	if err != nil {
		writeErr(w, sweepStatus(err), "characterize: %v", err)
		return
	}
	s.writeSweep(w, r, sel, entry, cached, bodyJSONCharacterize)
}

// handleAdvise recommends the best format for a (matrix, p) point:
// GET /v1/advise?matrix=ID&p=16&objective=balanced|latency&backend=
// analytic|native (native ranks by measured host wall time, with
// &threads=N selecting its SpMV fan-out; &kernel=cg:60 ranks by the
// kernel's amortized/measured cost instead of one SpMV). The sweep
// behind it flows through the same cache as /v1/sweep — a prior sweep of
// the sparse formats at the same (kernel, p) makes the advice free, and
// concurrent advise calls share one engine run.
func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req, err := cluster.ParseSweepQuery(q, true)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Advice ranks every sparse format; format= is characterize's
	// parameter, not advise's.
	req.Formats = nil
	sel, status, err := s.selectSweep(req)
	if err != nil {
		writeErr(w, status, "%v", err)
		return
	}
	sel.kinds = formats.Sparse()
	var obj core.Objective
	switch name := q.Get("objective"); name {
	case "", "balanced":
		obj = core.BalancedObjective()
	case "latency":
		obj = core.LatencyObjective()
	default:
		writeErr(w, http.StatusBadRequest, "unknown objective %q (want balanced or latency)", name)
		return
	}
	ctx, cancel := s.computeCtx(r)
	defer cancel()
	entry, cached, err := s.runSweep(ctx, sel, s.execFor(sel.b, clusterInternal(r)), nil)
	if err != nil {
		writeErr(w, sweepStatus(err), "advise: %v", err)
		return
	}
	rec, err := core.Rank(entry.results, obj)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "advise: %v", err)
		return
	}
	ranking := make([]string, len(rec.Ranking))
	for i, k := range rec.Ranking {
		ranking[i] = k.String()
	}
	class := core.Classify(sel.m)
	static, _, why := core.StaticAdvice(class)
	if wantsColumnar(r) {
		// The advice's result rows as the raw columnar slab — the fattest
		// part of the JSON envelope by far — with the verdict metadata in
		// headers. Encoded per request: the ranked row order depends on
		// the objective, which is not part of the sweep cache key.
		body := s.encCol.encode(func() []byte { return wire.Encode(rec.Results) })
		s.writeBody(w, wire.ContentType, &s.encCol, body, func(h http.Header) {
			h.Set(headerMatrix, sel.info.ID)
			h.Set(headerCached, strconv.FormatBool(cached))
			h.Set(headerRows, strconv.Itoa(len(rec.Results)))
			h.Set(headerAdviseFormat, rec.Format.String())
			h.Set(headerAdviseRanking, strings.Join(ranking, ","))
			h.Set(headerAdviseClass, class.String())
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"matrix":        sel.info,
		"p":             sel.ps[0],
		"backend":       sel.b.ID(),
		"kernel":        sel.sc.String(),
		"cached":        cached,
		"format":        rec.Format.String(),
		"reason":        rec.Reason,
		"ranking":       ranking,
		"results":       toResultsJSON(rec.Results),
		"class":         class.String(),
		"static_advice": map[string]string{"format": static.String(), "rationale": why},
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := map[string]any{
		"uptime_s":     time.Since(s.start).Seconds(),
		"matrices":     s.reg.Len(),
		"workers":      s.engine.Workers(),
		"engine_plans": s.engine.PlanStats(),
		"sweep_cache":  s.cache.Stats(),
		"backends":     s.backendStats(),
		"encoding":     s.encodingStats(),
		"failures": map[string]any{
			"handler_panics": s.panics.Load(),
			"jobs":           s.jobs.Stats(),
			"native_measure": backend.NativeMeasureStats(),
		},
	}
	if s.cluster != nil {
		stats["cluster"] = s.cluster.Stats()
	}
	writeJSON(w, http.StatusOK, stats)
}
