package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"copernicus/internal/backend"
	"copernicus/internal/core"
	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/matrix"
	"copernicus/internal/mtx"
	"copernicus/internal/service"
	"copernicus/internal/wire"
	"copernicus/internal/workloads"
)

// serve_mix is a service.New server driven as a closed loop by a fixed
// number of clients: callers of the service (CLI, coordinator, scripts)
// each wait for their reply. A cold operation is the write path: upload
// a seeded Matrix Market file, sweep it cold, read it once as a columnar
// slab, delete it (which keeps retained memory independent of run
// length). Warm operations are the read path on built-in matrices: sweep
// JSON and columnar, characterize, advise JSON and columnar, all
// answered from the result cache.
//
// The timed clients call the server's handler in-process. Over loopback
// TCP on a 2-vCPU VM the same warm requests' median moved 1.9× with the
// host's load (cross-vCPU wake-ups), against ±5% in-process; the traced
// run measures the loopback TCP hop separately as
// service.outside_handler_us.

type serveSize struct {
	scale         int // built-in suite scale of the server
	uploadN       int
	uploadDensity float64
	builtins      int // SuiteSparse built-ins in the warm read set, in Table 1 order
	clients       int
	coldReps      int
	minWarm       int
	// traceCold and traceWarm are the cold cycles and warm requests of a
	// traced run, untraced and traced alike; replayReps repeats each
	// direct layer call of the replay.
	traceCold, traceWarm, replayReps int
}

var serveDefault = serveSize{
	scale: 256, uploadN: 1024, uploadDensity: 0.004, builtins: 20, clients: 2,
	coldReps: 41, minWarm: 2000,
	traceCold: 15, traceWarm: 3000, replayReps: 21,
}

// Request headers the benchmark's client sets so a traced server can
// name and parent its handler spans.
const (
	hdrRoute = "X-Perfbench-Route"
	hdrSpan  = "X-Perfbench-Span"
	hdrOp    = "X-Perfbench-Op"
)

// serveReq is one request kind of the warm read set.
type serveReq struct {
	route, path, accept string
	check               func(status int, h http.Header, body []byte) error
	// stable is the first warm body, checked and recorded by prime;
	// every later one must equal it. Clients only read it.
	stable []byte
}

// serveState is one server, how its clients reach it, and its inputs.
type serveState struct {
	srv *service.Server
	h   http.Handler // the server's handler, behind the timing middleware when traced
	// hs, served, base and client are set when the server listens on
	// loopback TCP; otherwise requests call h in-process.
	hs      *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
	upload  []byte
	upM     *matrix.CSR
	tr      *tracer
	readSet []string
	ops     atomic.Int64 // warm operations sent so far, for their ids
}

// serveSetup builds the inputs and a server, listening on loopback TCP
// when tcp is set. With a tracer, the handler is wrapped in a timing
// middleware that records a span per request.
func serveSetup(seed uint64, sz serveSize, tr *tracer, tcp bool) (*serveState, error) {
	m := gen.Random(sz.uploadN, sz.uploadDensity, seed)
	var buf bytes.Buffer
	if err := mtx.Write(&buf, m); err != nil {
		return nil, err
	}
	srv := service.New(service.Options{Scale: sz.scale})
	st := &serveState{srv: srv, h: srv.Handler(), upload: buf.Bytes(), upM: m, tr: tr}
	if tr != nil {
		st.h = timingMiddleware(st.h, tr)
	}
	if tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Shutdown()
			return nil, err
		}
		st.hs = &http.Server{Handler: st.h, ReadHeaderTimeout: 10 * time.Second}
		st.served = make(chan struct{})
		st.base = "http://" + ln.Addr().String()
		st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: sz.clients, DisableCompression: true}}
		go func() {
			defer close(st.served)
			_ = st.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
		}()
	}
	for _, w := range workloads.SuiteSparse(workloads.Config{Scale: sz.scale, RandomDim: sz.scale, BandDim: sz.scale}) {
		st.readSet = append(st.readSet, w.ID)
		if len(st.readSet) == sz.builtins {
			break
		}
	}
	return st, nil
}

// close stops the server and waits for it.
func (st *serveState) close() {
	st.srv.Shutdown()
	if st.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.hs.Shutdown(ctx) // a timeout leaves connections to Close
	_ = st.hs.Close()
	<-st.served
	st.client.CloseIdleConnections()
}

func timingMiddleware(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))
		op, _ := strconv.Atoi(r.Header.Get(hdrOp))
		id := tr.begin("service.handler."+r.Header.Get(hdrRoute), parent, op)
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// do sends one request and reads the whole reply. parent and op name
// the client-side span the server's handler span hangs under.
func (st *serveState) do(method, path, accept, route string, body []byte, parent, op int) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, st.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if st.tr != nil {
		req.Header.Set(hdrRoute, route)
		req.Header.Set(hdrSpan, strconv.Itoa(parent))
		req.Header.Set(hdrOp, strconv.Itoa(op))
	}
	if st.client == nil {
		rec := httptest.NewRecorder()
		st.h.ServeHTTP(rec, req)
		return rec.Code, rec.Header(), rec.Body.Bytes(), nil
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// serveRef holds what the in-process engine computes for the same
// requests: the correctness reference.
type serveRef struct {
	uploadRows []core.Result
	uploadID   string
}

// uploadRef computes the upload's reference rows in-process, under the
// content-hash ID the service will give it.
func (st *serveState) uploadRef(ctx context.Context) (*serveRef, error) {
	id := service.ContentID(st.upM)
	rows, err := engineRows(ctx, id, st.upM)
	if err != nil {
		return nil, err
	}
	return &serveRef{uploadRows: rows, uploadID: id}, nil
}

// engineRows sweeps m under id on a private engine with the service's
// default formats and partition sizes.
func engineRows(ctx context.Context, id string, m *matrix.CSR) ([]core.Result, error) {
	return core.New().SweepKernelsWith(ctx, backend.Analytic{}, []workloads.Workload{{ID: id, M: m}}, spmvOnly, formats.Core(), []int{8, 16, 32})
}

// readSetReqs builds the warm read set with a correctness check per
// request kind: sweep bodies must match the in-process engine's rows,
// the other routes must answer 200 with the right content type.
func (st *serveState) readSetReqs(ctx context.Context) ([]*serveReq, error) {
	var reqs []*serveReq
	for _, id := range st.readSet {
		info, m, ok := st.srv.Registry().Lookup(id)
		if !ok {
			return nil, fmt.Errorf("built-in %s not registered", id)
		}
		rows, err := engineRows(ctx, info.ID, m)
		if err != nil {
			return nil, err
		}
		wantJSON := service.SweepBodyJSON(info, true, rows)
		sparse := len(formats.Sparse())
		reqs = append(reqs,
			&serveReq{route: "sweep_warm_json", path: "/v1/sweep?matrix=" + id, check: func(s int, h http.Header, b []byte) error {
				if s != http.StatusOK || !bytes.Equal(b, wantJSON) {
					return fmt.Errorf("sweep %s: status %d, body differs from the engine's rows", id, s)
				}
				return nil
			}},
			&serveReq{route: "sweep_warm_col", path: "/v1/sweep?matrix=" + id, accept: wire.ContentType, check: func(s int, h http.Header, b []byte) error {
				return checkSlab(s, h, b, rows, -1)
			}},
			&serveReq{route: "characterize_warm", path: "/v1/characterize?matrix=" + id + "&format=CSR&p=16", check: statusJSON},
			&serveReq{route: "advise_warm_json", path: "/v1/advise?matrix=" + id + "&p=16", check: statusJSON},
			&serveReq{route: "advise_warm_col", path: "/v1/advise?matrix=" + id + "&p=16", accept: wire.ContentType, check: func(s int, h http.Header, b []byte) error {
				return checkSlab(s, h, b, nil, sparse)
			}},
		)
	}
	return reqs, nil
}

func statusJSON(s int, h http.Header, b []byte) error {
	if s != http.StatusOK || h.Get("Content-Type") != "application/json" || !json.Valid(b) {
		return fmt.Errorf("status %d, content type %q", s, h.Get("Content-Type"))
	}
	return nil
}

// checkSlab checks a columnar reply: it decodes, and equals rows (or,
// with rows nil, has n rows).
func checkSlab(s int, h http.Header, b []byte, rows []core.Result, n int) error {
	if s != http.StatusOK || h.Get("Content-Type") != wire.ContentType {
		return fmt.Errorf("columnar: status %d, content type %q", s, h.Get("Content-Type"))
	}
	got, err := wire.Decode(b)
	if err != nil {
		return fmt.Errorf("columnar: %w", err)
	}
	if rows != nil && !reflect.DeepEqual(got, rows) {
		return fmt.Errorf("columnar slab differs from the engine's rows")
	}
	if rows == nil && len(got) != n {
		return fmt.Errorf("columnar slab has %d rows, want %d", len(got), n)
	}
	return nil
}

// warmCheck checks a warm reply: a cache hit, byte-identical to the
// first warm reply of its kind.
func (q *serveReq) warmCheck(status int, h http.Header, body []byte, err error) error {
	if err != nil {
		return err
	}
	if h.Get("X-Copernicus-Cached") == "false" {
		return fmt.Errorf("%s %s: served cold", q.route, q.path)
	}
	if status != http.StatusOK || !bytes.Equal(body, q.stable) {
		return fmt.Errorf("%s %s: status %d, body not byte-stable", q.route, q.path, status)
	}
	return nil
}

// prime sends every warm request twice: the cold compute, then the warm
// request that attaches the encoded body to the cache entry. That first
// warm reply is checked for its request kind and becomes the kind's
// stable body, unless an earlier server recorded one already.
func (st *serveState) prime(reqs []*serveReq) error {
	for _, q := range reqs {
		if s, _, _, err := st.do("GET", q.path, q.accept, q.route, nil, 0, 0); err != nil || s != http.StatusOK {
			return fmt.Errorf("prime %s %s: status %d: %v", q.route, q.path, s, err)
		}
		s, h, b, err := st.do("GET", q.path, q.accept, q.route, nil, 0, 0)
		if err == nil && q.stable == nil {
			if err = q.check(s, h, b); err == nil {
				q.stable = b
			}
		}
		if err == nil {
			err = q.warmCheck(s, h, b, nil)
		}
		if err != nil {
			return fmt.Errorf("prime %s %s: %w", q.route, q.path, err)
		}
	}
	return nil
}

// coldCycle is one write-path operation: upload, cold sweep, first
// columnar read, delete. root and op parent the server's handler spans
// in a traced run. Replies are checked against ref after the cycle.
func (st *serveState) coldCycle(ctx context.Context, ref *serveRef, root, op int) (time.Duration, error) {
	t := time.Now()
	ups, _, ub, err := st.do("POST", "/v1/matrices", "", "upload", st.upload, root, op)
	if err != nil {
		return 0, err
	}
	var up struct {
		Matrix service.MatrixInfo `json:"matrix"`
	}
	if err := json.Unmarshal(ub, &up); err != nil {
		return 0, fmt.Errorf("upload reply: %w", err)
	}
	id := up.Matrix.ID
	ss, _, sb, err := st.do("GET", "/v1/sweep?matrix="+id, "", "sweep_cold", nil, root, op)
	if err != nil {
		return 0, err
	}
	cs, ch, cb, err := st.do("GET", "/v1/sweep?matrix="+id, wire.ContentType, "sweep_col_first", nil, root, op)
	if err != nil {
		return 0, err
	}
	ds, _, _, err := st.do("DELETE", "/v1/matrices/"+id, "", "delete", nil, root, op)
	if err != nil {
		return 0, err
	}
	d := time.Since(t)

	if ups != http.StatusCreated || ss != http.StatusOK || ds != http.StatusNoContent {
		return d, fmt.Errorf("cold cycle statuses upload %d, sweep %d, delete %d", ups, ss, ds)
	}
	if id != ref.uploadID {
		return d, fmt.Errorf("upload id %s, want %s", id, ref.uploadID)
	}
	if !bytes.Equal(sb, service.SweepBodyJSON(up.Matrix, false, ref.uploadRows)) {
		return d, fmt.Errorf("cold sweep body differs from the engine's rows")
	}
	if ch.Get("X-Copernicus-Cached") != "true" {
		return d, fmt.Errorf("first columnar read was not a cache hit")
	}
	return d, checkSlab(cs, ch, cb, ref.uploadRows, -1)
}

// warmLoop drives the read set from sz.clients closed-loop clients, each
// walking its own seeded permutation of the request kinds, until the
// deadline has passed and at least minReq requests completed. Clients
// share no lock: the stable bodies they check against are read-only, and
// each keeps its own latencies and failures until all have stopped. With
// a tracer, every request is its own operation with a root span.
func (st *serveState) warmLoop(reqs []*serveReq, seed uint64, sz serveSize, deadline time.Time, minReq int, o *outcome) (lat []float64, roots []int) {
	type client struct {
		lat   []float64
		roots []int
		errs  []error
	}
	var count atomic.Int64
	clients := make([]client, sz.clients)
	var wg sync.WaitGroup
	for c := range clients {
		order := rand.New(rand.NewPCG(seed, uint64(c))).Perm(len(reqs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var me client
			defer func() { clients[c] = me }()
			for i := 0; time.Now().Before(deadline) || count.Load() < int64(minReq); i++ {
				q := reqs[order[i%len(order)]]
				op := 0
				if st.tr != nil {
					op = 1<<20 + int(st.ops.Add(1)) // above the cold operations' ids
				}
				root := st.tr.begin("serve.warm", 0, op)
				t := time.Now()
				s, h, b, err := st.do("GET", q.path, q.accept, q.route, nil, root, op)
				d := time.Since(t)
				st.tr.end(root)
				count.Add(1)
				me.lat = append(me.lat, ms(d))
				if st.tr != nil {
					me.roots = append(me.roots, root)
				}
				if err := q.warmCheck(s, h, b, err); err != nil {
					me.errs = append(me.errs, err)
				}
			}
		}()
	}
	wg.Wait()
	for _, c := range clients {
		lat = append(lat, c.lat...)
		roots = append(roots, c.roots...)
		o.ops(len(c.lat)-len(c.errs), c.errs)
	}
	return lat, roots
}

func runServe(ctx context.Context, c runCfg, sz serveSize) (*outcome, error) {
	o := newOutcome()
	start := time.Now()
	var st *serveState
	var err error
	setup := []float64{timeSetup(func() { st, err = serveSetup(c.seed, sz, nil, false) })}
	if err != nil {
		return nil, err
	}
	o.info["input"] = map[string]any{
		"server_scale": sz.scale, "upload_n": sz.uploadN, "upload_nnz": st.upM.NNZ(),
		"upload_bytes": len(st.upload), "read_set": st.readSet, "clients": sz.clients,
		"loop": "closed", "transport": "in-process handler calls; the traced run adds loopback TCP",
		"upload_points": len(formats.Core()) * 3,
	}
	if c.trace {
		st.close()
		return o, serveTraced(ctx, c, sz, o)
	}
	defer st.close()
	reqs, err := st.readSetReqs(ctx)
	if err != nil {
		return nil, err
	}
	ref, err := st.uploadRef(ctx)
	if err != nil {
		return nil, err
	}
	if err := st.prime(reqs); err != nil {
		return nil, err
	}
	// Each cold round also times a rebuild of the server and its
	// inputs, which it closes.
	var cold, alloc, lat []float64
	var busy float64
	coldOp := func(int) {
		var again *serveState
		var rerr error
		setup = append(setup, timeSetup(func() { again, rerr = serveSetup(c.seed, sz, nil, false) }))
		if rerr != nil {
			o.op(fmt.Errorf("rebuild: %w", rerr))
		} else {
			again.close()
		}
		d, a, _, err := st.measuredCycle(ctx, ref)
		o.op(err)
		cold = append(cold, ms(d))
		alloc = append(alloc, mb(a))
	}
	warmOp := func(until time.Time) {
		l, _ := st.warmLoop(reqs, c.seed, sz, until, 1, o)
		lat = append(lat, l...)
		for _, d := range l {
			busy += d / 1000
		}
	}
	interleave(c.deadline(start), sz.coldReps, coldOp, warmOp)
	for len(lat) < sz.minWarm {
		warmOp(time.Now())
	}
	o.info["samples"] = map[string]int{"setup": len(setup), "cold": len(cold), "warm": len(lat)}
	// Requests per second of the clients' time inside requests: each of
	// the closed-loop clients has one request in flight at a time.
	if err := setE2E(o, setup, cold, lat, alloc, float64(len(lat)*sz.clients)/busy); err != nil {
		return nil, err
	}
	cold, lat = nil, nil
	o.set("retained_mb", retainedMB(), "MB") // st stays reachable through the deferred close
	return o, nil
}

// measuredCycle runs one untraced cold cycle after a forced GC and
// returns its latency, the bytes it allocated (client and server share
// the process) and the GC activity during it.
func (st *serveState) measuredCycle(ctx context.Context, ref *serveRef) (d time.Duration, alloc uint64, g gcDelta, err error) {
	alloc, g = measureAlloc(func() { d, err = st.coldCycle(ctx, ref, 0, 0) })
	return d, alloc, g, err
}

// traceSlices is how many turns the untraced and traced servers of a
// traced run take at the warm read set.
const traceSlices = 10

// serveTraced is the traced run: cold cycles and warm requests on an
// untraced server and on a server whose handler is wrapped in a timing
// middleware, in turn, so that both sides describe the same conditions
// of the host; then a replay of the layers under the service on the
// untraced server: mtx.Read of the upload, wire.Encode of its rows, and
// the handler called in-process to count allocations per warm request.
func serveTraced(ctx context.Context, c runCfg, sz serveSize, o *outcome) error {
	plain, err := serveSetup(c.seed, sz, nil, false)
	if err != nil {
		return err
	}
	defer plain.close()
	tr := newTracer()
	o.tr = tr
	st, err := serveSetup(c.seed, sz, tr, false)
	if err != nil {
		return err
	}
	defer st.close()
	reqs, err := plain.readSetReqs(ctx)
	if err != nil {
		return err
	}
	ref, err := plain.uploadRef(ctx)
	if err != nil {
		return err
	}
	var uCold, uWarm, gcCycles, gcPause []float64
	var coldRoots, warmRoots []int
	for i := 0; i < sz.traceCold; i++ {
		d, _, g, err := plain.measuredCycle(ctx, ref)
		o.op(err)
		uCold = append(uCold, ms(d))
		gcCycles = append(gcCycles, float64(g.cycles))
		gcPause = append(gcPause, ms(g.pause))

		op := i + 1
		runtime.GC() // as before each untraced cold cycle
		root := tr.begin("serve.cold", 0, op)
		_, err = st.coldCycle(ctx, ref, root, op)
		tr.end(root)
		o.op(err)
		coldRoots = append(coldRoots, root)
	}
	for _, s := range []*serveState{plain, st} {
		if err := s.prime(reqs); err != nil {
			return err
		}
	}
	for i := 0; i < traceSlices; i++ {
		l, _ := plain.warmLoop(reqs, c.seed, sz, time.Now(), sz.traceWarm/traceSlices, o)
		uWarm = append(uWarm, l...)
		_, r := st.warmLoop(reqs, c.seed, sz, time.Now(), sz.traceWarm/traceSlices, o)
		warmRoots = append(warmRoots, r...)
	}
	if err := serveReplay(ctx, plain, reqs, ref, sz, o); err != nil {
		return err
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	cd, cu := rootStats(spans, self, coldRoots)
	wd, wu := rootStats(spans, self, warmRoots)
	handler := map[string][]float64{}
	for _, s := range spans {
		if r, ok := strings.CutPrefix(s.Name, "service.handler."); ok {
			handler[r] = append(handler[r], us(s.dur()))
		}
	}
	for _, r := range serveRoutes {
		if len(handler[r]) == 0 {
			return fmt.Errorf("no handler spans for route %s", r)
		}
		o.set("service.handler_us."+r, med(handler[r]), "us")
	}
	p99, err := percentile(uWarm, 99)
	if err != nil {
		return err
	}
	outside, err := tcpOutsideHandler(c, sz, reqs, o)
	if err != nil {
		return err
	}
	o.set("service.outside_handler_us", outside, "us")
	o.set("service.warm_p99_ms", p99, "ms")
	o.set("service.warm_p99_samples", float64(len(uWarm)), "count")
	o.set("runtime.gc_cycles", med(gcCycles), "count")
	o.set("runtime.gc_pause_ms", med(gcPause), "ms")
	setTrace(o, med(cd)-med(uCold), med(wd)-med(uWarm), med(cu), med(wu))
	return nil
}

// tcpOutsideHandler serves the warm read set over loopback TCP with the
// timing middleware and returns the median time, in microseconds, a
// request spends outside the handler: the network hop, HTTP parsing and
// the client. Its spans are not written out.
func tcpOutsideHandler(c runCfg, sz serveSize, reqs []*serveReq, o *outcome) (float64, error) {
	tr := newTracer()
	st, err := serveSetup(c.seed, sz, tr, true)
	if err != nil {
		return 0, err
	}
	defer st.close()
	if err := st.prime(reqs); err != nil {
		return 0, err
	}
	_, roots := st.warmLoop(reqs, c.seed, sz, time.Now(), sz.traceWarm, o)
	spans := tr.snapshot()
	_, outside := rootStats(spans, selfTimes(spans), roots)
	return med(outside) * 1000, nil
}

// sinkWriter is an in-memory http.ResponseWriter that keeps only the
// status and byte count, so a handler's own allocations can be counted.
type sinkWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *sinkWriter) Header() http.Header { return w.h }
func (w *sinkWriter) WriteHeader(s int)   { w.status = s }
func (w *sinkWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// serveReplay calls the layers under the service directly on serve_mix's
// inputs and reads the server's own counters.
func serveReplay(ctx context.Context, st *serveState, reqs []*serveReq, ref *serveRef, sz serveSize, o *outcome) error {
	var readMs, readMB, encUs []float64
	var slab []byte
	for i := 0; i < sz.replayReps; i++ {
		var m *matrix.CSR
		var err error
		var d time.Duration
		a, _ := measureAlloc(func() {
			t := time.Now()
			m, err = mtx.Read(bytes.NewReader(st.upload))
			d = time.Since(t)
		})
		readMs = append(readMs, ms(d))
		readMB = append(readMB, mb(a))
		if err != nil || !reflect.DeepEqual(m, st.upM) {
			o.op(fmt.Errorf("mtx.Read of the upload does not give the generated matrix: %v", err))
		}
		t := time.Now()
		slab = wire.Encode(ref.uploadRows)
		encUs = append(encUs, us(time.Since(t)))
	}
	o.set("mtx.read_ms", med(readMs), "ms")
	o.set("mtx.read_alloc_mb", med(readMB), "MB")
	o.set("wire.encode_us", med(encUs), "us")
	o.set("wire.slab_bytes", float64(len(slab)), "B")

	// Allocations of the handler alone on warm requests: one in-memory
	// request per kind, replayed round-robin on this goroutine.
	h := st.srv.Handler()
	var hreqs []*http.Request
	for _, q := range reqs {
		r, err := http.NewRequestWithContext(ctx, "GET", q.path, nil)
		if err != nil {
			return err
		}
		if q.accept != "" {
			r.Header.Set("Accept", q.accept)
		}
		hreqs = append(hreqs, r)
	}
	w := &sinkWriter{h: http.Header{}}
	const rounds = 50
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < rounds; i++ {
		for _, r := range hreqs {
			clear(w.h)
			w.status = 0
			h.ServeHTTP(w, r)
		}
	}
	runtime.ReadMemStats(&b)
	if w.status != 0 && w.status != http.StatusOK {
		o.op(fmt.Errorf("in-process warm request answered %d", w.status))
	}
	o.set("service.allocs_per_warm_request", float64(b.Mallocs-a.Mallocs)/float64(rounds*len(hreqs)), "count")

	_, _, sb, err := st.do("GET", "/v1/stats", "", "stats", nil, 0, 0)
	if err != nil {
		return err
	}
	var stats struct {
		Cache struct {
			Hits   float64 `json:"hits"`
			Misses float64 `json:"misses"`
		} `json:"sweep_cache"`
		Encoding struct {
			Resident float64 `json:"encoded_cache_resident_bytes"`
		} `json:"encoding"`
	}
	if err := json.Unmarshal(sb, &stats); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	o.set("service.cache_hits", stats.Cache.Hits, "count")
	o.set("service.cache_misses", stats.Cache.Misses, "count")
	o.set("service.encoded_resident_mb", mb(uint64(stats.Encoding.Resident)), "MB")
	ps := st.srv.Engine().PlanStats()
	o.set("core.plan_hits", float64(ps.Hits), "count")
	o.set("core.plan_misses", float64(ps.Misses), "count")
	o.set("core.plan_evictions", float64(ps.Evictions), "count")
	o.set("core.plan_resident_mb", mb(uint64(ps.ResidentBytes)), "MB")
	return nil
}
