// Command copernicus regenerates the paper's evaluation artifacts and
// runs ad-hoc characterizations from the command line.
//
// Usage:
//
//	copernicus list                      # available experiments
//	copernicus all [flags]               # regenerate every figure/table
//	copernicus fig4 [flags]              # regenerate one artifact
//	copernicus sweep [flags]             # characterize one matrix: formats x partitions x backend
//	copernicus advise [flags]            # recommend a format for a matrix
//	copernicus workloads [flags]         # describe the workload suites
//	copernicus bench -json [flags]       # time the engine hot paths, emit BENCH_sweep.json
//	copernicus serve [flags]             # long-running characterization service (HTTP/JSON)
//	copernicus loadgen [flags]           # drive a live server with a mixed scenario deck, emit BENCH_loadgen.json
//
// Flags:
//
//	-scale N    workload dimension cap (default 1024; 256 ≈ seconds)
//	-csv        emit CSV instead of aligned tables
//	-p N        partition size for advise (default 16)
//	-backend B  costing backend for sweep/advise/bench: analytic|native
//	-threads T  native SpMV fan-out (native backend only, 1..GOMAXPROCS)
//	-kernel K   kernel spec for sweep/advise: spmv|spmm:K|cg:N|jacobi:N|pagerank:N|bfs
//	-kind K     matrix kind for advise: random|band|graph|stencil|circuit|ml
//	-n N        matrix dimension for advise (default 512)
//	-density D  density for random/ml matrices (default 0.05)
//	-width W    band width (default 8)
//	-seed S     generator seed (default 1)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"copernicus"
	"copernicus/internal/formats"
	"copernicus/internal/service"
	"copernicus/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "copernicus:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	cmd, rest := args[0], args[1:]

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	scale := fs.Int("scale", 1024, "workload dimension cap")
	csv := fs.Bool("csv", false, "emit CSV")
	p := fs.Int("p", 16, "partition size")
	kind := fs.String("kind", "random", "matrix kind for advise/convert/stats/scaling")
	n := fs.Int("n", 512, "matrix dimension")
	density := fs.Float64("density", 0.05, "density for random/ml matrices")
	width := fs.Int("width", 8, "band width")
	seed := fs.Uint64("seed", 1, "generator seed")
	mtxPath := fs.String("mtx", "", "Matrix Market file to load instead of generating")
	out := fs.String("out", "", "output path (convert; bench JSON, default BENCH_sweep.json)")
	outDir := fs.String("outdir", "", "write each artifact as <id>.txt and <id>.csv into this directory")
	lanes := fs.Int("lanes", 8, "maximum pipeline instances (scaling)")
	format := fs.String("format", "COO", "format name (scaling/trace)")
	tiles := fs.Int("tiles", 12, "maximum tiles to render (trace)")
	jsonOut := fs.Bool("json", false, "write bench results as JSON (bench)")
	iters := fs.Int("iters", 5, "timed iterations per benchmark (bench)")
	backendID := fs.String("backend", "analytic", "costing backend for sweep/advise/bench: "+strings.Join(copernicus.BackendIDs(), "|"))
	threads := fs.Int("threads", 0, "native SpMV fan-out for sweep/advise/bench: goroutines per multiplication (native backend only, 1..GOMAXPROCS)")
	kernel := fs.String("kernel", "", "kernel spec for sweep/advise: spmv|spmm:K|cg:N|jacobi:N|pagerank:N|bfs (default spmv)")
	formatsList := fs.String("formats", "", "comma-separated formats (sweep; default core set)")
	psList := fs.String("ps", "8,16,32", "comma-separated partition sizes (sweep)")
	addr := fs.String("addr", "localhost:8459", "listen address (serve)")
	workersFlag := fs.String("workers", "", "serve: sweep worker-pool size, empty = GOMAXPROCS; with -coordinator, the comma-separated worker host:port fleet")
	coordinator := fs.Bool("coordinator", false, "serve: run as a cluster coordinator fanning sweeps out over the -workers fleet")
	workersFile := fs.String("workers-file", "", "serve -coordinator: static fleet config, one worker host:port per line (#-comments and blanks ignored)")
	cacheEntries := fs.Int("cache", 256, "sweep result cache entries (serve)")
	readTimeout := fs.Duration("read-timeout", 0, "serve: max time to read a request, 0 = 30s default, negative = unlimited")
	writeTimeout := fs.Duration("write-timeout", 0, "serve: max time to write a response, 0 = unlimited (NDJSON/SSE streams must not be cut)")
	idleTimeout := fs.Duration("idle-timeout", 0, "serve: keep-alive idle limit, 0 = 120s default, negative = unlimited")
	maxHeaderBytes := fs.Int("max-header-bytes", 0, "serve: request header size limit, 0 = 1 MiB default")
	requestTimeout := fs.Duration("request-timeout", 0, "serve: per-request compute deadline cap, 0 = 60s default, negative = disabled")
	timeout := fs.Duration("timeout", 0, "abort sweep/advise/bench/loadgen after this long (0 = no limit)")
	target := fs.String("target", "http://localhost:8459", "server base URL (loadgen)")
	rps := fs.Float64("rps", 50, "target request rate (loadgen)")
	lgDuration := fs.Duration("duration", 10*time.Second, "how long to drive load (loadgen)")
	lgConc := fs.Int("conc", 64, "max in-flight requests (loadgen)")
	lgMatrix := fs.String("matrix", "DW", "matrix ID the warm scenarios hit (loadgen)")
	lgStrict := fs.Bool("strict", false, "exit non-zero on any failed request or an idle run (loadgen)")
	lgWait := fs.Duration("wait-ready", 15*time.Second, "how long to wait for the server to answer healthz (loadgen)")
	lgCluster := fs.Bool("cluster", false, "loadgen: drive the sweep-heavy rotating-matrix cluster deck, recorded as the \"cluster\" run")
	if err := fs.Parse(rest); err != nil {
		return err
	}

	// Compute subcommands run under a cancelable context: Ctrl-C (or
	// SIGTERM, or -timeout) aborts the engine mid-warmup instead of
	// letting it run to completion. On cancellation they exit non-zero
	// with a note that any output already printed is partial.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	notePartial := func(err error) error {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "copernicus: canceled — any output above is partial")
		}
		return err
	}

	load := func() (*copernicus.Matrix, error) {
		if *mtxPath != "" {
			return copernicus.LoadMatrixMarket(*mtxPath)
		}
		return buildMatrix(*kind, *n, *density, *width, *seed)
	}

	switch cmd {
	case "list":
		fmt.Println("experiments:", strings.Join(copernicus.Experiments(), " "))
		fmt.Println("extensions: ", strings.Join(copernicus.ExtExperiments(), " "))
		return nil
	case "ext":
		return runExperiments(copernicus.ExtExperiments(), *scale, *csv, *outDir)
	case "all":
		return runExperiments(copernicus.Experiments(), *scale, *csv, *outDir)
	case "sweep":
		m, err := load()
		if err != nil {
			return err
		}
		return notePartial(sweepCmd(ctx, m, *kind, *backendID, *threads, *kernel, *formatsList, *psList, *csv))
	case "advise":
		m, err := load()
		if err != nil {
			return err
		}
		return notePartial(advise(ctx, m, *kind, *p, *backendID, *threads, *kernel))
	case "stats":
		m, err := load()
		if err != nil {
			return err
		}
		return stats(m)
	case "convert":
		m, err := load()
		if err != nil {
			return err
		}
		if *out == "" {
			return copernicus.WriteMatrixMarket(os.Stdout, m)
		}
		return copernicus.SaveMatrixMarket(*out, m)
	case "scaling":
		m, err := load()
		if err != nil {
			return err
		}
		return scaling(m, *format, *p, *lanes)
	case "trace":
		m, err := load()
		if err != nil {
			return err
		}
		return trace(m, *format, *p, *tiles)
	case "bench":
		return notePartial(benchCmd(ctx, *scale, *iters, *jsonOut, *out, *backendID, *threads))
	case "loadgen":
		lgOut := *out
		if lgOut == "" {
			lgOut = "BENCH_loadgen.json"
		}
		return notePartial(loadgenCmd(ctx, loadgenConfig{
			target:   *target,
			rps:      *rps,
			duration: *lgDuration,
			conc:     *lgConc,
			matrix:   *lgMatrix,
			out:      lgOut,
			strict:   *lgStrict,
			wait:     *lgWait,
			cluster:  *lgCluster,
		}))
	case "serve":
		return serve(serveConfig{
			addr:           *addr,
			scale:          *scale,
			workersFlag:    *workersFlag,
			coordinator:    *coordinator,
			workersFile:    *workersFile,
			cacheEntries:   *cacheEntries,
			readTimeout:    *readTimeout,
			writeTimeout:   *writeTimeout,
			idleTimeout:    *idleTimeout,
			maxHeaderBytes: *maxHeaderBytes,
			requestTimeout: *requestTimeout,
		})
	case "workloads":
		return describeWorkloads(*scale)
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		for _, id := range append(copernicus.Experiments(), copernicus.ExtExperiments()...) {
			if cmd == id {
				return runExperiments([]string{id}, *scale, *csv, *outDir)
			}
		}
		usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: copernicus <list|all|sweep|advise|stats|convert|scaling|bench|serve|loadgen|workloads|fig3..fig14|table2> [flags]`)
}

// benchResult is one timed benchmark in the BENCH_sweep.json record.
// AllocsPerOp/BytesPerOp track the allocation trajectory of each hot
// path alongside its latency (heap deltas via runtime.ReadMemStats).
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	Points      int     `json:"points,omitempty"`
	// PayloadBytes is set on serving-path entries: the response (or
	// encoded slab) size in bytes, so the JSON-vs-columnar size ratio is
	// part of the per-commit record.
	PayloadBytes int `json:"payload_bytes,omitempty"`
	// Speedup is set on derived ratio entries (parallel_speedup_csr):
	// the single-thread ns_per_op over the full-width ns_per_op.
	Speedup float64 `json:"speedup,omitempty"`
	// ResidentBytes is set on the warm sweep entry: the engine's cached
	// plans' resident bytes (PlanStats().ResidentBytes) after the sweep.
	ResidentBytes int64 `json:"resident_bytes,omitempty"`
}

// measure times fn over iters iterations, recording wall time and heap
// allocation deltas per op.
func measure(name string, iters, points int, fn func() error) (benchResult, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return benchResult{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return benchResult{
		Name:        name,
		Iterations:  iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
		Points:      points,
	}, nil
}

// benchRecord is the perf-trajectory artifact emitted by `bench -json`.
// Backend, GoVersion and GOMAXPROCS pin the measurement environment so
// the trajectory stays comparable across machines, toolchains and
// costing backends.
type benchRecord struct {
	Scale      int           `json:"scale"`
	Workers    int           `json:"workers"`
	Backend    string        `json:"backend"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	CPUs       int           `json:"cpus"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// benchCmd times the two engine hot paths the streaming-plan layer
// accelerates — a full characterization sweep and an iterative CG solve
// through the accelerator backend — and optionally records them to
// BENCH_sweep.json so the performance trajectory is tracked per commit.
func benchCmd(ctx context.Context, scale, iters int, jsonOut bool, out, backendID string, threads int) error {
	if iters < 1 {
		iters = 1
	}
	if scale < 16 {
		return fmt.Errorf("bench: -scale must be >= 16 (got %d)", scale)
	}
	bk, err := cliBackend(backendID, threads)
	if err != nil {
		return err
	}
	// Sweep benchmark: SuiteSparse suite × core formats × all partition
	// sizes on a long-lived engine (plan reuse reflects steady state),
	// costed by the selected backend.
	e := copernicus.NewEngine()
	// Non-parallelizable backends force the sweep serial; the record pins
	// the concurrency the sweep actually ran with, not the pool setting.
	workers := e.Workers()
	if !bk.Parallelizable() {
		workers = 1
	}
	rec := benchRecord{
		Scale:      scale,
		Backend:    bk.ID(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		Workers:    workers,
	}
	ws := copernicus.SuiteSparseWorkloads(copernicus.WorkloadConfig{Scale: scale, RandomDim: scale, BandDim: scale})
	points := len(ws) * len(copernicus.CoreFormats()) * len(copernicus.PartitionSizes())
	spmv := []copernicus.KernelSpec{copernicus.DefaultKernel()}
	slab, err := e.SweepKernelsWith(ctx, bk, ws, spmv, copernicus.CoreFormats(), copernicus.PartitionSizes())
	if err != nil {
		return err
	}
	res, err := measure("sweep_suitesparse_core_formats", iters, points, func() error {
		_, err := e.SweepKernelsWith(ctx, bk, ws, spmv, copernicus.CoreFormats(), copernicus.PartitionSizes())
		return err
	})
	if err != nil {
		return err
	}
	res.ResidentBytes = e.PlanStats().ResidentBytes
	rec.Benchmarks = append(rec.Benchmarks, res)

	// Cold sweep: the same inputs on a fresh engine per op, so every plan
	// pays its warmup (partition, encode, decode-verify) inside the timing.
	res, err = measure("cold_sweep_suitesparse_core_formats", iters, points, func() error {
		_, err := copernicus.NewEngine().SweepKernelsWith(ctx, bk, ws, spmv, copernicus.CoreFormats(), copernicus.PartitionSizes())
		return err
	})
	if err != nil {
		return err
	}
	rec.Benchmarks = append(rec.Benchmarks, res)

	// Streamed-sweep latency: the same warm sweep through
	// SweepGroupsKernelsWith, recording both how quickly the first result
	// row reaches the caller (the latency a streaming client or NDJSON
	// consumer sees) and the total stream time. On a warm engine the gap
	// between the two is the whole point of incremental delivery: first-row
	// latency stays at one group's cost no matter how many groups the sweep
	// spans.
	var firstNs, totalNs float64
	for i := 0; i < iters; i++ {
		gotFirst := false
		start := time.Now()
		err := e.SweepGroupsKernelsWith(ctx, bk, ws, spmv, copernicus.CoreFormats(), copernicus.PartitionSizes(),
			func(copernicus.SweepGroup) error {
				if !gotFirst {
					gotFirst = true
					firstNs += float64(time.Since(start).Nanoseconds())
				}
				return nil
			})
		if err != nil {
			return err
		}
		totalNs += float64(time.Since(start).Nanoseconds())
	}
	rec.Benchmarks = append(rec.Benchmarks,
		benchResult{Name: "sweep_stream_time_to_first_result", Iterations: iters, NsPerOp: firstNs / float64(iters), Points: points},
		benchResult{Name: "sweep_stream_total", Iterations: iters, NsPerOp: totalNs / float64(iters), Points: points})

	// Serving-encode benchmarks: rendering the suite slab as the full
	// JSON response envelope versus the columnar wire body. The payload
	// sizes land in the record, so the JSON/columnar ratio (the wire
	// format's reason to exist) is tracked per commit alongside the
	// encode cost the warm cache eliminates.
	benchInfo := service.MatrixInfo{ID: "bench", Name: "suite-slab", Source: "builtin", Kind: "suite"}
	var jsonSlab, colSlab []byte
	res, err = measure("encode_json_slab", iters, len(slab), func() error {
		jsonSlab = service.SweepBodyJSON(benchInfo, true, slab)
		return nil
	})
	if err != nil {
		return err
	}
	res.PayloadBytes = len(jsonSlab)
	rec.Benchmarks = append(rec.Benchmarks, res)
	res, err = measure("encode_col_slab", iters, len(slab), func() error {
		colSlab = wire.Encode(slab)
		return nil
	})
	if err != nil {
		return err
	}
	res.PayloadBytes = len(colSlab)
	rec.Benchmarks = append(rec.Benchmarks, res)

	// Warm-hit benchmarks: a cached sweep served through the live
	// handler per content type — the whole request path with zero
	// marshal work. The response writer is a sink so the measurement is
	// the serving path, not a recorder's buffer management.
	svc := service.New(service.Options{Scale: 64})
	handler := svc.Handler()
	warmBody := `{"matrix": "DW", "partitions": [8, 16, 32]}`
	warmHit := func(accept string) (int64, error) {
		req, err := http.NewRequest("POST", "/v1/sweep", strings.NewReader(warmBody))
		if err != nil {
			return 0, err
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		sink := &sinkResponseWriter{h: make(http.Header)}
		handler.ServeHTTP(sink, req)
		if sink.status != 0 && sink.status != http.StatusOK {
			return 0, fmt.Errorf("warm hit answered %d", sink.status)
		}
		return sink.n, nil
	}
	for _, hit := range []struct {
		name   string
		accept string
	}{
		{"serve_warm_hit_json", ""},
		{"serve_warm_hit_col", wire.ContentType},
	} {
		var n int64
		// Two priming requests: the cold compute, then the warm encode
		// that attaches the body to the cache entry.
		for i := 0; i < 2; i++ {
			if n, err = warmHit(hit.accept); err != nil {
				return err
			}
		}
		res, err = measure(hit.name, iters*100, 0, func() error {
			_, err := warmHit(hit.accept)
			return err
		})
		if err != nil {
			return err
		}
		res.PayloadBytes = int(n)
		rec.Benchmarks = append(rec.Benchmarks, res)
	}
	svc.Shutdown()

	// Iterative-kernel benchmark: 60 CG iterations through the
	// accelerator backend (plan built once per op, reused per iteration).
	m := copernicus.Stencil2D(16, 16, 3)
	rhs := make([]float64, m.Rows)
	for i := range rhs {
		rhs[i] = 1
	}
	res, err = measure("cg_accelerator_csr_p16_60iter", iters, 0, func() error {
		mul, _, err := copernicus.AcceleratorBackend(m, copernicus.CSR, 16)
		if err != nil {
			return err
		}
		_, _, err = copernicus.SolveCG(mul, rhs, 0, 60)
		return err
	})
	if err != nil {
		return err
	}
	rec.Benchmarks = append(rec.Benchmarks, res)

	// Large-sparse cold-plan benchmark: a big, very sparse matrix at
	// several partition sizes. Cold partition→encode cost now scales with
	// nnz, not tiles·p² — this entry makes the O(p²)→O(nnz) trajectory
	// visible in the per-commit BENCH record.
	big := copernicus.Random(16*scale, 0.001, 77)
	x := make([]float64, big.Cols)
	for _, p := range []int{scale / 4, scale} {
		res, err = measure(fmt.Sprintf("cold_plan_large_sparse_p%d", p), iters, 0, func() error {
			pl, err := copernicus.NewStreamPlan(big, p)
			if err != nil {
				return err
			}
			_, err = pl.RunContext(context.Background(), copernicus.CSR, x)
			return err
		})
		if err != nil {
			return err
		}
		rec.Benchmarks = append(rec.Benchmarks, res)
	}

	// Warm-path benchmark: steady-state SpMV on a warm plan through the
	// allocation-free RunIntoContext path (allocs_per_op must stay 0). The
	// plan keeps the product of the first operand it multiplies, so it is
	// warmed with another operand (x is all zeros, this one all ones): the
	// timed x walks the row list, as a solver iteration does.
	warm, err := copernicus.NewStreamPlan(big, scale/4)
	if err != nil {
		return err
	}
	ones := make([]float64, len(x))
	for i := range ones {
		ones[i] = 1
	}
	var sr copernicus.StreamResult
	if err := warm.RunIntoContext(context.Background(), copernicus.CSR, ones, &sr); err != nil {
		return err
	}
	res, err = measure("warm_plan_runinto_csr", iters*100, 0, func() error {
		return warm.RunIntoContext(context.Background(), copernicus.CSR, x, &sr)
	})
	if err != nil {
		return err
	}
	rec.Benchmarks = append(rec.Benchmarks, res)
	runIntoNs := res.NsPerOp

	// Executable-kernel benchmarks: warm tile-parallel SpMV through each
	// format's own kernel on the same large sparse matrix, at one thread
	// and at full machine width. The t1/tmax pair exposes per-format
	// kernel cost and parallel scaling in one artifact; allocs_per_op
	// must stay 0 on every warm exec path.
	maxT := runtime.GOMAXPROCS(0)
	kernelFormats := []struct {
		name string
		f    copernicus.Format
	}{
		{"csr", copernicus.CSR}, {"ell", copernicus.ELL}, {"sellcs", copernicus.SELLCS},
		{"bcsr", copernicus.BCSR}, {"dia", copernicus.DIA},
	}
	var csrT1Ns, csrTmaxNs float64
	for _, kf := range kernelFormats {
		for _, tc := range []struct {
			label   string
			threads int
		}{{"t1", 1}, {"tmax", maxT}} {
			if err := warm.RunExecIntoContext(context.Background(), kf.f, x, &sr, tc.threads); err != nil {
				return err
			}
			res, err = measure(fmt.Sprintf("native_spmv_%s_%s", kf.name, tc.label), iters*100, 0, func() error {
				return warm.RunExecIntoContext(context.Background(), kf.f, x, &sr, tc.threads)
			})
			if err != nil {
				return err
			}
			rec.Benchmarks = append(rec.Benchmarks, res)
			if kf.name == "csr" {
				if tc.label == "t1" {
					csrT1Ns = res.NsPerOp
				} else {
					csrTmaxNs = res.NsPerOp
				}
			}
		}
	}
	speedup := csrT1Ns / csrTmaxNs
	rec.Benchmarks = append(rec.Benchmarks, benchResult{
		Name: "parallel_speedup_csr", Iterations: iters * 100, NsPerOp: csrTmaxNs, Speedup: speedup,
	})

	// Partition-size exec benchmarks: warm RunExecIntoContext on the same
	// large sparse matrix at p = 64/128/256, CSR and SELL-C-σ. Partition size
	// trades tile-dispatch overhead (small p, many tiles) against cache
	// residency and padding (large p); these entries plus the best-p
	// verdict line pin where that trade lands for the exec kernels.
	execBestP := map[string]int{}
	execBestNs := map[string]float64{}
	for _, pf := range []struct {
		name string
		f    copernicus.Format
	}{{"csr", copernicus.CSR}, {"sellcs", copernicus.SELLCS}} {
		for _, p := range []int{64, 128, 256} {
			pl, err := copernicus.NewStreamPlan(big, p)
			if err != nil {
				return err
			}
			if err := pl.RunExecIntoContext(context.Background(), pf.f, x, &sr, 1); err != nil {
				return err
			}
			res, err = measure(fmt.Sprintf("exec_partition_%s_p%d", pf.name, p), iters*10, 0, func() error {
				return pl.RunExecIntoContext(context.Background(), pf.f, x, &sr, 1)
			})
			if err != nil {
				return err
			}
			rec.Benchmarks = append(rec.Benchmarks, res)
			if best, ok := execBestNs[pf.name]; !ok || res.NsPerOp < best {
				execBestNs[pf.name] = res.NsPerOp
				execBestP[pf.name] = p
			}
		}
	}

	// CSR skip-list before/after: the exec CSR kernel walks an encode-time
	// non-empty-row skip list instead of reading all p row offsets per
	// tile. The full walk stays available as the bit-identical reference,
	// so both traversals are timed on the same encoded tiles of the large
	// sparse matrix — the pair records what the skip list buys.
	pt := copernicus.PartitionMatrix(big, scale/4)
	type csrTile struct {
		enc *copernicus.CSRTile
		row int
		col int
	}
	var csrTiles []csrTile
	for _, tile := range pt {
		enc, ok := copernicus.Encode(copernicus.CSR, tile).(*copernicus.CSRTile)
		if !ok {
			return fmt.Errorf("bench: CSR encode returned %T", copernicus.Encode(copernicus.CSR, tile))
		}
		csrTiles = append(csrTiles, csrTile{enc: enc, row: tile.Row, col: tile.Col})
	}
	yWalk := make([]float64, big.Rows)
	for _, mode := range []struct {
		name string
		full bool
	}{{"csr_exec_full_row_walk", true}, {"csr_exec_skip_row_walk", false}} {
		res, err = measure(mode.name, iters*10, 0, func() error {
			clear(yWalk)
			for _, ct := range csrTiles {
				ys := yWalk[ct.row:min(ct.row+scale/4, big.Rows)]
				if mode.full {
					ct.enc.SpMVFullWalk(x[ct.col:], ys)
				} else {
					ct.enc.SpMV(x[ct.col:], ys)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		rec.Benchmarks = append(rec.Benchmarks, res)
	}

	// Kernel-axis benchmarks: one full multi-iteration kernel invocation
	// through the warm exec iteration loop (RunKernelInto) — the unit the
	// native backend times for -kernel specs. 60 CG iterations over CSR
	// and an 8-column SpMM over SELL-C-σ, both single-threaded; the warm
	// loop must stay allocation-free like the single SpMV it repeats.
	kernelRuns := []struct {
		name  string
		f     copernicus.Format
		iters int
	}{
		{"native_cg60_csr_t1", copernicus.CSR, 60},
		{"native_spmm8_sellcs_t1", copernicus.SELLCS, 8},
	}
	for _, kr := range kernelRuns {
		if err := warm.RunKernelInto(ctx, kr.f, x, &sr, 1, kr.iters); err != nil {
			return err
		}
		res, err = measure(kr.name, iters*10, 0, func() error {
			return warm.RunKernelInto(ctx, kr.f, x, &sr, 1, kr.iters)
		})
		if err != nil {
			return err
		}
		rec.Benchmarks = append(rec.Benchmarks, res)
	}

	// Kernel-axis sweep: the SuiteSparse sweep across two kernel specs
	// (spmv and cg:60) on the warm engine. The plan cache keys only
	// (matrix, p), so the second kernel re-prices cached plans instead of
	// re-encoding — this entry tracks that the axis stays close to 2x the
	// single-kernel sweep, not 2x the cold cost.
	cg60, err := copernicus.ParseKernel("cg:60")
	if err != nil {
		return err
	}
	axisSpecs := []copernicus.KernelSpec{copernicus.DefaultKernel(), cg60}
	if _, err := e.SweepKernelsWith(ctx, bk, ws, axisSpecs, copernicus.CoreFormats(), copernicus.PartitionSizes()); err != nil {
		return err
	}
	res, err = measure("sweep_kernel_axis_warm", iters, 2*points, func() error {
		_, err := e.SweepKernelsWith(ctx, bk, ws, axisSpecs, copernicus.CoreFormats(), copernicus.PartitionSizes())
		return err
	})
	if err != nil {
		return err
	}
	rec.Benchmarks = append(rec.Benchmarks, res)

	for _, b := range rec.Benchmarks {
		fmt.Printf("%-34s %8d iters  %12.0f ns/op %10.0f allocs/op %14.0f B/op\n",
			b.Name, b.Iterations, b.NsPerOp, b.AllocsPerOp, b.BytesPerOp)
	}
	// Raw-speed assertion (ROADMAP item 2): the full-width parallel CSR
	// kernel against the warm single-thread RunIntoContext reference. The
	// exec path pays the format's real per-tile traversal (offset walks,
	// padding) that RunIntoContext's fused row list skips, so the win arrives
	// only when the fan-out outruns that honest overhead; the verdict
	// line states the comparison either way. On a one-core host there is
	// no fan-out to measure and the assertion is reported as skipped.
	fmt.Printf("exec_partition_best: csr p=%d (%.0f ns), sellcs p=%d (%.0f ns)\n",
		execBestP["csr"], execBestNs["csr"], execBestP["sellcs"], execBestNs["sellcs"])
	switch {
	case maxT == 1:
		fmt.Printf("parallel_csr_vs_runinto: skipped (GOMAXPROCS=1; exec t1 %.0f ns vs RunInto %.0f ns)\n",
			csrT1Ns, runIntoNs)
	case csrTmaxNs < runIntoNs:
		fmt.Printf("parallel_csr_vs_runinto: %.0f ns -> %.0f ns (%.2fx vs RunInto, %.2fx vs t1) [ok: parallel beats warm RunInto]\n",
			runIntoNs, csrTmaxNs, runIntoNs/csrTmaxNs, speedup)
	default:
		fmt.Printf("parallel_csr_vs_runinto: %.0f ns vs RunInto %.0f ns (%.2fx vs t1) [miss: fan-out below traversal overhead]\n",
			csrTmaxNs, runIntoNs, speedup)
	}
	if !jsonOut {
		return nil
	}
	if out == "" {
		out = "BENCH_sweep.json"
	}
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// sinkResponseWriter discards the response body while counting it — the
// warm-hit benchmarks time the serving path itself, not buffer copies
// into a test recorder.
type sinkResponseWriter struct {
	h      http.Header
	status int
	n      int64
}

func (w *sinkResponseWriter) Header() http.Header { return w.h }
func (w *sinkResponseWriter) WriteHeader(s int)   { w.status = s }
func (w *sinkResponseWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return len(b), nil
}

// cliBackend resolves the -backend/-threads flag pair: -threads is
// native-only (measured fan-out is meaningless for the analytic model)
// and bounded by GOMAXPROCS, rejected with a clear error otherwise.
func cliBackend(backendID string, threads int) (copernicus.Backend, error) {
	b, err := copernicus.BackendFor(backendID)
	if err != nil {
		return nil, err
	}
	if threads == 0 {
		return b, nil
	}
	return copernicus.WithNativeThreads(b, threads)
}

// cliKernel resolves the -kernel flag; empty keeps the pre-kernel-axis
// default of one SpMV.
func cliKernel(kernel string) (copernicus.KernelSpec, error) {
	if kernel == "" {
		return copernicus.DefaultKernel(), nil
	}
	return copernicus.ParseKernel(kernel)
}

// buildMatrix generates a matrix of the named kind.
func buildMatrix(kind string, n int, density float64, width int, seed uint64) (*copernicus.Matrix, error) {
	switch kind {
	case "random":
		return copernicus.Random(n, density, seed), nil
	case "band":
		return copernicus.Band(n, width, seed), nil
	case "graph":
		return copernicus.ScaleFreeGraph(n, 6, seed), nil
	case "stencil":
		side := 1
		for (side+1)*(side+1) <= n {
			side++
		}
		return copernicus.Stencil2D(side, side, seed), nil
	case "circuit":
		return copernicus.Circuit(n, seed), nil
	case "ml":
		return copernicus.PrunedWeights(n, n, density, seed), nil
	default:
		return nil, fmt.Errorf("unknown matrix kind %q", kind)
	}
}

// stats prints the Fig. 3 statistics for one matrix.
func stats(m *copernicus.Matrix) error {
	fmt.Printf("matrix: %dx%d, nnz=%d, density=%.5g, bandwidth=%d\n",
		m.Rows, m.Cols, m.NNZ(), m.Density(), m.Bandwidth())
	fmt.Println("p   partdens%  rowdens%  nzrows%  nztiles  totaltiles")
	for _, p := range copernicus.PartitionSizes() {
		s := copernicus.Stats(m, p)
		fmt.Printf("%-3d %9.2f  %8.2f  %7.2f  %7d  %10d\n",
			p, 100*s.PartitionDensity, 100*s.RowDensity, 100*s.NonZeroRowFrac,
			s.NonZeroTiles, s.TotalTiles)
	}
	return nil
}

// trace prints the per-partition pipeline timeline.
func trace(m *copernicus.Matrix, formatName string, p, maxTiles int) error {
	f, err := formats.Parse(formatName)
	if err != nil {
		return err
	}
	traces, err := copernicus.TraceSpMV(m, f, p)
	if err != nil {
		return err
	}
	return copernicus.RenderTimeline(os.Stdout, traces, maxTiles)
}

// scaling sweeps coarse-grained pipeline instances (§5.1).
func scaling(m *copernicus.Matrix, formatName string, p, maxLanes int) error {
	f, err := formats.Parse(formatName)
	if err != nil {
		return err
	}
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1
	}
	base, err := copernicus.SpMVParallel(m, x, f, p, 1)
	if err != nil {
		return err
	}
	fmt.Printf("coarse-grained scaling, %v at p=%d over %d non-zero tiles:\n", f, p, base.NonZeroTiles)
	fmt.Println("lanes  cycles       speedup  efficiency")
	for lanes := 1; lanes <= maxLanes; lanes *= 2 {
		r, err := copernicus.SpMVParallel(m, x, f, p, lanes)
		if err != nil {
			return err
		}
		fmt.Printf("%-5d  %-11d  %6.2fx  %9.3f\n",
			lanes, r.TotalCycles, float64(base.TotalCycles)/float64(r.TotalCycles), r.Efficiency())
	}
	return nil
}

func options(scale int) *copernicus.ReportOptions {
	o := copernicus.NewReportOptions()
	o.WL = copernicus.WorkloadConfig{Scale: scale, RandomDim: scale, BandDim: scale}
	return o
}

func runExperiments(ids []string, scale int, csv bool, outDir string) error {
	o := options(scale)
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	for _, id := range ids {
		t, err := copernicus.RunExperiment(o, id)
		if err != nil {
			return err
		}
		if outDir != "" {
			if err := writeArtifact(outDir, id, t); err != nil {
				return err
			}
			fmt.Printf("wrote %s/%s.{txt,csv}\n", outDir, id)
			continue
		}
		if csv {
			if err := t.CSV(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
			continue
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func writeArtifact(dir, id string, t copernicus.ExperimentTable) error {
	txt, err := os.Create(filepath.Join(dir, id+".txt"))
	if err != nil {
		return err
	}
	if err := t.Render(txt); err != nil {
		txt.Close()
		return err
	}
	if err := txt.Close(); err != nil {
		return err
	}
	csvf, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	if err := t.CSV(csvf); err != nil {
		csvf.Close()
		return err
	}
	return csvf.Close()
}

func advise(ctx context.Context, m *copernicus.Matrix, kind string, p int, backendID string, threads int, kernel string) error {
	b, err := cliBackend(backendID, threads)
	if err != nil {
		return err
	}
	sc, err := cliKernel(kernel)
	if err != nil {
		return err
	}
	class := copernicus.Classify(m)
	sf, alts, why := copernicus.StaticAdvice(class)
	fmt.Printf("matrix: %s, %dx%d, nnz=%d, density=%.4g, class=%s\n",
		kind, m.Rows, m.Cols, m.NNZ(), m.Density(), class)
	fmt.Printf("paper §8 rule of thumb: %v (alternatives %v)\n  %s\n", sf, alts, why)

	// The analytic default keeps this artifact byte-identical to the
	// pre-backend CLI; other backends and kernels announce themselves.
	if b.ID() != "analytic" {
		fmt.Printf("backend: %s (latency axis is measured host wall time)\n", b.ID())
	}
	if s := sc.String(); s != "spmv" {
		fmt.Printf("kernel: %s (latency axis is the whole kernel invocation, decompression amortized)\n", s)
	}
	ws := []copernicus.Workload{{ID: "advisor", M: m}}
	rs, err := copernicus.NewEngine().SweepKernelsWith(ctx, b, ws, []copernicus.KernelSpec{sc}, copernicus.SparseFormats(), []int{p})
	if err != nil {
		return err
	}
	rec, err := copernicus.Rank(rs, copernicus.BalancedObjective())
	if err != nil {
		return err
	}
	fmt.Printf("measured recommendation: %s\n", rec.Reason)
	fmt.Println("ranking (best first):")
	for i, r := range rec.Results {
		fmt.Printf("  %d. %-7v time=%.3es  sigma=%6.2f  balance=%5.2f  bw_util=%.3f  dyn=%4.0fmW  bram=%d\n",
			i+1, rec.Ranking[i], r.Seconds, r.Sigma, r.BalanceRatio,
			r.BandwidthUtil, r.Synth.DynamicW*1000, r.Synth.BRAM18K)
	}
	return nil
}

// sweepCmd characterizes one matrix across formats × partition sizes
// under the selected backend and kernel — the CLI face of the backend
// seam and the kernel axis. With -backend native the seconds/ns-per-nnz
// columns are measured host-CPU wall time of the warm streaming kernel;
// with the default analytic backend they are the paper's modelled
// accelerator time. With -kernel cg:60 (etc.) every row costs the whole
// iteration loop, decompression amortized across iterations.
//
// Rows print as each partition-size group completes (the engine's
// streaming sweep), so a canceled run still shows the finished groups —
// the caller marks such output as partial.
func sweepCmd(ctx context.Context, m *copernicus.Matrix, kind, backendID string, threads int, kernel, formatsList, psList string, csv bool) error {
	b, err := cliBackend(backendID, threads)
	if err != nil {
		return err
	}
	sc, err := cliKernel(kernel)
	if err != nil {
		return err
	}
	kinds := copernicus.CoreFormats()
	if formatsList != "" {
		kinds = kinds[:0]
		for _, name := range strings.Split(formatsList, ",") {
			k, err := formats.Parse(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			kinds = append(kinds, k)
		}
	}
	var ps []int
	for _, tok := range strings.Split(psList, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || p < 1 {
			return fmt.Errorf("sweep: bad partition size %q", tok)
		}
		ps = append(ps, p)
	}

	e := copernicus.NewEngine()
	ws := []copernicus.Workload{{ID: "matrix", M: m}}
	specs := []copernicus.KernelSpec{sc}
	if csv {
		fmt.Println("backend,kernel,iterations,format,p,seconds,ns_per_nnz,sigma,balance,bw_util,measured")
		return e.SweepGroupsKernelsWith(ctx, b, ws, specs, kinds, ps, func(g copernicus.SweepGroup) error {
			for _, r := range g.Results {
				fmt.Printf("%s,%s,%d,%s,%d,%.6e,%.3f,%.3f,%.3f,%.4f,%t\n",
					r.Backend, r.Kernel, r.Iterations, r.Format, r.P, r.Seconds, r.NsPerNNZ, r.Sigma,
					r.BalanceRatio, r.BandwidthUtil, r.Measured)
			}
			return nil
		})
	}
	fmt.Printf("matrix: %s, %dx%d, nnz=%d, density=%.4g\n",
		kind, m.Rows, m.Cols, m.NNZ(), m.Density())
	headed := false
	return e.SweepGroupsKernelsWith(ctx, b, ws, specs, kinds, ps, func(g copernicus.SweepGroup) error {
		for _, r := range g.Results {
			if !headed {
				headed = true
				fmt.Printf("backend: %s", b.ID())
				if b.ID() == "native" {
					fmt.Printf(" (min of %d timed runs, threads=%d; host ns, not accelerator cycles)",
						r.MeasuredRuns, r.Threads)
				}
				if r.Kernel != "spmv" {
					fmt.Printf("  kernel: %s (%d iterations per invocation)", r.Kernel, r.Iterations)
				}
				fmt.Println()
				fmt.Println("format   p    seconds     ns/nnz      sigma    balance  bw_util")
			}
			fmt.Printf("%-7v  %-3d  %.3e  %10.2f  %7.2f  %7.2f  %7.4f\n",
				r.Format, r.P, r.Seconds, r.NsPerNNZ, r.Sigma, r.BalanceRatio, r.BandwidthUtil)
		}
		return nil
	})
}

func describeWorkloads(scale int) error {
	c := copernicus.WorkloadConfig{Scale: scale, RandomDim: scale, BandDim: scale}
	fmt.Println("SuiteSparse surrogates (Table 1):")
	for _, w := range copernicus.SuiteSparseWorkloads(c) {
		fmt.Printf("  %-2s %-18s %-26s dim=%-6d nnz=%-8d density=%.5f (paper: %.3gM x %.3gM nnz)\n",
			w.ID, w.Name, w.Kind, w.M.Rows, w.M.NNZ(), w.Density(), w.PaperDim, w.PaperNNZ)
	}
	fmt.Println("Random suite:")
	for _, w := range copernicus.RandomWorkloads(c) {
		fmt.Printf("  %-8s dim=%-6d nnz=%-8d density=%.5f\n", w.ID, w.M.Rows, w.M.NNZ(), w.Density())
	}
	fmt.Println("Band suite:")
	for _, w := range copernicus.BandWorkloads(c) {
		fmt.Printf("  %-8s dim=%-6d nnz=%-8d bandwidth=%d\n", w.ID, w.M.Rows, w.M.NNZ(), w.M.Bandwidth())
	}
	return nil
}
