// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process, in-process against the library (no CLI
// subprocesses):
//
//	go run . --workload suite_sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off;
// with --trace 1 it measures the same operations again with spans
// recorded around each layer's calls and reports the per-layer metrics.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md records why each
// workload exists and which layer metric should move which end-to-end
// metric on which workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed the recorded runs use; heldOutSeed is the
// second seed the correctness gate is also checked on.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// metricVal is one reported figure.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// runCfg is what every workload receives from the command line.
type runCfg struct {
	seed    uint64
	seconds float64
	trace   bool
}

// deadline is when a run that started at start stops measuring.
func (c runCfg) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(c.seconds * float64(time.Second)))
}

// outcome is what a workload reports: operations attempted and failed
// (a wrong output is a failure), its metrics, facts about its inputs
// and samples for the environment record, and a traced run's spans.
type outcome struct {
	attempted, failed int
	metrics           map[string]metricVal
	info              map[string]any
	tr                *tracer
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metricVal{}, info: map[string]any{}}
}

// op counts one operation; err marks it failed. The first few failures
// are printed to standard error.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
		}
	}
}

// ops counts n operations that succeeded and one failed operation per
// error in errs.
func (o *outcome) ops(n int, errs []error) {
	o.attempted += n
	for _, err := range errs {
		o.op(err)
	}
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metricVal{Value: v, Unit: unit}
}

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(ctx context.Context, c runCfg) (*outcome, error)
}

var workloadList = []workload{
	{"suite_sweep", func(ctx context.Context, c runCfg) (*outcome, error) { return runSuite(ctx, c, suiteDefault) }},
	{"large_sparse", func(ctx context.Context, c runCfg) (*outcome, error) { return runLarge(ctx, c, largeDefault) }},
	{"serve_mix", func(ctx context.Context, c runCfg) (*outcome, error) { return runServe(ctx, c, serveDefault) }},
}

// endToEnd lists the end-to-end metrics every workload reports with
// tracing off.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cold_ms", "ms"},
	{"warm_ms", "ms"},
	{"warm_p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"retained_mb", "MB"},
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout))
}

func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: suite_sweep | large_sparse | serve_mix")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the program receives only the inputs generated from it")
	seconds := fs.Float64("seconds", 40, "how long one run measures")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	spansDir := fs.String("spans-dir", "", "traced runs: write every span as JSON to <dir>/<workload>-seed<seed>.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloadList {
		if workloadList[i].name == *name {
			w = &workloadList[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload suite_sweep|large_sparse|serve_mix, --seconds > 0, --trace 0|1\n")
		return 2
	}
	c := runCfg{seed: *seed, seconds: *seconds, trace: *trace == 1}
	o, err := w.run(ctx, c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if c.trace {
		err = fillLayers(o.metrics, w.name)
	} else {
		err = checkEndToEnd(o.metrics)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if c.trace && *spansDir != "" && o.tr != nil {
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.json", w.name, c.seed))
		if err := o.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	env := environment(w.name, c)
	for k, v := range o.info {
		env[k] = v
	}
	rec, _ := json.Marshal(map[string]any{"environment": env})
	fmt.Fprintln(stdout, string(rec))
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// checkEndToEnd refuses an untraced result that lacks an end-to-end
// metric or reports one as zero.
func checkEndToEnd(m map[string]metricVal) error {
	for _, e := range endToEnd {
		v, ok := m[e.name]
		if !ok || !(v.Value > 0) {
			return fmt.Errorf("end-to-end metric %s missing or not positive (%v)", e.name, v.Value)
		}
	}
	return nil
}

// environment is the record printed with every result.
func environment(name string, c runCfg) map[string]any {
	env := map[string]any{
		"workload":    name,
		"seed":        c.seed,
		"seconds":     c.seconds,
		"trace":       c.trace,
		"go_version":  runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
	}
	// Read-only system descriptions; a host without them leaves the
	// fields out.
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lvl, err1 := os.ReadFile(dir + "level")
		size, err2 := os.ReadFile(dir + "size")
		typ, err3 := os.ReadFile(dir + "type")
		if err1 == nil && err2 == nil && err3 == nil && strings.TrimSpace(string(typ)) == "Unified" {
			env["cache_L"+strings.TrimSpace(string(lvl))] = strings.TrimSpace(string(size))
		}
	}
	return env
}
