// Package report regenerates every table and figure of the paper's
// evaluation section (§6) from the characterization engine: σ overheads
// (Figs. 4–7), latency/balance scatter (Fig. 8), throughput-vs-latency
// curves (Fig. 9), memory-bandwidth utilization (Figs. 10–12), resource
// and power estimates (Table 2, Fig. 13), the normalized cross-metric
// summary (Fig. 14), and the workload statistics of Fig. 3.
//
// Each generator returns a Table whose rows carry the same series the
// paper plots; Render writes an aligned ASCII form and CSV an
// importable form for plotting.
package report

import (
	"context"
	"fmt"
	"io"
	"strings"

	"copernicus/internal/core"
	"copernicus/internal/formats"
	"copernicus/internal/scenario"
	"copernicus/internal/workloads"
)

// Table is one regenerated artifact.
type Table struct {
	ID     string // experiment id, e.g. "fig4"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned ASCII.
func (t Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad))
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	total := 0
	for i, wd := range widths {
		if i > 0 {
			total += 2
		}
		total += wd
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV writes the table as comma-separated values (fields are simple
// tokens, so no quoting is needed).
func (t Table) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Header, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Options configures the harness: the engine (hardware model) and the
// workload scaling. The zero value is not usable; call NewOptions.
// Options caches sweep results, so generators that share a sweep (e.g.
// Figs. 7, 8, 12, 14) pay for it once. Not safe for concurrent use.
type Options struct {
	Engine *core.Engine
	WL     workloads.Config

	suites map[string][]workloads.Workload
	cache  map[string][]core.Result
}

// NewOptions returns the default full-scale harness configuration.
func NewOptions() *Options {
	return &Options{
		Engine: core.New(),
		WL:     workloads.DefaultConfig(),
		suites: map[string][]workloads.Workload{},
		cache:  map[string][]core.Result{},
	}
}

// NewSmallOptions returns a reduced-scale configuration for tests and
// quick bench runs: identical structure, smaller matrices.
func NewSmallOptions() *Options {
	o := NewOptions()
	o.WL = workloads.Config{Scale: 256, RandomDim: 256, BandDim: 256, Seed: 0xC0FE}
	return o
}

// SuiteNames are the three workload groups the paper's figures compare.
var SuiteNames = []string{"SuiteSparse", "Random", "Band"}

func (o *Options) suite(name string) []workloads.Workload {
	if ws, ok := o.suites[name]; ok {
		return ws
	}
	var ws []workloads.Workload
	switch name {
	case "SuiteSparse":
		ws = workloads.SuiteSparse(o.WL)
	case "Random":
		ws = workloads.RandomSuite(o.WL)
	case "Band":
		ws = workloads.BandSuite(o.WL)
	default:
		panic(fmt.Sprintf("report: unknown suite %q", name))
	}
	o.suites[name] = ws
	return ws
}

// results characterizes one suite at one partition size across the core
// formats, cached.
func (o *Options) results(suite string, p int) ([]core.Result, error) {
	key := fmt.Sprintf("%s/%d", suite, p)
	if rs, ok := o.cache[key]; ok {
		return rs, nil
	}
	rs, err := o.Engine.SweepKernelsWith(context.Background(), nil, o.suite(suite), []scenario.Spec{scenario.Default()}, formats.Core(), []int{p})
	if err != nil {
		return nil, err
	}
	o.cache[key] = rs
	return rs, nil
}

// byFormat indexes results of one workload sweep by format.
func byFormat(rs []core.Result) map[formats.Kind][]core.Result {
	out := map[formats.Kind][]core.Result{}
	for _, r := range rs {
		out[r.Format] = append(out[r.Format], r)
	}
	return out
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
