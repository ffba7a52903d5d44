package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"copernicus/internal/formats"
	"copernicus/internal/matrix"
	"copernicus/internal/scenario"
	"copernicus/internal/workloads"
)

// Objective weights the metrics an advisor recommendation optimizes.
// Weights need not sum to one; only their ratios matter.
type Objective struct {
	Latency   float64 // lower modelled seconds
	Power     float64 // lower dynamic power
	Bandwidth float64 // higher memory-bandwidth utilization
	Resources float64 // fewer BRAM banks
	Balance   float64 // balance ratio closer to 1
}

// LatencyObjective optimizes modelled time only.
func LatencyObjective() Objective { return Objective{Latency: 1} }

// BalancedObjective mirrors the paper's §8 discussion: latency first,
// with power, bandwidth and resources as secondary concerns.
func BalancedObjective() Objective {
	return Objective{Latency: 1, Power: 0.3, Bandwidth: 0.3, Resources: 0.2, Balance: 0.2}
}

// Recommendation is the advisor's ranked outcome.
type Recommendation struct {
	Format  formats.Kind
	Score   float64 // higher is better
	Reason  string
	Ranking []formats.Kind // all candidates, best first
	Results []Result       // the underlying characterizations, same order
}

// Recommend characterizes the matrix across the candidate formats
// (empty selects the seven sparse formats) at the given partition size
// for one SpMV, and ranks them under the objective. It is the executable
// form of the paper's §8 guidance: rather than assuming a specialized
// format fits a structured matrix, measure the whole pipeline —
// decompressor mismatch can erase a format's storage advantage. Other
// kernels, backends and partition sizes are Rank over SweepKernelsWith.
func (e *Engine) Recommend(m *matrix.CSR, p int, candidates []formats.Kind, obj Objective) (Recommendation, error) {
	if len(candidates) == 0 {
		candidates = formats.Sparse()
	}
	ws := []workloads.Workload{{ID: "advisor", M: m}}
	rs, err := e.SweepKernelsWith(context.Background(), nil, ws, []scenario.Spec{scenario.Default()}, candidates, []int{p})
	if err != nil {
		return Recommendation{}, err
	}
	return Rank(rs, obj)
}

// Rank orders characterization results under the objective without
// touching the engine: every advice is Rank over a sweep, so callers
// holding cached sweep results — the serving layer's advise path — rank
// without re-running it. The results should cover one matrix. Over one
// partition size it ranks formats; over several (a sweep's ps) it jointly
// ranks format × partition-size design points, the full §4.2
// hyperparameter space. A kernel spec other than spmv makes the latency
// axis that kernel's whole cost — "best format for 60 CG iterations" —
// which can flip the ranking (report ext9 tabulates exactly this), while
// the power/resource axes stay the synthesis estimates. Ties keep the
// sweep's order.
func Rank(rs []Result, obj Objective) (Recommendation, error) {
	if len(rs) == 0 {
		return Recommendation{}, fmt.Errorf("core: no results to rank")
	}
	scores := scoreResults(rs, obj)

	order := make([]int, len(rs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })

	rec := Recommendation{
		Format: rs[order[0]].Format,
		Score:  scores[order[0]],
	}
	for _, i := range order {
		rec.Ranking = append(rec.Ranking, rs[i].Format)
		rec.Results = append(rec.Results, rs[i])
	}
	best := rs[order[0]]
	kern := ""
	if best.Kernel != "" && best.Kernel != "spmv" {
		kern = fmt.Sprintf(" for %s (%d iterations)", best.Kernel, best.Iterations)
	}
	rec.Reason = fmt.Sprintf(
		"%v wins at p=%d%s: modelled time %.3gs (σ=%.2f), bandwidth utilization %.2f, %.0f mW dynamic, %d BRAM banks",
		best.Format, best.P, kern, best.Seconds, best.Sigma, best.BandwidthUtil,
		best.Synth.DynamicW*1000, best.Synth.BRAM18K)
	return rec, nil
}

// scoreResults assigns each result a weighted score under the
// objective, min-max normalizing every metric across the candidate set
// (1 best). Latency and power normalize on a log scale so a single
// extreme outlier (CSC's orientation mismatch) cannot flatten the
// distinctions among the remaining candidates.
func scoreResults(rs []Result, obj Objective) []float64 {
	norm := func(get func(Result) float64, higherBetter bool) []float64 {
		vals := make([]float64, len(rs))
		lo, hi := get(rs[0]), get(rs[0])
		for i, r := range rs {
			vals[i] = get(r)
			if vals[i] < lo {
				lo = vals[i]
			}
			if vals[i] > hi {
				hi = vals[i]
			}
		}
		out := make([]float64, len(rs))
		for i, v := range vals {
			if hi == lo {
				out[i] = 1
				continue
			}
			s := (v - lo) / (hi - lo)
			if !higherBetter {
				s = 1 - s
			}
			out[i] = s
		}
		return out
	}
	lat := norm(func(r Result) float64 { return math.Log(r.Seconds) }, false)
	pow := norm(func(r Result) float64 { return math.Log(r.Synth.DynamicW) }, false)
	bw := norm(func(r Result) float64 { return r.BandwidthUtil }, true)
	res := norm(func(r Result) float64 { return float64(r.Synth.BRAM18K) }, false)
	bal := norm(func(r Result) float64 { return logDistToOne(r.BalanceRatio) }, false)
	scores := make([]float64, len(rs))
	for i := range rs {
		scores[i] = obj.Latency*lat[i] + obj.Power*pow[i] + obj.Bandwidth*bw[i] +
			obj.Resources*res[i] + obj.Balance*bal[i]
	}
	return scores
}

func logDistToOne(v float64) float64 {
	if v <= 0 {
		return 1e9
	}
	if v < 1 {
		v = 1 / v
	}
	return v
}

// MatrixClass is the coarse workload taxonomy of §3 used by the static
// advisor.
type MatrixClass int

// Workload classes.
const (
	ClassExtremelySparse  MatrixClass = iota // scientific/graph, density < 0.01
	ClassModeratelySparse                    // pruned ML models, density ≥ 0.1
	ClassBanded                              // band/diagonal structure
	ClassGeneral
)

// String names the class.
func (c MatrixClass) String() string {
	switch c {
	case ClassExtremelySparse:
		return "extremely sparse"
	case ClassModeratelySparse:
		return "moderately sparse (ML)"
	case ClassBanded:
		return "band/diagonal"
	default:
		return "general"
	}
}

// Classify buckets a matrix into the §3 taxonomy.
func Classify(m *matrix.CSR) MatrixClass {
	n := m.Rows
	if n == 0 {
		return ClassGeneral
	}
	if bw := m.Bandwidth(); n >= 16 && bw <= n/8 {
		return ClassBanded
	}
	switch d := m.Density(); {
	case d >= 0.1:
		return ClassModeratelySparse
	case d < 0.01:
		return ClassExtremelySparse
	}
	return ClassGeneral
}

// StaticAdvice returns the paper's §8 rule-of-thumb recommendation for a
// class without running the model: COO for diverse extremely sparse
// matrices (fastest, least dynamic power on generic hardware); BCSR or
// LIL when throughput at low power matters or density is high; ELL for
// wide band matrices on generic hardware, or DIA only when the compute
// engine is co-designed with the format.
func StaticAdvice(c MatrixClass) (first formats.Kind, alternatives []formats.Kind, rationale string) {
	switch c {
	case ClassModeratelySparse:
		return formats.BCSR, []formats.Kind{formats.LIL, formats.ELL},
			"density ≥ 0.1: BCSR/LIL exploit extra memory bandwidth; keep partitions at 8×8–16×16 (§8)"
	case ClassBanded:
		return formats.ELL, []formats.Kind{formats.LIL, formats.DIA},
			"band structure: ELL is fastest and cheapest on generic hardware; DIA only pays off with a format-tailored compute engine (§8)"
	default:
		return formats.COO, []formats.Kind{formats.LIL, formats.BCSR},
			"diverse sparse matrices: generic COO beats specialized formats on generic hardware and tolerates distribution variance (§8)"
	}
}
