// Package kernels implements the application kernels §3.3 identifies as
// SpMV-bound across the three sparse domains: conjugate gradients,
// Jacobi, and symmetric Gauss-Seidel for scientific computing; PageRank
// and breadth-first search for graph analytics. Each iterative kernel
// takes a pluggable SpMV backend, so the same algorithm runs over the
// software reference or through the modelled accelerator in any
// compression format.
package kernels

import (
	"context"
	"fmt"
	"math"

	"copernicus/internal/formats"
	"copernicus/internal/hlsim"
	"copernicus/internal/matrix"
)

// SpMV is the matrix-vector backend a kernel iterates with.
type SpMV func(x []float64) ([]float64, error)

// Software returns the plain software SpMV backend for m.
func Software(m *matrix.CSR) SpMV {
	return func(x []float64) ([]float64, error) {
		if len(x) != m.Cols {
			return nil, fmt.Errorf("kernels: vector length %d for %d columns", len(x), m.Cols)
		}
		return m.MulVec(x), nil
	}
}

// Accelerator returns an SpMV backend that streams m through the
// modelled pipeline in format k at partition size p. The returned
// CycleCost reports the modelled cycles of one multiplication.
//
// The backend holds an encode-once streaming plan: the matrix is
// partitioned, encoded, and decode-verified when the backend is built,
// so each solver iteration pays only the per-iteration dot work instead
// of re-running the whole partition→encode→decode pipeline. Warm
// iterations are allocation-free: the backend double-buffers its output,
// so a returned slice stays valid until the call after next (enough for
// every kernel in this package, which at most keeps the previous
// iterate) but is eventually overwritten — copy it to retain it. The
// returned backend is not safe for concurrent calls.
func Accelerator(cfg hlsim.Config, m *matrix.CSR, k formats.Kind, p int) (mul SpMV, cycleCost uint64, err error) {
	plan, err := hlsim.NewPlan(cfg, m, p)
	if err != nil {
		return nil, 0, err
	}
	// Probe once to validate the encoding and price the multiplication.
	probe, err := plan.RunContext(context.Background(), k, make([]float64, m.Cols))
	if err != nil {
		return nil, 0, err
	}
	var buf [2]hlsim.Result
	flip := 0
	return func(x []float64) ([]float64, error) {
		r := &buf[flip]
		flip ^= 1
		if err := plan.RunIntoContext(context.Background(), k, x, r); err != nil {
			return nil, err
		}
		return r.Y, nil
	}, probe.PipelinedCycles, nil
}

// Stats reports an iterative solve's outcome.
type Stats struct {
	Iterations int
	Residual   float64 // final ‖r‖₂ (or delta for eigen/rank iterations)
	Converged  bool
}

// CG solves A·x = b for symmetric positive-definite A with conjugate
// gradients, the §3.3 canonical iterative method. It stops when
// ‖r‖₂ < tol or after maxIter iterations.
func CG(mul SpMV, b []float64, tol float64, maxIter int) ([]float64, Stats, error) {
	n := len(b)
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	rs := dot(r, r)
	var st Stats
	for st.Iterations = 0; st.Iterations < maxIter; st.Iterations++ {
		if math.Sqrt(rs) < tol {
			st.Converged = true
			break
		}
		ap, err := mul(p)
		if err != nil {
			return nil, st, err
		}
		pap := dot(p, ap)
		if pap == 0 {
			break // breakdown: b is in A's null space direction
		}
		alpha := rs / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rsNew := dot(r, r)
		beta := rsNew / rs
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rs = rsNew
	}
	st.Residual = math.Sqrt(rs)
	st.Converged = st.Converged || st.Residual < tol
	return x, st, nil
}

// Jacobi solves A·x = b by Jacobi iteration given A's diagonal:
// x' = x + D⁻¹(b − A·x). It converges for strictly diagonally dominant
// systems (all the stencil matrices in this repository).
func Jacobi(mul SpMV, diag, b []float64, tol float64, maxIter int) ([]float64, Stats, error) {
	n := len(b)
	if len(diag) != n {
		return nil, Stats{}, fmt.Errorf("kernels: diagonal length %d for %d unknowns", len(diag), n)
	}
	for i, d := range diag {
		if d == 0 {
			return nil, Stats{}, fmt.Errorf("kernels: zero diagonal at %d", i)
		}
	}
	x := make([]float64, n)
	var st Stats
	for st.Iterations = 0; st.Iterations < maxIter; st.Iterations++ {
		ax, err := mul(x)
		if err != nil {
			return nil, st, err
		}
		norm := 0.0
		for i := range x {
			r := b[i] - ax[i]
			x[i] += r / diag[i]
			norm += r * r
		}
		st.Residual = math.Sqrt(norm)
		if st.Residual < tol {
			st.Converged = true
			st.Iterations++
			break
		}
	}
	return x, st, nil
}

// SymGaussSeidel performs `sweeps` symmetric Gauss-Seidel sweeps
// (forward then backward) on A·x = b — the smoother §3.3 cites inside
// CG-based PDE solvers. Gauss-Seidel's sequential dependence keeps it a
// software kernel here; it still consumes the matrix row by row exactly
// as the accelerator's decompressors produce rows.
func SymGaussSeidel(m *matrix.CSR, b []float64, sweeps int) ([]float64, Stats, error) {
	if m.Rows != m.Cols || len(b) != m.Rows {
		return nil, Stats{}, fmt.Errorf("kernels: Gauss-Seidel needs square A matching b")
	}
	n := m.Rows
	x := make([]float64, n)
	relax := func(i int) error {
		diag := 0.0
		sum := b[i]
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.Col[k]
			if j == i {
				diag = m.Val[k]
				continue
			}
			sum -= m.Val[k] * x[j]
		}
		if diag == 0 {
			return fmt.Errorf("kernels: zero diagonal at row %d", i)
		}
		x[i] = sum / diag
		return nil
	}
	var st Stats
	for s := 0; s < sweeps; s++ {
		for i := 0; i < n; i++ {
			if err := relax(i); err != nil {
				return nil, st, err
			}
		}
		for i := n - 1; i >= 0; i-- {
			if err := relax(i); err != nil {
				return nil, st, err
			}
		}
		st.Iterations++
	}
	ax := m.MulVec(x)
	norm := 0.0
	for i := range ax {
		d := ax[i] - b[i]
		norm += d * d
	}
	st.Residual = math.Sqrt(norm)
	st.Converged = true
	return x, st, nil
}

// dot returns the inner product of two equal-length vectors.
func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
