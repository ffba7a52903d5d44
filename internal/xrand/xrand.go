// Package xrand provides small, deterministic pseudo-random number
// generators used by the workload generators.
//
// Every Copernicus experiment must be reproducible bit-for-bit across runs
// and platforms, so the generators here avoid math/rand's global state and
// version-dependent algorithms. The core generator is splitmix64 (Steele,
// Lea, Flood: "Fast Splittable Pseudorandom Number Generators", OOPSLA'14),
// which passes BigCrush, has a full 2^64 period, and — crucially for
// workload generation — supports cheap derivation of independent streams
// from a (seed, stream) pair.
package xrand

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random number generator. The zero value is
// a valid generator seeded with 0; use New to derive independent streams.
type Rand struct {
	state uint64
}

// New returns a generator for the given seed. Two generators with different
// seeds produce statistically independent sequences.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// NewStream derives an independent generator from a (seed, stream) pair.
// It is used to give every workload its own reproducible stream without
// coordinating seed assignment across packages.
func NewStream(seed, stream uint64) *Rand {
	// Mix the stream id through one splitmix64 round so that nearby stream
	// ids (0, 1, 2, ...) land far apart in the seed space.
	return New(seed ^ mix64(stream+0x9e3779b97f4a7c15))
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix64(r.state)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.uint64n(uint64(n)))
}

// uint64n returns a uniform integer in [0, n), n > 0, using Lemire's
// multiply-shift rejection method, which avoids modulo bias.
func (r *Rand) uint64n(n uint64) uint64 {
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normally distributed float64 using the
// Marsaglia polar method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ValueIn returns a non-zero matrix value in [lo, hi). Workload generators
// use it so that generated non-zero entries are never accidentally zero
// (a zero stored explicitly would corrupt nnz accounting).
func (r *Rand) ValueIn(lo, hi float64) float64 {
	for {
		v := lo + (hi-lo)*r.Float64()
		if v != 0 {
			return v
		}
	}
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function, mirroring math/rand.Shuffle.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Geometric returns a sample from a geometric distribution with success
// probability p (number of failures before the first success). Used by the
// random-matrix generator to skip ahead between non-zeros in O(nnz) time
// instead of O(n^2) coin flips.
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	u := r.Float64()
	// Inverse CDF: floor(ln(1-u) / ln(1-p)).
	return int(math.Floor(math.Log1p(-u) / math.Log1p(-p)))
}
