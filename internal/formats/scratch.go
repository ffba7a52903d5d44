package formats

import "sync"

// encScratch is the reusable intermediate state of the sparse-native
// encoders: counting/cursor arrays for the transpose-style formats (CSC,
// LIL, DIA, JDS) and the block staging buffer for BCSR, plus the
// permutation check of the JDS and SELL-C-σ decoders and the matchers'
// state: CSC and LIL's per-column cursors and DIA's diagonal-to-lane
// table. Callers check one out per call from a sync.Pool — effectively
// per-goroutine reuse under the tile-parallel plan warmup — so the warm
// encode, match and decode paths perform no intermediate allocations
// beyond their own outputs.
type encScratch struct {
	a []int32
	b []int32
	f []float64
}

var scratchPool = sync.Pool{New: func() any { return new(encScratch) }}

func getScratch() *encScratch  { return scratchPool.Get().(*encScratch) }
func putScratch(s *encScratch) { scratchPool.Put(s) }

// ints returns the primary int32 scratch of length n, zeroed.
func (s *encScratch) ints(n int) []int32 {
	if cap(s.a) < n {
		s.a = make([]int32, n)
		return s.a
	}
	s.a = s.a[:n]
	clear(s.a)
	return s.a
}

// ints2 returns the secondary int32 scratch of length n, zeroed.
func (s *encScratch) ints2(n int) []int32 {
	if cap(s.b) < n {
		s.b = make([]int32, n)
		return s.b
	}
	s.b = s.b[:n]
	clear(s.b)
	return s.b
}

// floats returns the float64 scratch of length n, zeroed.
func (s *encScratch) floats(n int) []float64 {
	if cap(s.f) < n {
		s.f = make([]float64, n)
		return s.f
	}
	s.f = s.f[:n]
	clear(s.f)
	return s.f
}
