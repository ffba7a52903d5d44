package formats

// Slab carves encoding streams out of shared chunks, so a pass that
// encodes many small tiles makes a few chunk allocations instead of
// several allocations per tile. Every stream it hands out is exact-length
// and capacity-limited (s[:n:n]): an append on it reallocates instead of
// writing into a neighbour's stream. Memory is never handed out twice, so
// a chunk lives until the last encoding carved from it is dropped.
//
// A nil *Slab allocates every stream with make, exactly sized — what the
// public encoders, the resident exec encodings and the ablation encoders
// use. A Slab is not safe for concurrent use; give each goroutine its own.
type Slab struct {
	i32      []int32
	f64      []float64
	i32Lists [][]int32
	f64Lists [][]float64
}

// Chunk lengths, in elements: 32 KiB of int32 or float64 data, or 1024
// list headers.
const (
	slabInts   = 8192
	slabFloats = 4096
	slabLists  = 1024
)

// int32s returns a zeroed stream of n int32s.
func (s *Slab) int32s(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	return carve(&s.i32, slabInts, n)
}

// float64s returns a zeroed stream of n float64s.
func (s *Slab) float64s(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	return carve(&s.f64, slabFloats, n)
}

// int32Lists returns n nil []int32 list headers (LIL's per-column lists).
func (s *Slab) int32Lists(n int) [][]int32 {
	if s == nil {
		return make([][]int32, n)
	}
	return carve(&s.i32Lists, slabLists, n)
}

// float64Lists returns n nil []float64 list headers.
func (s *Slab) float64Lists(n int) [][]float64 {
	if s == nil {
		return make([][]float64, n)
	}
	return carve(&s.f64Lists, slabLists, n)
}

// carve cuts n zeroed elements off the front of *chunk, starting a fresh
// chunk of size elements when the current one is too short. A request
// above a quarter chunk gets its own allocation and leaves the current
// chunk in place for the requests after it, so the tail a fresh chunk
// strands stays under a quarter of a chunk.
func carve[T any](chunk *[]T, size, n int) []T {
	if n > size/4 {
		return make([]T, n)
	}
	if len(*chunk) < n {
		*chunk = make([]T, size)
	}
	out := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return out
}
