package formats

// Slab carves encoding streams out of shared chunks, so a pass that
// encodes many small tiles makes a few chunk allocations instead of
// several allocations per tile. Every stream it hands out is exact-length
// and capacity-limited (s[:n:n]): an append on it reallocates instead of
// writing into a neighbour's stream.
//
// Reset rewinds the slab for the next pass: each current chunk is handed
// out again from its start, and the oversized streams (above a quarter
// chunk, which get memory of their own) become reusable. A caller that
// encodes, uses and drops one tile at a time — the plan warmup's
// encode → price → decode-verify step — therefore reuses the same few
// kilobytes for every tile. The contract is the caller's: Reset only when
// no encoding carved since the last Reset is reachable, since its memory
// is handed out again. A slab that is never reset never hands memory out
// twice; a chunk then lives until the last encoding carved from it is
// dropped.
//
// The slab also owns one encoder struct per kind, so an encode, use and
// drop step allocates nothing once the slab is warm. It hands each struct
// out at most once between Resets; a second Encode of the same kind
// before the next Reset gets a struct of its own, so encodings that are
// kept never share one.
//
// A nil *Slab allocates every stream and encoder struct with make, exactly
// sized — what the public encoders, the resident exec encodings and the
// ablation encoders use. A Slab is not safe for concurrent use; give each
// goroutine its own.
type Slab struct {
	i32 arena[int32]
	f64 arena[float64]

	// encs[k] is the slab's own encoder struct of kind k, made on its
	// first use; taken has bit k set while it is handed out.
	encs  [numKinds]any
	taken uint32
}

// slabEnc returns the encoder struct for a kind-k encode: the slab's own
// when it is not handed out since the last Reset, else a new one. The
// caller overwrites every field.
func slabEnc[T any](s *Slab, k Kind) *T {
	if s == nil || s.taken&(1<<k) != 0 {
		return new(T)
	}
	s.taken |= 1 << k
	e, ok := s.encs[k].(*T)
	if !ok {
		e = new(T)
		s.encs[k] = e
	}
	return e
}

// Chunk lengths, in elements: 32 KiB of int32 or float64 data.
const (
	slabInts   = 8192
	slabFloats = 4096
)

// int32s returns a zeroed stream of n int32s.
func (s *Slab) int32s(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	return s.i32.carve(slabInts, n)
}

// float64s returns a zeroed stream of n float64s.
func (s *Slab) float64s(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	return s.f64.carve(slabFloats, n)
}

// Reset makes every stream and encoder struct handed out since the last
// Reset available again: each current chunk rewinds to its start with
// only its used prefix cleared, the oversized streams go on a free list
// that later requests of a fitting size take from (zeroed, with len ==
// cap), and the next Encode of each kind reuses the slab's own struct.
// Only a chunk that a pass outgrew is dropped rather than rewound. A nil
// slab's Reset is a no-op.
func (s *Slab) Reset() {
	if s == nil {
		return
	}
	s.taken = 0
	s.i32.reset()
	s.f64.reset()
}

// arena is one element type's share of a Slab.
type arena[T any] struct {
	// chunk is the current chunk; chunk[used:] is zeroed and not yet
	// handed out.
	chunk []T
	used  int
	// big holds the oversized streams handed out since the last Reset,
	// at their full capacity; free holds the ones a Reset returned, not
	// yet cleared.
	big, free [][]T
}

// carve cuts n zeroed elements off the current chunk, starting a fresh
// chunk of size elements when the current one is too short. A request
// above a quarter chunk is served as an oversized stream and leaves the
// current chunk in place for the requests after it, so the tail a fresh
// chunk strands stays under a quarter of a chunk.
func (a *arena[T]) carve(size, n int) []T {
	if n > size/4 {
		return a.oversized(n)
	}
	if len(a.chunk)-a.used < n {
		a.chunk, a.used = make([]T, size), 0
	}
	out := a.chunk[a.used : a.used+n : a.used+n]
	a.used += n
	return out
}

// oversized returns n zeroed elements of their own: the smallest free
// stream that holds n, cleared, or else a new allocation. On a miss the
// smallest free stream (too short for this request) is dropped, so the
// streams an arena keeps never outnumber the most oversized requests one
// pass has made.
func (a *arena[T]) oversized(n int) []T {
	best, smallest := -1, -1
	for i, f := range a.free {
		if cap(f) >= n && (best < 0 || cap(f) < cap(a.free[best])) {
			best = i
		}
		if smallest < 0 || cap(f) < cap(a.free[smallest]) {
			smallest = i
		}
	}
	var buf []T
	if best >= 0 {
		buf = a.free[best]
		clear(buf[:n])
		a.dropFree(best)
	} else {
		if smallest >= 0 {
			a.dropFree(smallest)
		}
		buf = make([]T, n)
	}
	a.big = append(a.big, buf)
	return buf[:n:n]
}

// dropFree removes free[i], order not kept.
func (a *arena[T]) dropFree(i int) {
	last := len(a.free) - 1
	a.free[i] = a.free[last]
	a.free[last] = nil
	a.free = a.free[:last]
}

// reset rewinds the current chunk and frees the oversized streams.
func (a *arena[T]) reset() {
	clear(a.chunk[:a.used])
	a.used = 0
	a.free = append(a.free, a.big...)
	clear(a.big)
	a.big = a.big[:0]
}
