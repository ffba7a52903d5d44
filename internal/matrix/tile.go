package matrix

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Tile is one p×p partition of a larger sparse matrix. Copernicus applies
// every compression format to non-zero partitions rather than to the
// whole matrix (§4.1): partitioning bounds metadata growth, enables
// coarse-grained parallelism, and lets all-zero partitions be skipped
// entirely.
//
// A tile is stored sparse-natively as a compact per-tile CSR: row i's
// entries occupy cols/vals[rowPtr[i]:rowPtr[i+1]], with local column
// indices sorted ascending. Partition builds these spans directly into
// per-partitioning backing buffers, so resident memory scales with the
// tile's non-zeros, never with p². Tiles on the matrix boundary are
// implicitly zero-padded to the full p×p shape, matching the hardware's
// fixed-width dot-product engine — padding rows simply have empty spans.
//
// Mutation (Set) and decode paths append (row, column, value) entries to
// a staging list that is folded back into the CSR form ("sealed") on the
// next read, in O(nnz + p): no p² buffer exists at any point. Entries
// staged in strictly ascending (row, column) order — what the row-major
// decoders emit — seal in one compacting pass; any other order is
// counting-sorted by row first. A tile made by NewTile owns its storage
// and can be recycled with Reset, so a decode loop reuses one tile's
// capacity across every tile it decodes. A sealed tile is safe for
// concurrent reads; mutation is not goroutine-safe.
type Tile struct {
	P        int // partition edge length
	Row, Col int // origin of the tile in the parent matrix

	// Sealed CSR view: row i spans cols/vals[rowPtr[i]:rowPtr[i+1]].
	rowPtr []int32 // len P+1
	cols   []int32 // local column indices, ascending within a row
	vals   []float64
	nzRows int

	// st is the mutation staging area. Nil marks a tile whose spans alias
	// a partitioning's shared backing buffers (Partition, TileAt); a
	// non-nil st means the tile owns its CSR buffers and may reuse them.
	st *tileStage
}

// tileStage holds Set calls since the last seal, in call order, plus the
// seal's reusable scratch. Pending entries mark the tile dirty.
type tileStage struct {
	ents []stageEntry // pending Set calls; non-empty means dirty
	// sorted reports that ents is strictly ascending by (row, column), so
	// seal can compact it in one pass without the row sort.
	sorted bool
	byRow  []stageEntry // seal scratch: ents counting-sorted by row
	cur    []int32      // seal scratch: per-row scatter cursors
}

type stageEntry struct {
	i, j int32
	v    float64
}

// NewTile returns an all-zero p×p tile at the given origin that owns its
// storage, ready for Set calls (decoders and tests build tiles this way;
// the partitioner constructs tiles over shared spans directly).
func NewTile(p, row, col int) *Tile {
	if p <= 0 {
		panic(fmt.Sprintf("matrix: NewTile with p=%d", p))
	}
	return &Tile{P: p, Row: row, Col: col, rowPtr: make([]int32, p+1), st: new(tileStage)}
}

// Reset turns t back into an all-zero p×p tile at origin (0, 0), keeping
// the capacity of its buffers, so one tile can receive decode after
// decode without allocating. Slices previously returned by RowView are
// invalidated. Reset panics on a tile built over partition spans
// (Partition, TileAt) that no Set has yet moved onto storage of its own.
func (t *Tile) Reset(p int) {
	if t.st == nil {
		panic("matrix: Reset on a tile that does not own its storage")
	}
	if p <= 0 {
		panic(fmt.Sprintf("matrix: Reset with p=%d", p))
	}
	t.P, t.Row, t.Col = p, 0, 0
	t.rowPtr = zeroed(t.rowPtr, p+1)
	t.cols, t.vals = t.cols[:0], t.vals[:0]
	t.nzRows = 0
	t.st.ents = t.st.ents[:0]
}

// zeroed returns s resized to n zeroed elements, reusing its capacity.
func zeroed(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// newTileCSR wires a sealed tile over pre-built CSR spans (Partition and
// TileAt own the backing buffers).
func newTileCSR(p, row, col int, rowPtr, cols []int32, vals []float64, nzRows int) Tile {
	return Tile{P: p, Row: row, Col: col, rowPtr: rowPtr, cols: cols, vals: vals, nzRows: nzRows}
}

// dirty reports whether Set entries are pending. The row accessors test
// it before calling seal, so reading a sealed tile makes no seal call and
// NNZ, NonZeroRows and RowNNZ stay inlinable.
func (t *Tile) dirty() bool { return t.st != nil && len(t.st.ents) != 0 }

// seal folds the pending Set entries into the CSR view with the
// semantics of a dense buffer: the last write to a coordinate wins, and a
// final value of 0 (or -0) leaves no entry, while NaN is kept. Strictly
// ascending (row, column) staging — no coordinate repeats, rows already in
// order — is compacted in one pass. Otherwise entries are counting-sorted
// by row (stable, so each row keeps call order) and each row is stably
// sorted by column only when it arrives out of order — O(nnz + p) for
// every decoder that emits columns ascending within a row. It is a no-op
// on a sealed tile (and safe concurrently, once sealed).
func (t *Tile) seal() {
	st := t.st
	if st == nil || len(st.ents) == 0 {
		return
	}
	if st.sorted {
		t.sealSorted()
		return
	}
	p, n := t.P, len(st.ents)
	rp := zeroed(t.rowPtr, p+1)
	for _, e := range st.ents {
		rp[e.i+1]++
	}
	st.cur = zeroed(st.cur, p)
	for i := 0; i < p; i++ {
		st.cur[i] = rp[i]
		rp[i+1] += rp[i]
	}
	if cap(st.byRow) < n {
		st.byRow = make([]stageEntry, n)
	}
	byRow := st.byRow[:n]
	for _, e := range st.ents {
		byRow[st.cur[e.i]] = e
		st.cur[e.i]++
	}

	cols, vals := t.emptyEntries(n)
	nzRows, lo := 0, 0
	for i := 0; i < p; i++ {
		hi := int(rp[i+1])
		row := byRow[lo:hi]
		for k := 1; k < len(row); k++ {
			if row[k].j < row[k-1].j {
				slices.SortStableFunc(row, func(a, b stageEntry) int { return cmp.Compare(a.j, b.j) })
				break
			}
		}
		start := len(cols)
		for k := 0; k < len(row); {
			e := row[k]
			for k++; k < len(row) && row[k].j == e.j; k++ {
				e = row[k] // last write wins
			}
			if e.v != 0 {
				cols = append(cols, e.j)
				vals = append(vals, e.v)
			}
		}
		if len(cols) != start {
			nzRows++
		}
		rp[i+1] = int32(len(cols))
		lo = hi
	}
	t.rowPtr, t.cols, t.vals, t.nzRows = rp, cols, vals, nzRows
	st.ents = st.ents[:0]
}

// emptyEntries returns t's column and value buffers emptied, with room
// for n entries.
func (t *Tile) emptyEntries(n int) ([]int32, []float64) {
	cols, vals := t.cols[:0], t.vals[:0]
	if cap(cols) < n {
		cols = make([]int32, 0, n)
	}
	if cap(vals) < n {
		vals = make([]float64, 0, n)
	}
	return cols, vals
}

// sealSorted is seal for strictly ascending staging: one pass drops the
// zeros, copies the rest in order and counts them per row, then a prefix
// sum turns the counts into row pointers.
func (t *Tile) sealSorted() {
	st := t.st
	n := len(st.ents)
	rp := zeroed(t.rowPtr, t.P+1)
	cols, vals := t.emptyEntries(n)
	nzRows := 0
	for _, e := range st.ents {
		if e.v == 0 {
			continue
		}
		if rp[e.i+1] == 0 {
			nzRows++
		}
		rp[e.i+1]++
		cols = append(cols, e.j)
		vals = append(vals, e.v)
	}
	for i := 1; i < len(rp); i++ {
		rp[i] += rp[i-1]
	}
	t.rowPtr, t.cols, t.vals, t.nzRows = rp, cols, vals, nzRows
	st.ents = st.ents[:0]
}

// Set stores v at local coordinates (i, j); storing 0 clears the entry.
// The write is staged and takes effect at the next read. On a tile whose
// spans alias a partitioning's shared buffers, the first Set moves the
// tile onto storage of its own, leaving the shared buffers untouched.
func (t *Tile) Set(i, j int, v float64) {
	if uint(i) >= uint(t.P) || uint(j) >= uint(t.P) {
		panic(fmt.Sprintf("matrix: Set(%d, %d) outside a %d×%d tile", i, j, t.P, t.P))
	}
	st := t.st
	if st == nil {
		st = new(tileStage)
		st.stageSealed(t)
		t.st = st
		t.rowPtr, t.cols, t.vals = nil, nil, nil
	} else if len(st.ents) == 0 {
		st.stageSealed(t)
	}
	e := stageEntry{int32(i), int32(j), v}
	if n := len(st.ents); st.sorted && n > 0 {
		last := st.ents[n-1]
		st.sorted = last.i < e.i || (last.i == e.i && last.j < e.j)
	}
	st.ents = append(st.ents, e)
}

// stageSealed re-opens a sealed tile by staging its current entries, so
// the next seal merges them with the new writes. The entries go in in
// row-major order, so the staging starts out sorted.
func (st *tileStage) stageSealed(t *Tile) {
	st.sorted = true
	if len(t.vals) == 0 {
		return
	}
	for i := 0; i < t.P; i++ {
		for k := t.rowPtr[i]; k < t.rowPtr[i+1]; k++ {
			st.ents = append(st.ents, stageEntry{int32(i), t.cols[k], t.vals[k]})
		}
	}
}

// At returns the value at local coordinates (i, j).
func (t *Tile) At(i, j int) float64 {
	if t.dirty() {
		t.seal()
	}
	lo, hi := int(t.rowPtr[i]), int(t.rowPtr[i+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if int(t.cols[mid]) < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(t.rowPtr[i+1]) && int(t.cols[lo]) == j {
		return t.vals[lo]
	}
	return 0
}

// NNZ returns the number of non-zero entries in the tile.
func (t *Tile) NNZ() int {
	if t.dirty() {
		t.seal()
	}
	return len(t.vals)
}

// Density returns NNZ / P².
func (t *Tile) Density() float64 { return float64(t.NNZ()) / float64(t.P*t.P) }

// RowNNZ returns the number of non-zeros in local row i.
func (t *Tile) RowNNZ(i int) int {
	cols, _ := t.RowView(i)
	return len(cols)
}

// NonZeroRows returns the count of rows with at least one non-zero. This
// drives both the dot-product count in Eq. (1) and the inner-pipeline
// utilization discussed in §5.1.
func (t *Tile) NonZeroRows() int {
	if t.dirty() {
		t.seal()
	}
	return t.nzRows
}

// RowView returns local row i's non-zeros: ascending local column
// indices and the matching values. The slices alias the tile's storage —
// callers must not mutate them, and a later Set or Reset invalidates
// them. A walk over every row — the format encoders and matchers — reads
// Spans instead, with no call per row.
func (t *Tile) RowView(i int) (cols []int32, vals []float64) {
	if t.dirty() {
		t.seal()
	}
	s, e := t.rowPtr[i], t.rowPtr[i+1]
	return t.cols[s:e:e], t.vals[s:e:e]
}

// Spans returns the tile's sealed CSR arrays: row i's entries are
// cols/vals[rowPtr[i]:rowPtr[i+1]], and len(rowPtr) is P+1. Pending Set
// entries are sealed first. The slices alias the tile's storage, with
// the RowView contract: callers must not mutate them, and a later Set or
// Reset invalidates them. Flat arrays let a per-tile check walk every row
// without a call per row.
func (t *Tile) Spans() (rowPtr, cols []int32, vals []float64) {
	if t.dirty() {
		t.seal()
	}
	return t.rowPtr, t.cols, t.vals
}

// Clone returns a deep copy of the tile; the copy owns its storage.
func (t *Tile) Clone() *Tile {
	t.seal()
	return &Tile{
		P: t.P, Row: t.Row, Col: t.Col,
		rowPtr: append([]int32(nil), t.rowPtr...),
		cols:   append([]int32(nil), t.cols...),
		vals:   append([]float64(nil), t.vals...),
		nzRows: t.nzRows,
		st:     new(tileStage),
	}
}

// EqualValues reports whether two tiles hold identical values (origin and
// size included; NaN equals NaN).
func (t *Tile) EqualValues(o *Tile) bool {
	return t.Row == o.Row && t.Col == o.Col && t.SameEntries(o)
}

// SameEntries reports whether two tiles of one size hold the same entries,
// ignoring their origins. It compares the sealed row pointers, columns and
// values as flat slices, treating NaN as equal to NaN — the entry-level
// check a decode cross-check needs, without a per-row walk.
func (t *Tile) SameEntries(o *Tile) bool {
	if t.P != o.P {
		return false
	}
	t.seal()
	o.seal()
	if len(t.vals) != len(o.vals) || !slices.Equal(t.rowPtr, o.rowPtr) || !slices.Equal(t.cols, o.cols) {
		return false
	}
	for k, v := range t.vals {
		if w := o.vals[k]; v != w && !(math.IsNaN(v) && math.IsNaN(w)) {
			return false
		}
	}
	return true
}

// MemoryBytes returns the tile's resident CSR storage, excluding the
// struct header and any staging scratch.
func (t *Tile) MemoryBytes() int64 {
	t.seal()
	return int64(len(t.rowPtr))*4 + int64(len(t.cols))*4 + int64(len(t.vals))*8
}

// TileAt extracts the p×p tile of m anchored at (row, col), zero-padded
// past the matrix boundary. The tile is built sealed, directly from the
// CSR row spans — O(nnz(tile) + p·log nnz(row)).
func TileAt(m *CSR, row, col, p int) *Tile {
	rowPtr := make([]int32, p+1)
	nzRows := 0
	// Per-row span bounds within [col, col+p), found by binary search in
	// the sorted column indices. starts holds indices into the parent
	// matrix's CSR arrays, which can exceed int32 on huge matrices.
	starts := make([]int, p)
	for i := 0; i < p; i++ {
		gi := row + i
		rowPtr[i+1] = rowPtr[i]
		if gi < 0 || gi >= m.Rows {
			continue
		}
		lo, hi := m.RowPtr[gi], m.RowPtr[gi+1]
		s := lowerBound(m.Col, lo, hi, col)
		e := lowerBound(m.Col, s, hi, col+p)
		starts[i] = s
		rowPtr[i+1] += int32(e - s)
		if e > s {
			nzRows++
		}
	}
	nnz := int(rowPtr[p])
	cols := make([]int32, nnz)
	vals := make([]float64, nnz)
	for i := 0; i < p; i++ {
		n := int(rowPtr[i+1] - rowPtr[i])
		if n == 0 {
			continue
		}
		dst := int(rowPtr[i])
		src := starts[i]
		for k := 0; k < n; k++ {
			cols[dst+k] = int32(m.Col[src+k] - col)
			vals[dst+k] = m.Val[src+k]
		}
	}
	t := newTileCSR(p, row, col, rowPtr, cols, vals, nzRows)
	return &t
}

// lowerBound returns the first index in Col[lo:hi) whose value is >= x.
func lowerBound(col []int, lo, hi, x int) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if col[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Partitioning groups a matrix's non-zero tiles together with the grid
// geometry needed to reassemble or stream them. All tiles slice three
// shared backing buffers (row pointers, columns, values), so the whole
// partitioning's resident cost is O(nnz + tiles·p).
type Partitioning struct {
	P          int // partition edge length
	GridRows   int // ceil(Rows/P)
	GridCols   int // ceil(Cols/P)
	Tiles      []*Tile
	TotalTiles int // GridRows*GridCols, including all-zero tiles
}

// MemoryBytes returns the resident size of the partitioning's tile
// storage (backing buffers plus tile headers).
func (pt *Partitioning) MemoryBytes() int64 {
	var b int64
	for _, t := range pt.Tiles {
		b += t.MemoryBytes() + tileHeaderBytes
	}
	return b
}

// tileHeaderBytes is one Tile struct plus its *Tile slot in the Tiles
// slice; a test pins it to unsafe.Sizeof(Tile{}) + 8.
const tileHeaderBytes = 14*8 + 8

// Partition extracts all non-zero p×p tiles of m in block-row-major order.
// Boundary tiles are zero-padded. The tiles reassemble exactly to m (see
// Assemble), a property the test suite checks by round-trip.
//
// The extraction is sparse-native: a counting pass sizes every tile's row
// spans, then a scatter pass copies each CSR entry straight into shared
// cols/vals backing buffers — no per-tile dense p² staging, no map, no
// sort. Cost is O(nnz + tiles·p); resident memory is O(nnz + tiles·p).
func Partition(m *CSR, p int) *Partitioning {
	if p <= 0 {
		panic(fmt.Sprintf("matrix: Partition with p=%d", p))
	}
	gr := (m.Rows + p - 1) / p
	gc := (m.Cols + p - 1) / p
	pt := &Partitioning{P: p, GridRows: gr, GridCols: gc, TotalTiles: gr * gc}
	nnz := m.NNZ()
	if nnz == 0 {
		return pt
	}

	// Pass 1: count the non-zero tiles so every backing buffer can be
	// sized exactly. seen is epoch-marked per block row.
	numTiles := 0
	seen := make([]int32, gc)
	for br := 0; br < gr; br++ {
		rowEnd := min((br+1)*p, m.Rows)
		for i := br * p; i < rowEnd; i++ {
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				if bc := m.Col[k] / p; seen[bc] != int32(br+1) {
					seen[bc] = int32(br + 1)
					numTiles++
				}
			}
		}
	}

	// Shared backing buffers: every tile's spans slice into these.
	rowPtrBuf := make([]int32, numTiles*(p+1))
	colsBuf := make([]int32, nnz)
	valsBuf := make([]float64, nnz)
	tiles := make([]Tile, numTiles)
	pt.Tiles = make([]*Tile, 0, numTiles)

	// Per-block-row scratch, reused: per-(block column, local row) entry
	// counts that become scatter cursors after the prefix sum, per-tile
	// totals, and the block column → tile index map.
	rowCount := make([]int32, gc*p)
	tileNNZ := make([]int32, gc)
	tileIdx := make([]int32, gc)

	base := 0 // consumed cols/vals entries
	ti := 0   // next tile index
	for br := 0; br < gr; br++ {
		rowEnd := min((br+1)*p, m.Rows)
		minBC, maxBC := gc, -1
		for i := br * p; i < rowEnd; i++ {
			li := i - br*p
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				bc := m.Col[k] / p
				rowCount[bc*p+li]++
				tileNNZ[bc]++
				if bc < minBC {
					minBC = bc
				}
				if bc > maxBC {
					maxBC = bc
				}
			}
		}
		if maxBC < 0 {
			continue
		}
		// Materialize this block row's tiles in ascending block-column
		// order, prefix-summing the row counts into row pointers and
		// leaving scatter cursors behind in rowCount.
		for bc := minBC; bc <= maxBC; bc++ {
			n := int(tileNNZ[bc])
			if n == 0 {
				continue
			}
			rp := rowPtrBuf[ti*(p+1) : (ti+1)*(p+1)]
			running := int32(0)
			nzRows := 0
			for li := 0; li < p; li++ {
				c := rowCount[bc*p+li]
				if c > 0 {
					nzRows++
				}
				rowCount[bc*p+li] = running
				running += c
				rp[li+1] = running
			}
			tiles[ti] = newTileCSR(p, br*p, bc*p, rp,
				colsBuf[base:base+n:base+n], valsBuf[base:base+n:base+n], nzRows)
			pt.Tiles = append(pt.Tiles, &tiles[ti])
			tileIdx[bc] = int32(ti)
			ti++
			base += n
		}
		// Scatter pass: each entry lands at its row cursor, preserving
		// the ascending column order of the CSR scan.
		for i := br * p; i < rowEnd; i++ {
			li := i - br*p
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				bc := m.Col[k] / p
				t := &tiles[tileIdx[bc]]
				cur := rowCount[bc*p+li]
				t.cols[cur] = int32(m.Col[k] - bc*p)
				t.vals[cur] = m.Val[k]
				rowCount[bc*p+li] = cur + 1
			}
		}
		// Reset the touched scratch for the next block row.
		for bc := minBC; bc <= maxBC; bc++ {
			if tileNNZ[bc] == 0 {
				continue
			}
			tileNNZ[bc] = 0
			clear(rowCount[bc*p : (bc+1)*p])
		}
	}
	return pt
}
