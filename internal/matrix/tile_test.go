package matrix

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"copernicus/internal/xrand"
)

func TestTileSetAtNNZ(t *testing.T) {
	tl := NewTile(4, 0, 0)
	tl.Set(1, 2, 5)
	tl.Set(3, 3, -1)
	if tl.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2", tl.NNZ())
	}
	tl.Set(1, 2, 0) // clear
	if tl.NNZ() != 1 || tl.At(1, 2) != 0 {
		t.Fatalf("clearing entry failed: nnz=%d", tl.NNZ())
	}
	tl.Set(3, 3, 2) // overwrite non-zero with non-zero
	if tl.NNZ() != 1 || tl.At(3, 3) != 2 {
		t.Fatalf("overwrite mis-counted: nnz=%d", tl.NNZ())
	}
}

func TestTileRowStats(t *testing.T) {
	tl := NewTile(4, 0, 0)
	tl.Set(0, 0, 1)
	tl.Set(0, 3, 1)
	tl.Set(2, 1, 1)
	if tl.RowNNZ(0) != 2 || tl.RowNNZ(1) != 0 || tl.RowNNZ(2) != 1 {
		t.Fatal("RowNNZ wrong")
	}
	if tl.NonZeroRows() != 2 {
		t.Fatalf("NonZeroRows = %d, want 2", tl.NonZeroRows())
	}
	if tl.Density() != 3.0/16.0 {
		t.Fatalf("Density = %v", tl.Density())
	}
}

func TestTileClone(t *testing.T) {
	tl := NewTile(2, 4, 6)
	tl.Set(0, 1, 9)
	c := tl.Clone()
	if !tl.EqualValues(c) {
		t.Fatal("clone differs")
	}
	c.Set(0, 1, 3)
	if tl.At(0, 1) != 9 {
		t.Fatal("clone shares storage with original")
	}
}

func TestPartitionRoundTrip(t *testing.T) {
	check := func(seed uint64) bool {
		r := xrand.New(seed)
		rows := 1 + r.Intn(40)
		cols := 1 + r.Intn(40)
		p := []int{3, 4, 8, 16}[r.Intn(4)]
		m := randomCSR(seed, rows, cols, 0.15)
		pt := Partition(m, p)
		back := assemble(pt, rows, cols)
		return Equal(m, back, 0)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionGridGeometry(t *testing.T) {
	m := randomCSR(3, 33, 17, 0.2)
	pt := Partition(m, 8)
	if pt.GridRows != 5 || pt.GridCols != 3 {
		t.Fatalf("grid = %dx%d, want 5x3", pt.GridRows, pt.GridCols)
	}
	if pt.TotalTiles != 15 {
		t.Fatalf("total tiles = %d, want 15", pt.TotalTiles)
	}
}

func TestPartitionSkipsZeroTiles(t *testing.T) {
	// One entry in the top-left and one in the bottom-right corner of a
	// 32x32 matrix: with p=8, exactly 2 of 16 tiles are non-zero.
	b := NewBuilder(32, 32)
	b.Add(0, 0, 1)
	b.Add(31, 31, 1)
	pt := Partition(b.Build(), 8)
	if len(pt.Tiles) != 2 {
		t.Fatalf("non-zero tiles = %d, want 2", len(pt.Tiles))
	}
	if pt.TotalTiles != 16 {
		t.Fatalf("total tiles = %d, want 16", pt.TotalTiles)
	}
}

func TestPartitionTileOrder(t *testing.T) {
	// Tiles must come out in block-row-major order for deterministic
	// streaming.
	b := NewBuilder(16, 16)
	b.Add(0, 12, 1) // tile (0,1) at p=8
	b.Add(0, 0, 1)  // tile (0,0)
	b.Add(12, 4, 1) // tile (1,0)
	pt := Partition(b.Build(), 8)
	if len(pt.Tiles) != 3 {
		t.Fatalf("tiles = %d, want 3", len(pt.Tiles))
	}
	order := [][2]int{{0, 0}, {0, 8}, {8, 0}}
	for i, want := range order {
		if pt.Tiles[i].Row != want[0] || pt.Tiles[i].Col != want[1] {
			t.Fatalf("tile %d at (%d,%d), want (%d,%d)",
				i, pt.Tiles[i].Row, pt.Tiles[i].Col, want[0], want[1])
		}
	}
}

func TestPartitionNNZConserved(t *testing.T) {
	check := func(seed uint64) bool {
		m := randomCSR(seed, 30, 30, 0.1)
		pt := Partition(m, 8)
		total := 0
		for _, tl := range pt.Tiles {
			total += tl.NNZ()
		}
		return total == m.NNZ()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsDenseTile(t *testing.T) {
	// A fully dense matrix: every statistic must be exactly 1.
	d := make([]float64, 16*16)
	for i := range d {
		d[i] = 1
	}
	s := StatsFor(FromDense(16, 16, d), 8)
	if s.PartitionDensity != 1 || s.RowDensity != 1 || s.NonZeroRowFrac != 1 {
		t.Fatalf("dense stats = %+v, want all 1", s)
	}
	if s.NonZeroTiles != 4 || s.TotalTiles != 4 {
		t.Fatalf("dense tile counts = %+v", s)
	}
}

func TestStatsDiagonal(t *testing.T) {
	// Diagonal 16x16 with p=8: the two diagonal tiles are non-zero, each
	// with density 8/64 and every row non-zero with exactly 1 of 8 values.
	b := NewBuilder(16, 16)
	for i := 0; i < 16; i++ {
		b.Add(i, i, 1)
	}
	s := StatsFor(b.Build(), 8)
	if s.NonZeroTiles != 2 {
		t.Fatalf("diagonal non-zero tiles = %d, want 2", s.NonZeroTiles)
	}
	if s.PartitionDensity != 0.125 {
		t.Fatalf("partition density = %v, want 0.125", s.PartitionDensity)
	}
	if s.RowDensity != 0.125 {
		t.Fatalf("row density = %v, want 0.125", s.RowDensity)
	}
	if s.NonZeroRowFrac != 1 {
		t.Fatalf("non-zero row frac = %v, want 1", s.NonZeroRowFrac)
	}
}

func TestStatsBoundsProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := xrand.New(seed)
		m := randomCSR(seed, 20+r.Intn(30), 20+r.Intn(30), 0.05+0.4*r.Float64())
		s := StatsFor(m, 8)
		inUnit := func(v float64) bool { return v >= 0 && v <= 1 }
		// Row density can never be below partition density: restricting to
		// non-zero rows only concentrates the same non-zeros.
		return inUnit(s.PartitionDensity) && inUnit(s.RowDensity) &&
			inUnit(s.NonZeroRowFrac) && s.RowDensity >= s.PartitionDensity-1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsEmptyMatrix(t *testing.T) {
	s := StatsFor(NewBuilder(10, 10).Build(), 8)
	if s.NonZeroTiles != 0 || s.PartitionDensity != 0 {
		t.Fatalf("empty matrix stats = %+v", s)
	}
}

// TestTileHeaderBytes keeps the hand-written header size honest, so
// Partitioning.MemoryBytes (and the plan residency built on it) tracks the
// real struct.
func TestTileHeaderBytes(t *testing.T) {
	if got := int64(unsafe.Sizeof(Tile{})) + 8; got != tileHeaderBytes {
		t.Fatalf("unsafe.Sizeof(Tile{})+8 = %d, tileHeaderBytes = %d", got, tileHeaderBytes)
	}
}

// sameFloat is exact equality that also matches NaN with NaN.
func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// checkTileModel compares every sparse accessor of tl with a dense
// row-major model under dense-buffer semantics: 0 and -0 are no entry,
// NaN is an entry.
func checkTileModel(t *testing.T, tl *Tile, model []float64) {
	t.Helper()
	p := tl.P
	nnz, nzRows := 0, 0
	for i := 0; i < p; i++ {
		cols, vals := tl.RowView(i)
		k := 0
		for j := 0; j < p; j++ {
			v := model[i*p+j]
			if !sameFloat(tl.At(i, j), v) && !(v == 0 && tl.At(i, j) == 0) {
				t.Fatalf("At(%d,%d) = %v, model %v", i, j, tl.At(i, j), v)
			}
			if v == 0 {
				continue
			}
			if k >= len(cols) || int(cols[k]) != j || !sameFloat(vals[k], v) {
				t.Fatalf("row %d: entry %d is not (%d, %v): cols %v vals %v", i, k, j, v, cols, vals)
			}
			k++
		}
		if k != len(cols) {
			t.Fatalf("row %d holds %d entries, model %d", i, len(cols), k)
		}
		if tl.RowNNZ(i) != k {
			t.Fatalf("RowNNZ(%d) = %d, want %d", i, tl.RowNNZ(i), k)
		}
		nnz += k
		if k > 0 {
			nzRows++
		}
	}
	if tl.NNZ() != nnz || tl.NonZeroRows() != nzRows {
		t.Fatalf("NNZ/NonZeroRows = %d/%d, want %d/%d", tl.NNZ(), tl.NonZeroRows(), nnz, nzRows)
	}
	for x, v := range tl.Dense() {
		if !sameFloat(v, model[x]) && !(v == 0 && model[x] == 0) {
			t.Fatalf("Dense()[%d] = %v, model %v", x, v, model[x])
		}
		if v == 0 && math.Signbit(v) {
			t.Fatalf("Dense()[%d] is -0; a cleared entry must read as +0", x)
		}
	}
}

// TestTileStagingMatchesDenseModel drives random Set sequences through
// sparse staging and a dense reference model side by side: overwrites,
// zero and -0 clears, NaN, and Sets after a seal (reads interleave with
// the writes). A fresh tile and one tile recycled through Reset across
// sizes must both match the model after every read.
func TestTileStagingMatchesDenseModel(t *testing.T) {
	reused := NewTile(1, 0, 0)
	for seed := uint64(1); seed <= 400; seed++ {
		r := xrand.New(seed)
		p := 1 + r.Intn(20)
		model := make([]float64, p*p)
		fresh := NewTile(p, 0, 0)
		reused.Reset(p)
		var touched [][2]int
		for op := 0; op < 3*p+r.Intn(4*p); op++ {
			i, j := r.Intn(p), r.Intn(p)
			if len(touched) > 0 && r.Intn(3) == 0 { // overwrite a written coordinate
				c := touched[r.Intn(len(touched))]
				i, j = c[0], c[1]
			}
			touched = append(touched, [2]int{i, j})
			v := r.ValueIn(-4, 4)
			switch r.Intn(8) {
			case 0:
				v = 0
			case 1:
				v = math.Copysign(0, -1)
			case 2:
				v = math.NaN()
			}
			model[i*p+j] = v
			fresh.Set(i, j, v)
			reused.Set(i, j, v)
			if r.Intn(6) == 0 { // seal mid-sequence; later Sets re-open it
				checkTileModel(t, fresh, model)
				checkTileModel(t, reused, model)
			}
		}
		checkTileModel(t, fresh, model)
		checkTileModel(t, reused, model)
	}

	// Strictly ascending Set sequences take the one-pass seal; an
	// out-of-order Set or a repeated coordinate must drop back to the
	// sorting seal, and a Set after a seal re-stages the sealed entries in
	// order first.
	for seed := uint64(1); seed <= 400; seed++ {
		r := xrand.New(seed)
		p := 1 + r.Intn(20)
		model := make([]float64, p*p)
		fresh := NewTile(p, 0, 0)
		reused.Reset(p)
		value := func() float64 {
			switch r.Intn(8) {
			case 0:
				return 0
			case 1:
				return math.Copysign(0, -1)
			case 2:
				return math.NaN()
			}
			return r.ValueIn(-4, 4)
		}
		set := func(x int, v float64) {
			model[x] = v
			fresh.Set(x/p, x%p, v)
			reused.Set(x/p, x%p, v)
		}
		// An ordered run: strictly ascending row-major positions.
		for x := r.Intn(3); x < p*p; x += 1 + r.Intn(2*p) {
			set(x, value())
		}
		if len(fresh.st.ents) > 0 && (!fresh.st.sorted || !reused.st.sorted) {
			t.Fatalf("seed %d: ascending Sets left the staging unsorted", seed)
		}
		switch r.Intn(3) {
		case 0: // one out-of-order Set (possibly onto a written coordinate)
			if len(fresh.st.ents) > 0 {
				last := fresh.st.ents[len(fresh.st.ents)-1]
				set(r.Intn(int(last.i)*p+int(last.j)+1), value())
				if fresh.st.sorted || reused.st.sorted {
					t.Fatalf("seed %d: out-of-order Set kept the staging sorted", seed)
				}
			}
		case 1: // seal, then Sets after the seal re-stage in order
			checkTileModel(t, fresh, model)
			checkTileModel(t, reused, model)
			for x := r.Intn(p * p); x < p*p; x += 1 + r.Intn(3*p) {
				set(x, value())
			}
		}
		checkTileModel(t, fresh, model)
		checkTileModel(t, reused, model)
	}
}

// FuzzTileStaging drives a Set sequence decoded from the fuzz bytes
// through a tile and a dense reference model side by side. Each op is a
// byte pair: the first picks the move (step forward, which keeps the
// staging ascending; jump anywhere; or read, which seals) and the value
// (0, -0, NaN or a small number), the second the step or target.
func FuzzTileStaging(f *testing.F) {
	f.Add(uint8(7), []byte{0, 0, 4, 1, 8, 2, 2, 0, 12, 3})
	f.Add(uint8(3), []byte{0, 0, 1, 0, 5, 3, 6, 7, 2, 0})
	f.Add(uint8(15), []byte{0, 5, 4, 9, 2, 0, 16, 1, 2, 0, 1, 0})
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		p := 1 + int(size%20)
		tl := NewTile(p, 0, 0)
		model := make([]float64, p*p)
		pos := -1
		for k := 0; k+1 < len(ops); k += 2 {
			a, b := ops[k], ops[k+1]
			switch a % 4 {
			case 0, 3:
				pos += 1 + int(b%4)
			case 1:
				pos = int(b)
			case 2:
				checkTileModel(t, tl, model)
				continue
			}
			pos %= p * p
			var v float64
			switch c := int(a >> 2); c {
			case 0:
				v = 0
			case 1:
				v = math.Copysign(0, -1)
			case 2:
				v = math.NaN()
			default:
				v = float64(c-32) / 4
			}
			model[pos] = v
			tl.Set(pos/p, pos%p, v)
		}
		checkTileModel(t, tl, model)
	})
}

// TestSameEntries checks the flat entry comparison: NaN matches NaN but
// not a number, empty tiles match, origins are ignored, and any entry or
// size difference is caught.
func TestSameEntries(t *testing.T) {
	build := func(p, row, col int, ents ...float64) *Tile {
		tl := NewTile(p, row, col)
		for k := 0; k+2 < len(ents); k += 3 {
			tl.Set(int(ents[k]), int(ents[k+1]), ents[k+2])
		}
		return tl
	}
	nan := math.NaN()
	for _, c := range []struct {
		name string
		a, b *Tile
		want bool
	}{
		{"empty", build(4, 0, 0), build(4, 8, 12), true},
		{"empty vs sizes", build(4, 0, 0), build(5, 0, 0), false},
		{"origin ignored", build(4, 0, 0, 1, 2, 3), build(4, 4, 4, 1, 2, 3), true},
		{"nan vs nan", build(4, 0, 0, 1, 2, nan), build(4, 0, 0, 1, 2, nan), true},
		{"nan vs number", build(4, 0, 0, 1, 2, nan), build(4, 0, 0, 1, 2, 3), false},
		{"number vs nan", build(4, 0, 0, 1, 2, 3), build(4, 0, 0, 1, 2, nan), false},
		{"value", build(4, 0, 0, 1, 2, 3), build(4, 0, 0, 1, 2, 4), false},
		{"column", build(4, 0, 0, 1, 2, 3), build(4, 0, 0, 1, 3, 3), false},
		{"row", build(4, 0, 0, 1, 2, 3), build(4, 0, 0, 2, 2, 3), false},
		{"extra entry", build(4, 0, 0, 1, 2, 3), build(4, 0, 0, 1, 2, 3, 3, 0, 1), false},
		{"cleared", build(4, 0, 0, 1, 2, 3, 1, 2, 0), build(4, 0, 0), true},
	} {
		if got := c.a.SameEntries(c.b); got != c.want {
			t.Errorf("%s: a.SameEntries(b) = %v, want %v", c.name, got, c.want)
		}
		if got := c.b.SameEntries(c.a); got != c.want {
			t.Errorf("%s: b.SameEntries(a) = %v, want %v", c.name, got, c.want)
		}
	}
	// A partition tile and its decoded-shape copy agree.
	pt := Partition(randomCSR(5, 30, 30, 0.2), 8)
	for _, tl := range pt.Tiles {
		cp := NewTile(tl.P, 0, 0)
		for i := 0; i < tl.P; i++ {
			cols, vals := tl.RowView(i)
			for k, j := range cols {
				cp.Set(i, int(j), vals[k])
			}
		}
		if !tl.SameEntries(cp) {
			t.Fatalf("tile (%d,%d) differs from its copy", tl.Row, tl.Col)
		}
	}
}

// TestSetOnPartitionTileLeavesSharedSpans mutates one tile of a
// partitioning (overwrite, clear, insert) and checks that the shared
// backing buffers — seen through every other tile and through the
// mutated tile's own pre-Set views — are unchanged.
func TestSetOnPartitionTileLeavesSharedSpans(t *testing.T) {
	m := randomCSR(17, 40, 40, 0.25)
	pt := Partition(m, 8)
	type rowCopy struct {
		cols []int32
		vals []float64
	}
	snap := make([][]rowCopy, len(pt.Tiles))
	for ti, tl := range pt.Tiles {
		for i := 0; i < tl.P; i++ {
			c, v := tl.RowView(i)
			snap[ti] = append(snap[ti], rowCopy{append([]int32(nil), c...), append([]float64(nil), v...)})
		}
	}
	target := len(pt.Tiles) / 2
	tl := pt.Tiles[target]
	aliased := make([]rowCopy, tl.P)
	for i := range aliased {
		aliased[i].cols, aliased[i].vals = tl.RowView(i)
	}
	sharedRowPtr := tl.rowPtr
	rowPtrSnap := append([]int32(nil), sharedRowPtr...)
	model := tl.Dense()
	p := tl.P
	var first, second [2]int
	found := 0
	for x, v := range model {
		if v != 0 && found < 2 {
			if found == 0 {
				first = [2]int{x / p, x % p}
			} else {
				second = [2]int{x / p, x % p}
			}
			found++
		}
	}
	if found < 2 {
		t.Fatalf("target tile has %d non-zeros; need 2", found)
	}
	// The insert goes in a later row than the clear, so the row pointers
	// change too.
	empty := -1
	for x := len(model) - 1; x >= 0 && empty < 0; x-- {
		if model[x] == 0 {
			empty = x
		}
	}
	if empty/p <= second[0] {
		t.Fatalf("no empty cell after row %d", second[0])
	}
	tl.Set(first[0], first[1], 42)
	tl.Set(second[0], second[1], 0)
	tl.Set(empty/p, empty%p, -7)
	model[first[0]*p+first[1]] = 42
	model[second[0]*p+second[1]] = 0
	model[empty] = -7
	checkTileModel(t, tl, model)

	for i, v := range sharedRowPtr {
		if v != rowPtrSnap[i] {
			t.Fatalf("shared row-pointer buffer changed at %d: %d != %d", i, v, rowPtrSnap[i])
		}
	}
	for ti, other := range pt.Tiles {
		for i := 0; i < other.P; i++ {
			want := snap[ti][i]
			var gc []int32
			var gv []float64
			if ti == target {
				gc, gv = aliased[i].cols, aliased[i].vals
			} else {
				gc, gv = other.RowView(i)
			}
			if len(gc) != len(want.cols) {
				t.Fatalf("tile %d row %d: %d entries, snapshot %d", ti, i, len(gc), len(want.cols))
			}
			for k := range gc {
				if gc[k] != want.cols[k] || gv[k] != want.vals[k] {
					t.Fatalf("tile %d row %d: shared span changed at %d", ti, i, k)
				}
			}
		}
	}
}

// TestResetRejectsSharedTiles: Reset reuses buffers in place, so it must
// refuse tiles whose spans belong to a partitioning.
func TestResetRejectsSharedTiles(t *testing.T) {
	m := randomCSR(5, 16, 16, 0.3)
	for name, tl := range map[string]*Tile{
		"Partition": Partition(m, 8).Tiles[0],
		"TileAt":    TileAt(m, 0, 0, 8),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reset on a %s tile did not panic", name)
				}
			}()
			tl.Reset(8)
		}()
	}
}

// assemble rebuilds the full matrix from a partitioning, the reference
// for Partition being lossless.
func assemble(pt *Partitioning, rows, cols int) *CSR {
	b := NewBuilder(rows, cols)
	for _, t := range pt.Tiles {
		for i := 0; i < t.P; i++ {
			gi := t.Row + i
			if gi >= rows {
				break
			}
			tc, tv := t.RowView(i)
			for k := range tc {
				if gj := t.Col + int(tc[k]); gj < cols {
					b.Add(gi, gj, tv[k])
				}
			}
		}
	}
	return b.Build()
}

// Dense materializes the tile as a fresh P*P row-major buffer, zeros
// included — the escape hatch for consumers that genuinely need the p²
// form (the dense encoding, golden cross-checks, tests). The
// partition→encode→decode path never calls it.
func (t *Tile) Dense() []float64 {
	t.seal()
	dst := make([]float64, t.P*t.P)
	for i := 0; i < t.P; i++ {
		base := i * t.P
		for k := t.rowPtr[i]; k < t.rowPtr[i+1]; k++ {
			dst[base+int(t.cols[k])] = t.vals[k]
		}
	}
	return dst
}
