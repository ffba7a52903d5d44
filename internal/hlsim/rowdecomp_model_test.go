package hlsim

// The operational model of the hardware decompressors: a stream-walking
// RowSource per format, transliterated from the paper's listings. It is
// the proof, in rowdecomp_test.go, that the closed-form cycle equations
// of cycles.go match a row-by-row replay; nothing outside the tests runs
// it.

import (
	"fmt"

	"copernicus/internal/formats"
)

// Row is one output of a hardware decompressor: a reconstructed dense
// row of the tile (the drow buffer of Listings 1–7), its row index, and
// the cycles the decompress stage spent producing it.
type Row struct {
	Index  int
	Values []float64 // length p; reused across calls — copy to retain
	Cycles int
}

// RowSource replays a format's decompressor the way the hardware does:
// one reconstructed row per call, in the order the pipeline would emit
// them. The sum of per-row cycles over a full drain equals
// Config.decompCycles for the same encoding — the test suite proves the
// identity for every format — so the closed-form cycle model and the
// operational model cannot drift apart.
type RowSource interface {
	// Next emits the next row. ok is false when the tile is drained.
	Next() (Row, bool)
}

// NewRowSource returns the stream-walking decompressor for the encoding.
// The seven measured formats (plus dense) walk their streams directly,
// transliterated from the paper's listings; the extension formats replay
// through their decoded tile with the same cycle distribution.
func NewRowSource(cfg Config, enc formats.Encoded) (RowSource, error) {
	switch e := enc.(type) {
	case *formats.DenseEnc:
		return &denseSource{p: e.P(), vals: e.Values()}, nil
	case *formats.CSREnc:
		return &csrSource{cfg: cfg, e: e, drow: make([]float64, e.P())}, nil
	case *formats.CSCEnc:
		return &cscSource{cfg: cfg, e: e, drow: make([]float64, e.P())}, nil
	case *formats.BCSREnc:
		return newBCSRSource(cfg, e), nil
	case *formats.COOEnc:
		return &cooSource{cfg: cfg, e: e, drow: make([]float64, e.P())}, nil
	case *formats.LILEnc:
		return newLILSource(cfg, e), nil
	case *formats.ELLEnc:
		return &ellSource{cfg: cfg, e: e, drow: make([]float64, e.P())}, nil
	case *formats.DIAEnc:
		lanes := make([][]float64, e.Diagonals())
		for k := range lanes {
			lanes[k] = e.Lane(k)
		}
		return &diaSource{cfg: cfg, e: e, lanes: lanes, drow: make([]float64, e.P())}, nil
	default:
		return newGenericSource(cfg, enc)
	}
}

// denseSource streams the buffered tile row by row with no
// decompression cost.
type denseSource struct {
	p, i int
	vals []float64
}

func (s *denseSource) Next() (Row, bool) {
	if s.i >= s.p {
		return Row{}, false
	}
	r := Row{Index: s.i, Values: s.vals[s.i*s.p : (s.i+1)*s.p]}
	s.i++
	return r, true
}

// csrSource is Listing 1: for each non-zero row, one offsets read
// (numVal = offsets[i] - offsets[i-1]) then a pipelined dependent walk
// of colInx/values.
type csrSource struct {
	cfg  Config
	e    *formats.CSREnc
	row  int
	drow []float64
}

func (s *csrSource) Next() (Row, bool) {
	p := s.e.P()
	for ; s.row < p; s.row++ {
		start, end := s.e.RowRange(s.row)
		if start == end {
			continue // all-zero row: no work, no emission
		}
		clear(s.drow)
		for k := start; k < end; k++ {
			s.drow[s.e.ColIdx()[k]] = s.e.Values()[k]
		}
		cycles := s.cfg.BRAMReadLatency + s.cfg.PipeDepth + int(end-start)*s.cfg.IICSR
		r := Row{Index: s.row, Values: s.drow, Cycles: cycles}
		s.row++
		return r, true
	}
	return Row{}, false
}

// cscSource is Listing 3: for every output row the decompressor
// traverses the column lists looking for matching row indices, hopping
// the column offsets as it goes — the orientation-mismatch scan.
type cscSource struct {
	cfg  Config
	e    *formats.CSCEnc
	row  int
	drow []float64
}

func (s *cscSource) Next() (Row, bool) {
	p := s.e.P()
	if s.row >= p {
		return Row{}, false
	}
	clear(s.drow)
	for j := 0; j < p; j++ {
		start, end := s.e.ColRange(j)
		for k := start; k < end; k++ {
			if int(s.e.RowIdx()[k]) == s.row {
				s.drow[j] = s.e.Values()[k]
				break // Listing 3 breaks on first match
			}
		}
	}
	scan := int(float64(s.e.Stats().NNZ)*s.cfg.CSCScanFrac + 0.5)
	cycles := scan + p*s.cfg.BRAMReadLatency + s.cfg.PipeDepth
	r := Row{Index: s.row, Values: s.drow, Cycles: cycles}
	s.row++
	return r, true
}

// bcsrSource is Listing 2: per non-zero block row, one offsets read and
// one unrolled issue slot per block reconstructs b rows at once; the
// block row's rows then stream out.
type bcsrSource struct {
	cfg      Config
	e        *formats.BCSREnc
	blockRow int
	buffered [][]float64 // b reconstructed rows pending emission
	baseRow  int
	sub      int
	cost     int // charged on the first row of the block row
}

func newBCSRSource(cfg Config, e *formats.BCSREnc) *bcsrSource {
	b := e.Block()
	buf := make([][]float64, b)
	for i := range buf {
		buf[i] = make([]float64, e.P())
	}
	return &bcsrSource{cfg: cfg, e: e, buffered: buf}
}

func (s *bcsrSource) Next() (Row, bool) {
	b := s.e.Block()
	if s.sub < len(s.buffered) && s.sub > 0 {
		r := Row{Index: s.baseRow + s.sub, Values: s.buffered[s.sub]}
		s.sub++
		if s.sub == b {
			s.sub = 0
			s.blockRow++
		}
		return r, true
	}
	nb := s.e.P() / b
	for ; s.blockRow < nb; s.blockRow++ {
		start, end := s.e.BlockRowRange(s.blockRow)
		if start == end {
			continue
		}
		for _, row := range s.buffered {
			clear(row)
		}
		for blk := start; blk < end; blk++ {
			c0 := int(s.e.ColIdx()[blk])
			base := int(blk) * b * b
			for i := 0; i < b; i++ {
				for j := 0; j < b; j++ {
					if v := s.e.Values()[base+i*b+j]; v != 0 {
						s.buffered[i][c0+j] = v
					}
				}
			}
		}
		s.baseRow = s.blockRow * b
		s.cost = s.cfg.BRAMReadLatency + s.cfg.PipeDepth + int(end-start)
		s.sub = 1
		return Row{Index: s.baseRow, Values: s.buffered[0], Cycles: s.cost}, true
	}
	return Row{}, false
}

// cooSource is Listing 6: the tuple stream is consumed in row-major
// order; a row emits when the row index changes. The sentinel read and
// the pipeline fill are charged to the final row.
type cooSource struct {
	cfg  Config
	e    *formats.COOEnc
	k    int
	drow []float64
}

func (s *cooSource) Next() (Row, bool) {
	n := s.e.Tuples()
	if s.k >= n {
		return Row{}, false
	}
	row := int(s.e.Rows()[s.k])
	clear(s.drow)
	count := 0
	for s.k < n && int(s.e.Rows()[s.k]) == row {
		s.drow[s.e.Cols()[s.k]] = s.e.Values()[s.k]
		s.k++
		count++
	}
	cycles := count*s.cfg.IICOO + 1 // tuples plus the row-switch slot
	if s.k >= n {
		cycles += s.cfg.IICOO + s.cfg.PipeDepth // sentinel read + drain
	}
	return Row{Index: row, Values: s.drow, Cycles: cycles}, true
}

// lilSource is Listing 4: per emission, a parallel access across the
// column-partitioned lists finds the minimum pending row index and
// gathers every matching column head; the comparator tree costs
// log2(p). The terminator detection is charged to the last row.
type lilSource struct {
	cfg    Config
	e      *formats.LILEnc
	cursor []int
	drow   []float64
}

func newLILSource(cfg Config, e *formats.LILEnc) *lilSource {
	return &lilSource{cfg: cfg, e: e, cursor: make([]int, e.P()), drow: make([]float64, e.P())}
}

func (s *lilSource) Next() (Row, bool) {
	p := s.e.P()
	minRow := -1
	for j := 0; j < p; j++ {
		if s.cursor[j] < len(s.e.ColRows(j)) {
			if r := int(s.e.ColRows(j)[s.cursor[j]]); minRow == -1 || r < minRow {
				minRow = r
			}
		}
	}
	if minRow == -1 {
		return Row{}, false
	}
	clear(s.drow)
	for j := 0; j < p; j++ {
		if s.cursor[j] < len(s.e.ColRows(j)) && int(s.e.ColRows(j)[s.cursor[j]]) == minRow {
			s.drow[j] = s.e.ColVals(j)[s.cursor[j]]
			s.cursor[j]++
		}
	}
	cycles := s.cfg.BRAMReadLatency + s.cfg.CLILBase + log2ceil(p)
	// Last row: one extra access recognizes the end of the lists.
	done := true
	for j := 0; j < p; j++ {
		if s.cursor[j] < len(s.e.ColRows(j)) {
			done = false
			break
		}
	}
	if done {
		cycles += s.cfg.BRAMReadLatency
	}
	return Row{Index: minRow, Values: s.drow, Cycles: cycles}, true
}

// ellSource is Listing 5: a fully unrolled gather per row — every row of
// the tile, all-zero ones included.
type ellSource struct {
	cfg  Config
	e    *formats.ELLEnc
	row  int
	drow []float64
}

func (s *ellSource) Next() (Row, bool) {
	p := s.e.P()
	if s.row >= p {
		return Row{}, false
	}
	clear(s.drow)
	w := s.e.Width()
	for k := 0; k < w; k++ {
		if j := s.e.Idx()[s.row*w+k]; j >= 0 {
			s.drow[j] = s.e.Values()[s.row*w+k]
		}
	}
	r := Row{Index: s.row, Values: s.drow, Cycles: s.cfg.CELL}
	s.row++
	return r, true
}

// diaSource is Listing 7: per output row, a pipelined scan over every
// stored diagonal, gated by the IsRowOnDiagonal bound checks.
type diaSource struct {
	cfg   Config
	e     *formats.DIAEnc
	lanes [][]float64 // the modelled p-slot lane of each stored diagonal
	row   int
	drow  []float64
}

func (s *diaSource) Next() (Row, bool) {
	p := s.e.P()
	if s.row >= p {
		return Row{}, false
	}
	clear(s.drow)
	for k, d := range s.e.DiagNo() {
		j := s.row + int(d)
		if j < 0 || j >= p {
			continue // IsRowOnDiagonal fails
		}
		if v := s.lanes[k][s.row]; v != 0 {
			s.drow[j] = v
		}
	}
	cycles := s.e.Diagonals()*s.cfg.IIDIA + s.cfg.PipeDepth
	r := Row{Index: s.row, Values: s.drow, Cycles: cycles}
	s.row++
	return r, true
}

// genericSource replays an extension format through its decoder,
// distributing the closed-form cycle total uniformly over the emitted
// rows (remainder on the first) so the per-tile identity with
// decompCycles still holds.
type genericSource struct {
	p      int
	rows   []int
	vals   [][]float64
	i      int
	per    int
	first  int
	issued bool
}

func newGenericSource(cfg Config, enc formats.Encoded) (*genericSource, error) {
	dec, err := formats.Decode(enc)
	if err != nil {
		return nil, fmt.Errorf("hlsim: row source: %w", err)
	}
	p := enc.P()
	s := &genericSource{p: p}
	// Padded formats emit every row; others only non-zero rows.
	emitAll := enc.Stats().DotRows == p
	for i := 0; i < p; i++ {
		cols, vals := dec.RowView(i)
		if !emitAll && len(cols) == 0 {
			continue
		}
		row := make([]float64, p)
		for k := range cols {
			row[cols[k]] = vals[k]
		}
		s.rows = append(s.rows, i)
		s.vals = append(s.vals, row)
	}
	total, err := cfg.decompCycles(enc, enc.Stats())
	if err != nil {
		return nil, err
	}
	if n := len(s.rows); n > 0 {
		s.per = total / n
		s.first = total - s.per*(n-1)
	}
	return s, nil
}

func (s *genericSource) Next() (Row, bool) {
	if s.i >= len(s.rows) {
		return Row{}, false
	}
	c := s.per
	if !s.issued {
		c = s.first
		s.issued = true
	}
	r := Row{Index: s.rows[s.i], Values: s.vals[s.i], Cycles: c}
	s.i++
	return r, true
}
