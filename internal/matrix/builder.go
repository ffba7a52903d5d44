package matrix

import (
	"fmt"
	"sort"
)

// Entry is a single (row, column, value) triplet.
type Entry struct {
	Row, Col int
	Val      float64
}

// Builder accumulates triplets in arbitrary order and converts them to a
// canonical CSR matrix. Duplicate coordinates are summed (the SuiteSparse
// assembly convention for finite-element matrices); entries that sum to
// zero — and entries added as exact zeros — are dropped.
type Builder struct {
	rows, cols int
	entries    []Entry
}

// NewBuilder returns a Builder for a rows×cols matrix.
func NewBuilder(rows, cols int) *Builder {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: NewBuilder(%d, %d) with negative dimension", rows, cols))
	}
	return &Builder{rows: rows, cols: cols}
}

// Add records a triplet. Out-of-range coordinates panic immediately so the
// offending generator is identified at the call site.
func (b *Builder) Add(row, col int, val float64) {
	if row < 0 || row >= b.rows || col < 0 || col >= b.cols {
		panic(fmt.Sprintf("matrix: Add(%d, %d) out of range for %dx%d", row, col, b.rows, b.cols))
	}
	if val == 0 {
		return
	}
	b.entries = append(b.entries, Entry{row, col, val})
}

// AddSym records the triplet and its transpose, halving the work of
// building symmetric matrices (undirected graphs, FEM stencils). Diagonal
// entries are added once.
func (b *Builder) AddSym(row, col int, val float64) {
	b.Add(row, col, val)
	if row != col {
		b.Add(col, row, val)
	}
}

// Build sorts, deduplicates, and emits the canonical CSR matrix. The
// Builder may be reused afterwards; its triplet list is consumed.
func (b *Builder) Build() *CSR {
	ent := b.entries
	b.entries = nil
	sort.Slice(ent, func(i, j int) bool {
		if ent[i].Row != ent[j].Row {
			return ent[i].Row < ent[j].Row
		}
		return ent[i].Col < ent[j].Col
	})

	// Combine duplicates in place.
	w := 0
	for r := 0; r < len(ent); {
		sum := ent[r].Val
		q := r + 1
		for q < len(ent) && ent[q].Row == ent[r].Row && ent[q].Col == ent[r].Col {
			sum += ent[q].Val
			q++
		}
		if sum != 0 {
			ent[w] = Entry{ent[r].Row, ent[r].Col, sum}
			w++
		}
		r = q
	}
	ent = ent[:w]

	m := &CSR{
		Rows:   b.rows,
		Cols:   b.cols,
		RowPtr: make([]int, b.rows+1),
		Col:    make([]int, len(ent)),
		Val:    make([]float64, len(ent)),
	}
	for i, e := range ent {
		m.RowPtr[e.Row+1]++
		m.Col[i] = e.Col
		m.Val[i] = e.Val
	}
	for i := 0; i < b.rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// FromDense builds a CSR matrix from a row-major dense slice, skipping
// zeros. It is primarily a test helper.
func FromDense(rows, cols int, dense []float64) *CSR {
	if len(dense) != rows*cols {
		panic(fmt.Sprintf("matrix: FromDense got %d values for %dx%d", len(dense), rows, cols))
	}
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			b.Add(i, j, dense[i*cols+j])
		}
	}
	return b.Build()
}
