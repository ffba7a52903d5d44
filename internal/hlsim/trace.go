package hlsim

import (
	"fmt"
	"io"
	"strings"
)

// TileTrace is the per-partition event record of one streaming run: what
// the tile contained, what each pipeline stage cost, and which stage
// bounded it. Traces make the §4.2 "bubbles" visible tile by tile
// instead of only in aggregate.
type TileTrace struct {
	Row, Col int // tile origin in the matrix
	NNZ      int

	MemCycles     int
	DecompCycles  int
	ComputeCycles int
	Pipelined     int // max(mem, compute)
	Bubble        int // |mem - compute|: the faster stage's wait
	MemoryBound   bool
}

// TraceSummary aggregates a trace.
type TraceSummary struct {
	Tiles            int
	TotalCycles      uint64
	BubbleCycles     uint64
	MemoryBoundTiles int
}

// Summarize folds a trace into totals.
func Summarize(traces []TileTrace) TraceSummary {
	var s TraceSummary
	s.Tiles = len(traces)
	for _, t := range traces {
		s.TotalCycles += uint64(t.Pipelined)
		s.BubbleCycles += uint64(t.Bubble)
		if t.MemoryBound {
			s.MemoryBoundTiles++
		}
	}
	return s
}

// RenderTimeline writes an ASCII per-tile timeline: one line per tile
// with proportional memory (=) and compute (#) bars, capped at maxTiles
// lines. It is a debugging view, not a paper artifact.
func RenderTimeline(w io.Writer, traces []TileTrace, maxTiles int) error {
	if maxTiles <= 0 || maxTiles > len(traces) {
		maxTiles = len(traces)
	}
	// Scale bars to the largest stage cost in view.
	const barWidth = 40
	peak := 1
	for _, t := range traces[:maxTiles] {
		if t.Pipelined > peak {
			peak = t.Pipelined
		}
	}
	if _, err := fmt.Fprintf(w, "tile(origin)      mem≡  compute#  (bar = %d cycles)\n", peak); err != nil {
		return err
	}
	for _, t := range traces[:maxTiles] {
		mem := t.MemCycles * barWidth / peak
		comp := t.ComputeCycles * barWidth / peak
		bound := "C"
		if t.MemoryBound {
			bound = "M"
		}
		if _, err := fmt.Fprintf(w, "(%5d,%5d) %s |%-*s|\n              %s |%-*s| nnz=%d mem=%d comp=%d %s-bound\n",
			t.Row, t.Col, "mem ", barWidth, strings.Repeat("=", mem),
			"comp", barWidth, strings.Repeat("#", comp),
			t.NNZ, t.MemCycles, t.ComputeCycles, bound); err != nil {
			return err
		}
	}
	s := Summarize(traces)
	_, err := fmt.Fprintf(w, "%d tiles, %d cycles pipelined, %d bubble cycles (%.1f%%), %d/%d memory-bound\n",
		s.Tiles, s.TotalCycles, s.BubbleCycles,
		100*float64(s.BubbleCycles)/float64(max(s.TotalCycles, 1)),
		s.MemoryBoundTiles, s.Tiles)
	return err
}
