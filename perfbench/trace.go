package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary, recorded by the benchmark
// around a call into the program. Spans of one operation share Op; a
// root span has Parent 0. Times are offsets from the tracer's creation.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer holds spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced measurements run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as JSON in path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, by span ID, each span's duration minus the part of
// its interval that its children cover. Children may nest or overlap
// each other (concurrent sweep groups); overlapping cover counts once,
// and a child's cover is clipped to its parent's interval.
func selfTimes(spans []span) map[int]time.Duration {
	type iv struct{ a, b time.Duration }
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]iv)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			a, b := max(s.Start, p.Start), min(s.End, p.End)
			if b > a {
				kids[s.Parent] = append(kids[s.Parent], iv{a, b})
			}
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered time.Duration
		var curA, curB time.Duration
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a > curB:
				covered += curB - curA
				curA, curB = v.a, v.b
			case v.b > curB:
				curB = v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}
