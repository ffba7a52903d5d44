package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	got, err := percentile(xs, 90)
	if err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	// 101 samples: rank ceil(90.9) = 91 leaves exactly 10 beyond it.
	xs = append(xs, 101)
	if got, err := percentile(xs, 90); err != nil || got != 91 {
		t.Fatalf("p90 of 1..101 = %v, %v; want 91", got, err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	if _, err := percentile(xs, 90); err == nil {
		t.Fatal("p90 of 99 samples leaves 9 beyond it and must be refused")
	}
	if _, err := percentile(make([]float64, 999), 99); err == nil {
		t.Fatal("p99 of 999 samples must be refused")
	}
	if _, err := percentile(make([]float64, 1000), 99); err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
}

func TestMedian(t *testing.T) {
	if m, _ := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median of 3,1,2 = %v", m)
	}
	if m, _ := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median of 4,1,3,2 = %v", m)
	}
	if _, err := median(nil); err == nil {
		t.Fatal("median of no samples must fail")
	}
}

func TestGeomean(t *testing.T) {
	g, err := geomean([]float64{1, 4, 16})
	if err != nil || math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean of 1,4,16 = %v, %v; want 4", g, err)
	}
	// Each value weighs the same: scaling one by 8 scales the mean by 2.
	g2, _ := geomean([]float64{8, 4, 16})
	if math.Abs(g2/g-2) > 1e-12 {
		t.Fatalf("geomean ratio %v, want 2", g2/g)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {1, -2}} {
		if _, err := geomean(bad); err == nil {
			t.Fatalf("geomean(%v) must fail", bad)
		}
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	d := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Op: 1, Name: "root", Start: d(0), End: d(100)},
		// Two overlapping children cover [10, 50] together: 40 ms, not 50.
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: d(10), End: d(40)},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: d(20), End: d(50)},
		// A disjoint child, sticking out past its parent: only [90, 100]
		// counts against the root.
		{ID: 4, Parent: 1, Op: 1, Name: "c", Start: d(90), End: d(120)},
		// A grandchild covers part of a and nothing of the root directly.
		{ID: 5, Parent: 2, Op: 1, Name: "a1", Start: d(15), End: d(25)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: d(50), 2: d(20), 3: d(30), 4: d(30), 5: d(10)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", 0, 1); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	tr.end(0)
}
