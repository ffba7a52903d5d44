package core

import (
	"context"
	"runtime"
	"testing"

	"copernicus/internal/formats"
	"copernicus/internal/gen"
	"copernicus/internal/scenario"
)

// TestPlanCacheLRUKeepsHotPlan: regression for the all-or-nothing cache
// reset. A plan that stays hot must survive well past maxCachedPlans
// distinct insertions — the old blanket reset dropped every warm plan
// the moment the 129th point arrived.
func TestPlanCacheLRUKeepsHotPlan(t *testing.T) {
	e := New()
	hot := gen.Random(64, 0.05, 1)
	hotPlan, err := e.plan(hot, 8)
	if err != nil {
		t.Fatal(err)
	}

	const distinct = maxCachedPlans + 16
	for i := 0; i < distinct; i++ {
		m := gen.Random(16, 0.1, uint64(i+2))
		if _, err := e.plan(m, 8); err != nil {
			t.Fatal(err)
		}
		// Touch the hot plan each round, as a warm service request would.
		pl, err := e.plan(hot, 8)
		if err != nil {
			t.Fatal(err)
		}
		if pl != hotPlan {
			t.Fatalf("hot plan rebuilt after %d distinct insertions", i+1)
		}
	}

	s := e.PlanStats()
	if s.Misses != distinct+1 {
		t.Fatalf("misses = %d, want %d (one per distinct point)", s.Misses, distinct+1)
	}
	if s.Hits != distinct {
		t.Fatalf("hits = %d, want %d (every hot touch)", s.Hits, distinct)
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions despite exceeding capacity")
	}
	if s.Cached > maxCachedPlans {
		t.Fatalf("cache holds %d plans, cap %d", s.Cached, maxCachedPlans)
	}
}

// TestPlanCacheEvictsLeastRecentlyUsed: the entry evicted at capacity is
// the coldest one, and re-requesting it is a fresh miss.
func TestPlanCacheEvictsLeastRecentlyUsed(t *testing.T) {
	e := New()
	cold := gen.Random(16, 0.1, 1)
	coldPlan, err := e.plan(cold, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxCachedPlans; i++ { // pushes exactly one eviction
		if _, err := e.plan(gen.Random(16, 0.1, uint64(i+2)), 8); err != nil {
			t.Fatal(err)
		}
	}
	s := e.PlanStats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	pl, err := e.plan(cold, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pl == coldPlan {
		t.Fatal("coldest plan survived eviction; LRU order not respected")
	}
}

// TestDropPlansFor releases only the named matrix's plans.
func TestDropPlansFor(t *testing.T) {
	e := New()
	a := gen.Random(32, 0.1, 1)
	b := gen.Random(32, 0.1, 2)
	for _, p := range []int{8, 16} {
		if _, err := e.plan(a, p); err != nil {
			t.Fatal(err)
		}
		if _, err := e.plan(b, p); err != nil {
			t.Fatal(err)
		}
	}
	planB, err := e.plan(b, 8)
	if err != nil {
		t.Fatal(err)
	}

	e.DropPlansFor(a)
	if got := e.PlanStats().Cached; got != 2 {
		t.Fatalf("cached = %d after DropPlansFor, want 2", got)
	}
	pl, err := e.plan(b, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pl != planB {
		t.Fatal("unrelated matrix's plan was dropped")
	}
}

// TestDropPlansForReleasesOperands: the operand and reference vectors
// live on the plan-cache entries, so dropping a matrix's plans frees them
// with the plans: the resident bytes return to 0 and the live heap to its
// level before the sweep.
func TestDropPlansForReleasesOperands(t *testing.T) {
	e := New()
	e.SetWorkers(1)
	ws, kinds, ps := sweepInputs()
	// A first sweep builds every process-wide cache and pool, so the
	// measured one below adds only what its own plans hold.
	if _, err := e.SweepKernelsWith(context.Background(), nil, ws[:1], spmvOnly, kinds, ps); err != nil {
		t.Fatal(err)
	}
	e.DropPlansFor(ws[0].M)
	m := gen.Random(1<<13, 0.0005, 9)
	before := liveHeap()
	if _, err := sweepPoint(e, nil, "m", m, scenario.Default(), 16, kinds); err != nil {
		t.Fatal(err)
	}
	if _, err := sweepPoint(e, nil, "m", m, scenario.Default(), 32, kinds); err != nil {
		t.Fatal(err)
	}
	operands := int64(m.Cols+m.Rows) * 8
	held := liveHeap() - before
	if s := e.PlanStats(); s.ResidentBytes < 3*operands || held < uint64(3*operands) {
		t.Fatalf("two plans hold %d resident bytes and %d heap bytes, want at least %d (operands and two stored products)",
			s.ResidentBytes, held, 3*operands)
	}
	e.DropPlansFor(m)
	if got := e.PlanStats().ResidentBytes; got != 0 {
		t.Fatalf("resident bytes after drop = %d, want 0", got)
	}
	if after := liveHeap(); after > before+uint64(operands)/4 {
		t.Fatalf("live heap %d B after the drop, %d B before the sweep: %d B still held", after, before, after-before)
	}
	runtime.KeepAlive(m)
}

// liveHeap returns the bytes of live heap objects. It collects twice, so
// sync.Pool caches are empty on both sides of a measurement.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRankMatchesRecommend: Rank over precomputed results must agree
// with Recommend running the sweep itself.
func TestRankMatchesRecommend(t *testing.T) {
	e := New()
	m := gen.Band(96, 8, 3)
	obj := BalancedObjective()
	want, err := e.Recommend(m, 16, nil, obj)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sweepPoint(e, nil, "advisor", m, scenario.Default(), 16, formats.Sparse())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Rank(rs, obj)
	if err != nil {
		t.Fatal(err)
	}
	if got.Format != want.Format || got.Reason != want.Reason {
		t.Fatalf("Rank disagrees with Recommend:\n got %v %q\nwant %v %q",
			got.Format, got.Reason, want.Format, want.Reason)
	}
	if _, err := Rank(nil, obj); err == nil {
		t.Fatal("Rank accepted an empty result set")
	}
}
