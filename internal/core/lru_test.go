package core

import (
	"context"
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
	rs, err := e.SweepFormatsKernelWith(context.Background(), nil, "advisor", m, scenario.Default(), 16, formats.Sparse())
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
