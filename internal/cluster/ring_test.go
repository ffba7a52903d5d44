package cluster

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("m-%08x|k=spmv|p=%d", i*2654435761, 8<<(i%5))
	}
	return keys
}

// Same seed and fleet must place every key identically in a fresh ring —
// the property that lets a restarted (or standby) coordinator agree
// with its predecessor without any shared state.
func TestRingDeterministicAcrossRestarts(t *testing.T) {
	workers := []string{"a:9001", "b:9002", "c:9003", "d:9004"}
	r1, err := NewRing(workers, 0, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Reversed construction order: placement must not depend on it.
	rev := []string{"d:9004", "c:9003", "b:9002", "a:9001"}
	r2, err := NewRing(rev, 0, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := NewRing(workers, 0, DefaultSeed+1)
	if err != nil {
		t.Fatal(err)
	}
	diffSeed := 0
	for _, k := range testKeys(10000) {
		if r1.Owner(k) != r2.Owner(k) {
			t.Fatalf("placement differs across rebuilds for %q: %s vs %s", k, r1.Owner(k), r2.Owner(k))
		}
		if r1.Owner(k) != r3.Owner(k) {
			diffSeed++
		}
	}
	// A different seed is a different ring: most keys should move.
	if diffSeed < 5000 {
		t.Fatalf("seed change moved only %d/10000 keys — seed is not part of placement", diffSeed)
	}
}

// Adding a worker may move keys only *to* the new worker, and removing
// one may move only the keys it owned — and the moved fraction must be
// near 1/n, not a full reshuffle.
func TestRingMinimalMovement(t *testing.T) {
	workers := []string{"a:9001", "b:9002", "c:9003", "d:9004"}
	r, err := NewRing(workers, 0, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(10000)

	grown, err := r.Add("e:9005")
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, k := range keys {
		before, after := r.Owner(k), grown.Owner(k)
		if before != after {
			moved++
			if after != "e:9005" {
				t.Fatalf("add moved %q from %s to %s — only moves to the new worker are allowed", k, before, after)
			}
		}
	}
	// Ideal share is 1/5 = 2000 keys; allow 2x for vnode variance.
	if moved == 0 || moved > 2*len(keys)/5 {
		t.Fatalf("add moved %d/%d keys (want (0, %d])", moved, len(keys), 2*len(keys)/5)
	}

	shrunk, err := r.Remove("b:9002")
	if err != nil {
		t.Fatal(err)
	}
	moved = 0
	for _, k := range keys {
		before, after := r.Owner(k), shrunk.Owner(k)
		if before != after {
			moved++
			if before != "b:9002" {
				t.Fatalf("remove moved %q owned by %s — only the removed worker's keys may move", k, before)
			}
		}
	}
	if moved == 0 || moved > 2*len(keys)/4 {
		t.Fatalf("remove moved %d/%d keys (want (0, %d])", moved, len(keys), 2*len(keys)/4)
	}
}

// replicas is the re-dispatch order: it starts at the owner, walks the
// ring clockwise, never repeats a worker, and — critically for
// fail-over — dropping the owner from the fleet promotes exactly the
// second replica to owner.
func TestRingReplicaOrdering(t *testing.T) {
	workers := []string{"a:9001", "b:9002", "c:9003", "d:9004"}
	r, err := NewRing(workers, 0, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(2000) {
		reps := r.replicas(k, 0)
		if len(reps) != len(workers) {
			t.Fatalf("replicas(%q, 0) = %d workers, want %d", k, len(reps), len(workers))
		}
		if reps[0] != r.Owner(k) {
			t.Fatalf("replicas(%q)[0] = %s, owner is %s", k, reps[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, w := range reps {
			if seen[w] {
				t.Fatalf("replicas(%q) repeats %s", k, w)
			}
			seen[w] = true
		}
		if got := r.replicas(k, 2); len(got) != 2 || got[0] != reps[0] || got[1] != reps[1] {
			t.Fatalf("replicas(%q, 2) = %v, want prefix of %v", k, got, reps)
		}
		// The fail-over contract: with the owner gone, ownership falls to
		// the next replica.
		without, err := r.Remove(reps[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := without.Owner(k); got != reps[1] {
			t.Fatalf("owner of %q after removing %s: got %s, want next replica %s", k, reps[0], got, reps[1])
		}
	}
}

func TestRingRejectsEmpty(t *testing.T) {
	if _, err := NewRing(nil, 0, DefaultSeed); err == nil {
		t.Fatal("NewRing(nil) succeeded")
	}
	r, err := NewRing([]string{"a:1"}, 0, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Remove("a:1"); err == nil {
		t.Fatal("removing the last worker succeeded")
	}
}

// Add returns a new ring with w added (no-op copy if already present).
func (r *Ring) Add(w string) (*Ring, error) {
	return NewRing(append(r.Workers(), w), r.vnodes, r.seed)
}

// Remove returns a new ring with w removed. Removing the last worker is
// an error.
func (r *Ring) Remove(w string) (*Ring, error) {
	var ws []string
	for _, x := range r.workers {
		if x != w {
			ws = append(ws, x)
		}
	}
	return NewRing(ws, r.vnodes, r.seed)
}
