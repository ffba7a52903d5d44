// Package cluster implements the distributed sweep fabric: a
// consistent-hash ring that maps sweep groups to workers, a per-worker
// client with health probing and breaker-gated dispatch, and a
// coordinator-side core.GroupExecutor that fans (workload, kernel, p)
// groups out over the workers' HTTP sweep API using the columnar wire
// format, falling back through ring replicas and finally to local
// compute so a clustered sweep always completes — byte-identical to a
// single-node sweep, because the merge ordering lives in
// core.SweepGroupsExecWith, not here.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per worker. 64 points per
// worker keeps the placement spread within a few percent of uniform for
// small clusters while the ring stays tiny (a few KiB).
const DefaultVNodes = 64

// DefaultSeed is the ring's hash seed. The seed is part of the placement
// function: every coordinator that should agree on ownership (e.g. a
// restarted process, or a standby) must use the same seed.
const DefaultSeed = 0x5eed_c0de_cafe_f00d

// fnvOffset/fnvPrime are the FNV-1a 64-bit parameters. The ring hashes
// with explicit FNV rather than hash/maphash so placement is stable
// across process restarts — maphash is deliberately per-process seeded.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnv1a(seed uint64, parts ...string) uint64 {
	h := uint64(fnvOffset)
	// Fold the seed in byte by byte so distinct seeds produce unrelated
	// rings rather than a constant rotation.
	for i := 0; i < 8; i++ {
		h ^= (seed >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= fnvPrime
		}
		h ^= 0xff // field separator: ("ab","c") must differ from ("a","bc")
		h *= fnvPrime
	}
	return h
}

// ringPoint is one virtual node: a position on the hash circle owned by
// a worker.
type ringPoint struct {
	hash   uint64
	worker int // index into Ring.workers
}

// Ring is a consistent-hash ring over named workers. Placement is a
// pure function of (seed, worker names, vnodes): two rings built from
// the same inputs — in any order, in any process — agree on every key,
// and adding or removing a worker only moves the keys that worker
// gains or loses. The zero value is not usable; construct with New.
// Ring is immutable after construction; derive changed rings with
// Add/Remove.
type Ring struct {
	seed    uint64
	vnodes  int
	workers []string // sorted unique
	points  []ringPoint
}

// NewRing builds a ring over the given workers with vnodes virtual
// nodes per worker (DefaultVNodes if <= 0) under the given seed.
// Worker names are deduplicated and sorted; at least one is required.
func NewRing(workers []string, vnodes int, seed uint64) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(workers))
	var ws []string
	for _, w := range workers {
		if w == "" {
			return nil, fmt.Errorf("cluster: empty worker name")
		}
		if !seen[w] {
			seen[w] = true
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one worker")
	}
	sort.Strings(ws)
	r := &Ring{seed: seed, vnodes: vnodes, workers: ws}
	r.points = make([]ringPoint, 0, len(ws)*vnodes)
	for wi, w := range ws {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: fnv1a(seed, w, strconv.Itoa(v)), worker: wi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Hash ties (astronomically rare) break by worker order so the
		// ring stays deterministic.
		return a.worker < b.worker
	})
	return r, nil
}

// Workers returns the ring's worker names in sorted order.
func (r *Ring) Workers() []string {
	out := make([]string, len(r.workers))
	copy(out, r.workers)
	return out
}

// Owner returns the worker owning key: the first virtual node at or
// clockwise from the key's hash.
func (r *Ring) Owner(key string) string {
	return r.workers[r.points[r.at(key)].worker]
}

// replicas returns up to n distinct workers in ring order starting at
// the key's owner — the re-dispatch sequence when the owner fails.
// n <= 0 returns all workers. The first element is always Owner(key).
func (r *Ring) replicas(key string, n int) []string {
	if n <= 0 || n > len(r.workers) {
		n = len(r.workers)
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i, start := 0, r.at(key); len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.worker] {
			seen[p.worker] = true
			out = append(out, r.workers[p.worker])
		}
	}
	return out
}

// at returns the index of the first point at or clockwise from key's
// hash.
func (r *Ring) at(key string) int {
	h := fnv1a(r.seed, key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return i
}
