package main

import (
	"runtime"
	"time"
)

// gcDelta is the garbage-collector activity during one operation.
type gcDelta struct {
	cycles uint32
	pause  time.Duration
}

// measureAlloc runs fn after a forced GC, so every cold operation starts
// from the same heap, and returns the bytes fn allocated and the GC
// activity during it.
func measureAlloc(fn func()) (uint64, gcDelta) {
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, gcDelta{b.NumGC - a.NumGC, time.Duration(b.PauseTotalNs - a.PauseTotalNs)}
}

// timeSetup times build, a workload's set-up, after a forced GC and
// returns the seconds it took. Runs time the set-up they use and then a
// dropped rebuild in every cold round, so that the median describes the
// whole run rather than its first second, while the heap still grows.
func timeSetup(build func()) float64 {
	runtime.GC()
	t := time.Now()
	build()
	return time.Since(t).Seconds()
}

// allocOf returns the bytes fn allocated (runtime.MemStats.TotalAlloc
// delta), without a GC first.
func allocOf(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// retainedMB is the live heap after two forced collections (the second
// empties what sync.Pools moved to their victim caches in the first).
// Callers keep their workload state reachable across the call.
func retainedMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return mb(m.HeapAlloc)
}

// traceCall runs fn inside a span and returns its duration.
func traceCall(tr *tracer, name string, parent, op int, fn func()) time.Duration {
	id := tr.begin(name, parent, op)
	t := time.Now()
	fn()
	d := time.Since(t)
	tr.end(id)
	return d
}

// interleave spreads n cold operations evenly over the time left until
// deadline: round i runs cold(i) and then warm until the round's share
// of that time has passed, keeping back the time the remaining cold
// operations are expected to take (their mean so far). warm(until) runs
// at least one warm operation. Spreading both kinds of sample over the
// whole run makes their medians describe the same conditions on a
// shared host, whose load drifts within seconds.
func interleave(deadline time.Time, n int, cold func(i int), warm func(until time.Time)) {
	var coldTime time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		cold(i)
		coldTime += time.Since(t)
		reserve := time.Duration(n-i-1) * (coldTime / time.Duration(i+1))
		warm(time.Now().Add((time.Until(deadline) - reserve) / time.Duration(n-i)))
	}
}

// med is the median of xs, or 0 for no samples.
func med(xs []float64) float64 {
	m, err := median(xs)
	if err != nil {
		return 0
	}
	return m
}

// setE2E reports the end-to-end metrics but retained_mb from a run's
// samples: setup times in seconds, cold and warm latencies in
// milliseconds, and allocated megabytes per cold operation. Callers
// drop the samples before measuring retained_mb, so that it does not
// grow with the run's length.
func setE2E(o *outcome, setup, cold, warm, alloc []float64, throughput float64) error {
	p90, err := percentile(warm, 90)
	if err != nil {
		return err
	}
	o.set("setup_s", med(setup), "s")
	o.set("cold_ms", med(cold), "ms")
	o.set("warm_ms", med(warm), "ms")
	o.set("warm_p90_ms", p90, "ms")
	o.set("throughput_per_s", throughput, "1/s")
	o.set("alloc_mb", med(alloc), "MB")
	return nil
}

// rootStats returns, for each root span id, its duration and its self
// time (the time no layer span under it covered), in milliseconds.
func rootStats(spans []span, self map[int]time.Duration, roots []int) (dur, un []float64) {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, r := range roots {
		dur = append(dur, ms(byID[r].dur()))
		un = append(un, ms(self[r]))
	}
	return dur, un
}

// setTrace reports the tracing overhead (traced latency minus untraced
// latency of the same operations) and the unattributed remainder of
// cold and warm operations.
func setTrace(o *outcome, overheadCold, overheadWarm, unCold, unWarm float64) {
	o.set("trace.overhead_cold_ms", overheadCold, "ms")
	o.set("trace.overhead_warm_ms", overheadWarm, "ms")
	o.set("trace.unattributed_cold_ms", unCold, "ms")
	o.set("trace.unattributed_warm_ms", unWarm, "ms")
}
