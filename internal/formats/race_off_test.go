//go:build !race

package formats

// raceEnabled reports whether the race detector is active. Under -race a
// sync.Pool drops some of what is put back, so the encoders' pooled
// scratch shows up as allocations; the 0-alloc assertions then check
// behaviour only.
const raceEnabled = false
