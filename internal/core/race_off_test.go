//go:build !race

package core

// raceEnabled reports whether the race detector is active. The
// allocation assertions measure the production configuration; under
// -race the detector's own bookkeeping shows up as spurious allocations,
// so those tests skip.
const raceEnabled = false
