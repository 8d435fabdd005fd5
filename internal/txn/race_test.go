//go:build race

package txn

// raceEnabled reports a -race build. The race runtime makes sync.Pool drop
// a random share of the objects put into it, so allocation counts measured
// under it say nothing about the allocation-free path.
const raceEnabled = true
