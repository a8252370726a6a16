//go:build race

package redundancy

// raceEnabled mirrors the -race build tag: the allocation gate counts
// the mutator's heap traffic, which the race detector adds to.
const raceEnabled = true
