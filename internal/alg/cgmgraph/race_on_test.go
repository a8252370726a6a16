//go:build race

package cgmgraph_test

// raceEnabled mirrors the -race build tag: the allocation tests count
// the mutator's heap traffic, which the race detector adds to.
const raceEnabled = true
