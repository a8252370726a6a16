//go:build !race

package cgmgraph_test

const raceEnabled = false
