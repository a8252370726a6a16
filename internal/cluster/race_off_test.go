//go:build !race

package cluster

const raceEnabled = false
