//go:build !race

package cgm

const raceEnabled = false
