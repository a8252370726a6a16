//go:build !race

package redundancy

const raceEnabled = false
