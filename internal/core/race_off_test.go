//go:build !race

package core_test

const raceEnabled = false
