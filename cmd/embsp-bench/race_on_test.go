//go:build race

package main

// raceEnabled mirrors the -race build tag.
const raceEnabled = true
