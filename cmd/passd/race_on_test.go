//go:build race

package main

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so allocation counts are not meaningful.
const raceEnabled = true
