//go:build !race

package sqlfe

const raceEnabled = false
