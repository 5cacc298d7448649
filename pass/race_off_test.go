//go:build !race

package pass

const raceEnabled = false
