//go:build !race

package josie

const raceEnabled = false
