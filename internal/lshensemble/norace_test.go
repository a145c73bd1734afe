//go:build !race

package lshensemble

const raceEnabled = false
