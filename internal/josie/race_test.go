//go:build race

package josie

// raceEnabled: sync.Pool drops a share of Puts under the race detector,
// so allocation counts are not meaningful there.
const raceEnabled = true
