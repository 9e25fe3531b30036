//go:build race

package serving

// raceEnabled reports a -race build: the race detector makes sync.Pool drop
// a random share of Puts, so allocation counts are not steady under it.
const raceEnabled = true
