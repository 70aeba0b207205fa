//go:build race

package iso

// raceEnabled reports a -race build, in which sync.Pool drops a random
// share of the states put back, so pooled reuse cannot be counted.
const raceEnabled = true
