//go:build race

package netgraph

// raceEnabled reports whether the race detector is on. Under it
// sync.Pool drops pooled objects at random, so allocation bounds that
// rely on a warm pool skip.
const raceEnabled = true
