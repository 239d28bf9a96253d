//go:build race

package dist

// raceEnabled reports whether the race detector is on. Its runtime
// allocates a few objects per run nondeterministically, so allocation
// comparisons skip under it (as the standard library's allocation tests
// do).
const raceEnabled = true
