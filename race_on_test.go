//go:build race

package spice

// raceEnabled reports whether this test binary was built with the race
// detector. Timing-sensitive tests (the contention bound) drop their
// wall-clock assertions under race instrumentation: every memory access
// costs a shadow-state lookup, so wall-clock ratios measure the
// detector, not the runtime.
const raceEnabled = true
