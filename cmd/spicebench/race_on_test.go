//go:build race

package main

// raceEnabled reports whether this test binary was built with the race
// detector. The reproduction starts no goroutine and shares no memory,
// so TestGolden has nothing for the detector to find and skips under it:
// instrumented, the simulation runs many times slower.
const raceEnabled = true
