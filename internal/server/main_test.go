package server

import (
	"testing"

	"spice/internal/testutil/leakcheck"
)

// TestMain runs the package under a goroutine-leak check: every Server
// a test builds must be fully joined by its Drain/Close — dispatchers,
// the housekeeping loop, pool workers — before the binary exits.
func TestMain(m *testing.M) { leakcheck.Main(m) }
