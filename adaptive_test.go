package spice

import "testing"

// --- specController state machine ------------------------------------

func TestSpecControllerDemotesUnderSustainedMisspec(t *testing.T) {
	c := newSpecController(8, 4)
	if c.Effective() != 8 {
		t.Fatalf("initial eff = %d", c.Effective())
	}
	// Three consecutive losing invocations cross the high-water mark.
	for i := 0; i < 3; i++ {
		if eff, probe := c.Begin(); eff != 8 || probe {
			t.Fatalf("pre-demotion Begin = %d,%v", eff, probe)
		}
		c.Observe(specMisspec)
	}
	if c.Effective() != 4 {
		t.Fatalf("after 3 losses eff = %d, want 4", c.Effective())
	}
	// Keep losing: the width halves down to pure sequential.
	for i := 0; i < 20 && c.Effective() > 1; i++ {
		c.Begin()
		c.Observe(specMisspec)
	}
	if c.Effective() != 1 {
		t.Fatalf("sustained losses left eff = %d, want 1", c.Effective())
	}
}

func TestSpecControllerProbesAndPromotes(t *testing.T) {
	c := newSpecController(4, 3)
	c.Observe(specGated) // demote straight to sequential
	if c.Effective() != 1 {
		t.Fatalf("gated fallback left eff = %d", c.Effective())
	}
	// Not yet: the gated demotion restarts the probe clock, which needs
	// probeInterval observations from zero.
	for i := 0; i < 3; i++ {
		if _, probe := c.Begin(); probe {
			t.Fatalf("probe fired %d observations after demotion", i)
		}
		c.Observe(specClean)
	}
	eff, probe := c.Begin()
	if !probe || eff != 2 {
		t.Fatalf("expected a width-2 probe, got %d,%v", eff, probe)
	}
	// A clean probe promotes; a dirty one is abandoned.
	c.Observe(specClean)
	if c.Effective() != 2 {
		t.Fatalf("clean probe did not promote: eff = %d", c.Effective())
	}
	for i := 0; i < 3; i++ {
		c.Begin()
		c.Observe(specClean)
	}
	eff, probe = c.Begin()
	if !probe || eff != 4 {
		t.Fatalf("expected a width-4 probe, got %d,%v", eff, probe)
	}
	c.Observe(specMisspec)
	if c.Effective() != 2 {
		t.Fatalf("dirty probe changed eff to %d", c.Effective())
	}
	// A probe resolved as skipped (no predictions) must not promote.
	for i := 0; i < 3; i++ {
		c.Begin()
		c.Observe(specClean)
	}
	if _, probe = c.Begin(); !probe {
		t.Fatal("probe clock did not restart after the dirty probe")
	}
	c.Observe(specSkipped)
	if c.Effective() != 2 {
		t.Fatalf("skipped probe promoted eff to %d", c.Effective())
	}
}

// TestSpecControllerFailedProbeDoesNotRepeat: a probe whose invocation
// fails never reaches Observe; the next Begin must wait out a full
// probe interval again instead of probing on every invocation.
func TestSpecControllerFailedProbeDoesNotRepeat(t *testing.T) {
	c := newSpecController(4, 2)
	c.Observe(specGated)
	for i := 0; i < 2; i++ {
		c.Begin()
		c.Observe(specClean)
	}
	if _, probe := c.Begin(); !probe {
		t.Fatal("expected a probe after the interval")
	}
	// The probed invocation errors out: no Observe. The probe budget
	// must already be consumed.
	if _, probe := c.Begin(); probe {
		t.Fatal("failed probe repeated on the very next invocation")
	}
	if eff := c.Effective(); eff != 1 {
		t.Fatalf("failed probe changed eff to %d", eff)
	}
}

func TestSpecControllerResetRestoresFullWidth(t *testing.T) {
	c := newSpecController(4, 2)
	for i := 0; i < 10; i++ {
		c.Begin()
		c.Observe(specMisspec)
	}
	if c.Effective() == 4 {
		t.Fatal("losses did not throttle")
	}
	c.Reset()
	if c.Effective() != 4 || c.rate != 0 {
		t.Fatalf("Reset left eff=%d rate=%v", c.Effective(), c.rate)
	}
}

func TestRowConfidenceScoresAndGate(t *testing.T) {
	rc := &newSpecController(4, 0).conf // three rows, all neutral
	if !rc.Admit(0) {
		t.Fatal("fresh row below the default floor")
	}
	rc.Miss(0)
	rc.Miss(0)
	if rc.Admit(0) {
		t.Fatalf("two misses left score %v above the floor", rc.Score(0))
	}
	rc.Hit(0)
	if !rc.Admit(0) {
		t.Fatalf("a hit did not restore admission (score %v)", rc.Score(0))
	}
	rc.Reset()
	if rc.Score(0) != specConfInit {
		t.Fatalf("Reset left score %v", rc.Score(0))
	}
}

func TestProbeSpecCapTightens(t *testing.T) {
	if c := probeSpecCap(1<<20, 10_000, 2); c != 2*10_000/2+256 {
		t.Fatalf("probe cap = %d", c)
	}
	// Never loosens, and ignores degenerate inputs.
	if c := probeSpecCap(100, 10_000, 2); c != 100 {
		t.Fatalf("probe cap loosened to %d", c)
	}
	if c := probeSpecCap(500, 0, 2); c != 500 {
		t.Fatalf("zero-total probe cap = %d", c)
	}
}
