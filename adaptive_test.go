package spice

import (
	"runtime"
	"slices"
	"testing"
)

// --- specController state machine ------------------------------------

func TestSpecControllerDemotesUnderSustainedMisspec(t *testing.T) {
	c := newSpecController(8, 7, 4)
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
	c := newSpecController(4, 3, 3)
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
	c := newSpecController(4, 3, 2)
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
	c := newSpecController(4, 3, 2)
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
	rc := &newSpecController(4, 3, 0).conf // three rows, all neutral
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

// --- pairing -------------------------------------------------------------

// TestPairingPolicy holds the depth policy to its rule (adaptive.go):
// depth 2 is tried only after a window of clean depth-1 rounds 0 in
// each of which chunk 0 ran at pairMinNs or slower per iteration, as
// depth 1's rounds did, over chunks long enough to halve; it is kept
// while paired rounds beat depth 1 by pairGain, dropped after a window
// of invocations in a row that gave no paired sample, and after a drop
// tried again only pairBackoff invocations later; a round the host held
// up moves neither depth's cost. On a runner, a change of depth changes
// which rows of its one grid it uses, and a body that burns time
// per node is found and paired by the derived rule itself.
func TestPairingPolicy(t *testing.T) {
	const slow, long = 2 * pairMinNs, pairMinChunk
	t.Run("rule", func(t *testing.T) {
		// slowRounds feeds n clean, slow, long depth-1 rounds and reports
		// whether one of them tried depth 2.
		slowRounds := func(p *pairing, n int) (tried bool) {
			for range n {
				tried = p.observe(100, 2, false, true, slow, long) || tried
			}
			return tried
		}
		p := pairing{depth: 1}
		if slowRounds(&p, pairWindow-1) || p.depth != 1 {
			t.Fatal("tried depth 2 before a window of clean rounds")
		}
		for _, no := range []struct {
			clean    bool
			chunk0   float64
			perChunk int64
		}{{false, slow, long}, {true, pairMinNs / 2, long}, {true, slow, long - 1}} {
			q := p
			if q.observe(100, 2, false, no.clean, no.chunk0, no.perChunk) || q.depth != 1 {
				t.Fatalf("%+v tried depth 2", no)
			}
		}
		// A round the host held up 40× on a runner whose rounds take 1 ns
		// an iteration is not a traversal that waits on memory; nor is a
		// window in which chunk 0 read fast once, as on a runner wider
		// than the host whose chunk 0 its own workers preempt in most
		// rounds but not all.
		fast := pairing{depth: 1}
		for range pairWindow {
			fast.observe(1, 2, false, true, 2, long)
		}
		if fast.observe(40, 2, false, true, 80, long) {
			t.Fatal("one held-up round after fast rounds tried depth 2")
		}
		preempted := pairing{depth: 1}
		preempted.observe(100, 2, false, true, 2, long)
		if slowRounds(&preempted, pairWindow-1) {
			t.Fatal("a window with one fast chunk 0 tried depth 2")
		}
		if !slowRounds(&p, 1) || p.depth != 2 {
			t.Fatal("a window of clean, slow, long rounds did not try depth 2")
		}
		// Paired rounds at 60 % of depth 1's cost keep it, held-up ones
		// among them too; once the window holds only rounds at depth 1's
		// cost, it drops.
		if p.observe(60, 2, true, true, 0, long) || p.observe(4000, 2, true, true, 0, long) || p.depth != 2 {
			t.Fatal("a paying paired round dropped depth 2")
		}
		rounds := 0
		for p.depth == 2 && rounds < 2*pairWindow {
			p.observe(100, 2, true, true, 0, long)
			rounds++
		}
		if p.depth != 1 || p.wait != pairBackoff || rounds != pairWindow-1 {
			t.Fatalf("depth %d wait %d after %d rounds at depth 1's cost", p.depth, p.wait, rounds)
		}
		for i := 1; i < pairBackoff; i++ {
			if slowRounds(&p, 1) {
				t.Fatalf("tried again %d invocations after the drop", i)
			}
		}
		if !slowRounds(&p, 1) {
			t.Fatal("did not try again after the backoff")
		}
		// Invocations at depth 2 that give no paired sample (the invoker
		// reclaimed a slot, or the rows left one chunk a slot) are no
		// evidence that pairing pays: a window of them in a row drops it,
		// and a paired sample restarts the count.
		noSample := func(i int) bool {
			if i%2 == 0 {
				return p.observe(50, 2, false, true, 0, long)
			}
			return p.observe(0, 2, true, false, 0, long)
		}
		for range 2 {
			for i := 1; i < pairWindow; i++ {
				if noSample(i) {
					t.Fatalf("dropped after %d sample-less invocations", i)
				}
			}
			if p.observe(60, 2, true, true, 0, long) || p.depth != 2 {
				t.Fatal("a paying paired round dropped depth 2")
			}
		}
		for i := 1; i < pairWindow; i++ {
			noSample(i)
		}
		if !noSample(pairWindow) || p.depth != 1 || p.wait != pairBackoff {
			t.Fatalf("depth %d wait %d after %d sample-less invocations", p.depth, p.wait, pairWindow)
		}
	})
	t.Run("regrid", func(t *testing.T) {
		// A derived runner plans on the grid of its finest depth, 2·Threads
		// parts, and at depth 1 uses every second row: the odd ones, on the
		// Threads-part boundaries.
		g := testList(3000, 5)
		r := newRunner(t, plainLoop(), Config{Threads: 3, Options: Options{Adaptive: true}})
		if r.pred.parts != 6 || len(r.pred.rows) != 5 || r.pred.stride != 2 || len(r.ctrl.conf.score) != 5 {
			t.Fatalf("parts %d rows %d stride %d scores %d", r.pred.parts, len(r.pred.rows), r.pred.stride, len(r.ctrl.conf.score))
		}
		// memoized reports which rows are valid, and where.
		memoized := func() []int64 {
			at := make([]int64, len(r.pred.rows))
			for k, row := range r.pred.rows {
				at[k] = -1
				if row.valid {
					at[k] = row.pos
				}
			}
			return at
		}
		g.warm(t, r, 3)
		if got := memoized(); !slices.Equal(got, []int64{-1, 1000, -1, 2000, -1}) {
			t.Fatalf("rows at %v at depth 1", got)
		}
		// The depth is pinned from here on, as Config.depth pins it, so the
		// policy cannot drop it (pairing does not pay on 1 000-node chunks)
		// while the grid is checked; the stride follows it as finish sets it.
		depth := func(d int) {
			r.pairing.forced, r.pairing.depth = d, d
			r.pred.stride = r.pred.parts / (r.cfg.Threads * r.pairing.depth)
		}
		depth(2)
		// The first invocation at depth 2 finds only the odd rows valid, so
		// it runs depth 1's layout and memoizes the fine grid; the next
		// pairs.
		paired := func(n int) int64 {
			before := r.Stats()
			g.warm(t, r, n)
			return r.Stats().Delta(before).PairedRounds
		}
		if n := paired(1); n != 0 || !slices.Equal(memoized(), []int64{500, 1000, 1500, 2000, 2500}) {
			t.Fatalf("PairedRounds %d, rows at %v after depth 2's first invocation", n, memoized())
		}
		if n := paired(1); n != 1 {
			t.Fatalf("PairedRounds %d on depth 2's second invocation", n)
		}
		// Back at depth 1 (as a drop leaves it), the stride hides the even
		// rows, still valid until the next apply clears them, and every
		// slot works again.
		depth(1)
		if adm := r.admitted(0); !slices.Equal(adm, []int{1, 3}) {
			t.Fatalf("rows %v admitted after the drop", adm)
		}
		if n := paired(1); n != 0 || !slices.Equal(memoized(), []int64{-1, 1000, -1, 2000, -1}) {
			t.Fatalf("PairedRounds %d, rows at %v after the drop", n, memoized())
		}
		if st := r.Stats(); busy(st.LastWorks) != 3 {
			t.Fatalf("LastWorks %v after the drop", st.LastWorks)
		}
	})
	t.Run("derived", func(t *testing.T) {
		// A node costs about 0.3 µs: far past pairMinNs, whatever the
		// host, and chunks of 5 000 iterations at depth 2. A window of
		// clean depth-1 rounds 0 tries depth 2, but only a round nobody
		// reclaimed, with a processor per slot, is clean, so a host that
		// cannot run the worker beside the invoker (GOMAXPROCS 1) never
		// tries it.
		g := testList(20_000, 7)
		loop := hookLoop(func(n *mnode) {
			x := n.w
			for range 300 {
				x = x*6364136223846793005 + 1442695040888963407
			}
			if x == 0 {
				panic("a weight whose 300th LCG step is 0")
			}
		})
		r := newRunner(t, loop, Config{Threads: 2})
		for inv := 0; inv < 40 && r.Stats().PairedRounds == 0; inv++ {
			g.exact(t, r)
		}
		switch st := r.Stats(); {
		case st.PairedRounds == 0 && runtime.GOMAXPROCS(0) > 1 && !raceEnabled:
			t.Fatalf("a slow body was never paired: %s", statsLine(st))
		case st.PairedRounds != 0 && runtime.GOMAXPROCS(0) == 1:
			t.Fatalf("paired on one processor: %s", statsLine(st))
		}
		t.Log(statsLine(r.Stats()))
		checkConservation(t, r.Stats(), 2)
	})
}
