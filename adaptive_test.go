package spice

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// --- specController: the gate and the probe clock --------------------

// closeRows drives rows below the confidence floor, as sustained misses
// do.
func closeRows(c *specController, rows ...int) {
	for _, k := range rows {
		for c.Admit(k) {
			c.Miss(k)
		}
	}
}

// TestSpecControllerDemotesUnderSustainedMisspec: sustained misses close
// the gate row by row, each closed row's chunk folded into its
// predecessor's, down to one slot — a round of one, counted as a
// sequential fallback, with the gauge at 1.
func TestSpecControllerDemotesUnderSustainedMisspec(t *testing.T) {
	l := testList(4000, 3)
	r := newRunner(t, plainLoop(), Config{Threads: 4, Options: Options{Adaptive: true}, depth: 1})
	l.warm(t, r, 3)
	if st := r.Stats(); busy(st.LastWorks) != 4 || st.EffectiveThreads != 4 {
		t.Fatalf("stable list before any miss: %s", statsLine(st))
	}
	for k := range 3 {
		closeRows(r.ctrl, indexRow(k))
		l.exact(t, r)
		st := r.Stats()
		want := int64(4) // the gauge: full width while any row is admitted
		if k == 2 {
			want = 1
		}
		if busy(st.LastWorks) != 3-k || st.EffectiveThreads != want {
			t.Fatalf("rows 0..%d closed: %s", k, statsLine(st))
		}
	}
	if st := r.Stats(); st.SequentialFallbacks != 1 || st.Misses != 0 {
		t.Fatalf("every row closed: %s", statsLine(st))
	}
}

// TestSpecControllerProbesAndPromotes: the probe fires after
// probeInterval invocations the gate narrowed, and only then; on a
// runner whose rows hold again, the probe's hits open them, and the
// runner speculates on every row with no further probe.
func TestSpecControllerProbesAndPromotes(t *testing.T) {
	c := newSpecController(3, 3)
	for i := range 10 {
		if c.Begin() {
			t.Fatalf("probe after %d invocations the gate never narrowed", i)
		}
	}
	for i := range 3 {
		if c.Begin() {
			t.Fatalf("probe after %d narrowed invocations", i)
		}
		c.narrowed++
	}
	if !c.Begin() {
		t.Fatal("no probe after probeInterval narrowed invocations")
	}

	l := testList(3000, 5)
	r := newRunner(t, plainLoop(), Config{Threads: 4, Options: Options{Adaptive: true}, depth: 1, probeEvery: 3})
	l.warm(t, r, 2)
	closeRows(r.ctrl, indexRow(0), indexRow(1), indexRow(2))
	for inv := 1; inv <= 6; inv++ {
		l.exact(t, r)
		st := r.Stats()
		want := 4 // the 4th invocation probes every row, and its hits open them
		if inv <= 3 {
			want = 1
		}
		if busy(st.LastWorks) != want || st.EffectiveThreads != int64(want) {
			t.Fatalf("invocation %d after the gate closed: %s", inv, statsLine(st))
		}
	}
	if st := r.Stats(); st.SequentialFallbacks != 3 || r.ctrl.narrowed != 0 {
		t.Fatalf("narrowed %d after the probe: %s", r.ctrl.narrowed, statsLine(st))
	}
}

// TestSpecControllerFailedProbeDoesNotRepeat: the clock restarts when a
// probe begins, so a probe whose invocation fails (no verdicts) or
// whose rows miss again does not fire again until the gate has narrowed
// a full interval more; a probe that conflicts doubles that interval,
// up to maxProbeInterval, and a hit restores it.
func TestSpecControllerFailedProbeDoesNotRepeat(t *testing.T) {
	c := newSpecController(3, 2)
	closeRows(c, 0, 1, 2)
	c.narrowed = 2
	if !c.Begin() {
		t.Fatal("expected a probe after the interval")
	}
	// The probe's rows miss again: still closed, and the clock runs from
	// zero.
	c.Miss(0)
	for i := range 2 {
		if c.Begin() {
			t.Fatalf("failed probe repeated %d invocations later", i)
		}
		c.narrowed++
	}
	if c.Admit(0) || !c.Begin() {
		t.Fatal("no second probe a full interval after the failed one")
	}

	// waitsFor reports how many narrowed invocations the clock waits
	// before the next probe.
	waitsFor := func() int64 {
		n := int64(0)
		for ; !c.Begin(); n++ {
			c.narrowed++
		}
		return n
	}
	c.Conflict(1, false) // outside a probe: a miss, and the wait stands
	if n := waitsFor(); n != 2 {
		t.Fatalf("a conflict outside a probe moved the wait to %d", n)
	}
	// Each conflicting probe doubles the wait once, however many of its
	// chunks conflict.
	for _, want := range []int64{4, 8, 16} {
		c.Conflict(1, true)
		c.Conflict(2, true)
		if n := waitsFor(); n != want {
			t.Fatalf("after a conflicting probe the wait is %d, want %d", n, want)
		}
	}
	for range 8 {
		c.Conflict(1, true)
		waitsFor()
	}
	if c.interval != maxProbeInterval {
		t.Fatalf("conflicting probes raised the wait to %d, want the cap %d", c.interval, maxProbeInterval)
	}
	// A hit restores the wait; a probe that also met a conflict doubles
	// it after that, whichever came first.
	c.Conflict(1, true)
	c.Hit(0)
	if n := waitsFor(); n != 4 {
		t.Fatalf("a probe with a conflict and a hit left the wait at %d, want 4", n)
	}
	c.Hit(1)
	if n := waitsFor(); n != 2 {
		t.Fatalf("a hit left the wait at %d, want probeInterval 2", n)
	}
}

// TestConflictingProbeDoublesWaitOnce: on a cell loop whose every
// chunk boundary conflicts, the first probe of a width-8 runner meets
// several conflicts, over several rounds, and leaves the wait exactly
// doubled: once per probe, not once per conflict.
func TestConflictingProbeDoublesWaitOnce(t *testing.T) {
	const probe = 2
	g := cellList(rand.New(rand.NewSource(42)), 600, "dense")
	r := newRunner(t, g.loop(false), Config{Threads: 8, Options: Options{Adaptive: true}, probeEvery: probe})
	for inv := 0; inv < 30; inv++ {
		g.churnValues(30)
		before := r.Stats()
		g.exact(t, r)
		if !r.ctrl.conflicted {
			continue
		}
		if st := r.Stats().Delta(before); st.Conflicts < 2 {
			t.Fatalf("inv %d: the probe met %d conflicts; the case needs several", inv, st.Conflicts)
		}
		if r.ctrl.Begin() || r.ctrl.interval != 2*probe {
			t.Fatalf("inv %d: after one conflicting probe the wait is %d, want %d", inv, r.ctrl.interval, 2*probe)
		}
		return
	}
	t.Fatal("no probe met a conflict in 30 invocations")
}

// TestSpecControllerResetRestoresFullWidth: Reset clears the probe
// clock and every row's score.
func TestSpecControllerResetRestoresFullWidth(t *testing.T) {
	c := newSpecController(3, 2)
	closeRows(c, 0, 1, 2)
	c.narrowed = 1
	c.Reset()
	if c.narrowed != 0 {
		t.Fatalf("Reset left the clock at %d", c.narrowed)
	}
	for k := range 3 {
		if c.score[k] != specConfInit {
			t.Fatalf("Reset left row %d at %v", k, c.score[k])
		}
	}
}

func TestRowConfidenceScoresAndGate(t *testing.T) {
	rc := newSpecController(3, 0) // three rows, all neutral
	if !rc.Admit(0) {
		t.Fatal("fresh row below the default floor")
	}
	rc.Miss(0)
	rc.Miss(0)
	if rc.Admit(0) {
		t.Fatalf("two misses left score %v above the floor", rc.score[0])
	}
	rc.Hit(0)
	if !rc.Admit(0) {
		t.Fatalf("a hit did not restore admission (score %v)", rc.score[0])
	}
	rc.Reset()
	if rc.score[0] != specConfInit {
		t.Fatalf("Reset left score %v", rc.score[0])
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

// TestPairingPolicy holds the shape policy to its one rule (adaptive.go):
// each shape keeps a window of its own cost, and of two neighbouring
// shapes the wider or deeper is held only while a majority of its window
// beats the other's figure by pairGain. A runner at depth 1 tries no
// neighbour before a window of clean rounds 0 whose chunk 0 ran at
// pairMinNs or slower per iteration in a majority; a neighbour not yet
// measured runs until it has a window, and every pairRecheck
// invocations one neighbour runs, in rotation, a deeper or wider one on
// while it pays; a shape runs only while the trip count keeps
// pairMinChunk iterations a chunk; a round that gives no figure of the
// depth above 1 it ran for counts +Inf there; a round the host held up
// moves no figure. On a runner, a change of depth changes
// which rows of its one grid it uses, and a body that burns time per
// node is found and paired by the derived rule itself. A round the
// confidence gate thinned is a sample of the depth it ran. Width is the
// table's other axis: a runner whose width-W rounds do not beat its
// invoker alone by pairGain narrows, and widens when W's window beats it
// again. The model subtest drives the rule from seeded cost models of
// the benchmark's structures and hosts.
func TestPairingPolicy(t *testing.T) {
	const slow, long = 2 * pairMinNs, pairMinChunk
	const two, deep = 2 * long, maxDepth * long // trip counts per slot that allow depth 2, and maxDepth
	// fresh is the policy of a runner of width 1, or of width 2 (wide).
	fresh := func(wide bool) *pairing {
		p := &pairing{wide: wide}
		p.reset()
		return p
	}
	// feed feeds p n rounds, each at the depth p runs as its rows allow
	// (the first invocation at a finer depth runs the depth it ran
	// before, as shapeModel.drive) and reading that depth's cost (cost,
	// by log2 of the depth), chunk 0 at self in a depth-1 round, and
	// reports whether one changed the shape. A copy of p starts from the
	// depth it runs.
	ran := map[*pairing]int{}
	feed := func(p *pairing, n int, cost [3]float64, self float64, perSlot int64) (moved bool) {
		for range n {
			d, s := p.depth(), 0.0
			if prev, ok := ran[p]; ok {
				d = min(d, prev)
			}
			if ran[p] = p.depth(); d == 1 {
				s = self
			}
			moved = p.observe(cost[bits.Len(uint(d-1))], d, s, perSlot) || moved
		}
		return moved
	}
	// held is the depth p holds.
	held := func(p *pairing) int { return 1 << (p.cur % 3) }
	flat, pays := [3]float64{100, 100, 100}, [3]float64{100, 60, 40}
	t.Run("rule", func(t *testing.T) {
		// No neighbour is tried before a window of clean depth-1 rounds
		// whose chunk 0 read pairMinNs or more in a majority, nor on
		// rounds that are not clean (self 0), nor on a trip count too
		// short for depth 2. A round the host held up 40× on a runner
		// whose rounds take 1 ns an iteration is not a traversal that
		// waits on memory; nor is a window most of whose chunk 0s read
		// fast.
		p := fresh(false)
		if feed(p, pairWindow-1, flat, slow, two) || p.depth() != 1 {
			t.Fatal("tried depth 2 before a window of clean rounds")
		}
		for _, no := range []struct {
			self    float64
			perSlot int64
		}{{0, two}, {slow, two - 1}} {
			q := *p
			if feed(&q, 1, flat, no.self, no.perSlot) || q.depth() != 1 {
				t.Fatalf("%+v tried depth 2", no)
			}
		}
		fast := fresh(false)
		feed(fast, pairWindow, [3]float64{1}, 2, two)
		if fast.observe(40, 1, 80, two) {
			t.Fatal("one held-up round after fast rounds tried depth 2")
		}
		most := fresh(false)
		feed(most, pairWindow/2+1, flat, 2, two)
		if feed(most, pairWindow/2-1, flat, slow, two) {
			t.Fatal("a window with most of its chunk 0s fast tried depth 2")
		}
		if !feed(p, 1, flat, slow, two) || p.depth() != 2 {
			t.Fatal("a window of clean, slow, long rounds did not try depth 2")
		}
		// Depth 2 runs until it has a window, its first invocation on
		// depth 1's rows. At depth 1's cost it does not pay, and the runner
		// runs depth 1 again.
		n := 0
		for ; p.depth() == 2 && n <= pairWindow+1; n++ {
			feed(p, 1, flat, slow, two)
		}
		if n != pairWindow+1 || held(p) != 1 {
			t.Fatalf("depth 2 ran %d invocations at depth 1's cost, holding %d", n, held(p))
		}
		// Every pairRecheck invocations depth 2 runs again, first on depth
		// 1's rows and then on its own. A recheck at depth 1's cost
		// returns; one that beats depth 1's figure by pairGain runs on
		// while it does, and depth 2 is held once a majority of its window
		// is in under that figure.
		for _, c := range []struct {
			cost [3]float64
			m    int
		}{{flat, 2}, {pays, pairWindow/2 + 2}} {
			n, m := 0, 0
			for ; p.depth() == 1 && n <= pairRecheck; n++ {
				feed(p, 1, c.cost, slow, two)
			}
			for ; p.depth() == 2 && held(p) == 1 && m <= pairWindow; m++ {
				feed(p, 1, c.cost, slow, two)
			}
			if n > pairRecheck || m != c.m || (held(p) == 2) != (c.cost == pays) {
				t.Fatalf("a recheck at %v after %d invocations, %d at depth 2: holding %d", c.cost, n, m, held(p))
			}
		}
		// Three held-up rounds in every window do not drop it. (A recheck
		// of depth 1 takes two invocations from depth 2: the recheck, and
		// the next one on depth 1's rows.)
		for range 4 {
			for n := p.at[4].n; p.at[4].n < n+pairWindow-3; {
				feed(p, 1, pays, slow, two)
			}
			for n := p.at[4].n; p.at[4].n < n+3; {
				if feed(p, 1, [3]float64{100, 4000}, slow, two); held(p) != 2 {
					t.Fatal("three held-up rounds in a window dropped depth 2")
				}
			}
		}
		// Invocations at depth 2 that give no figure of it (the invoker
		// reclaimed a slot, or the rows left one chunk a slot) count +Inf
		// there: half a window of them leaves no majority that pays, and
		// drops it.
		q := *p
		feed(&q, pairWindow, pays, slow, two)
		for n := 0; held(&q) == 2; {
			if q.depth() == 2 {
				n++
			}
			if feed(&q, 1, [3]float64{100}, slow, two); held(&q) == 1 && n != pairWindow/2 {
				t.Fatalf("dropped after %d sample-less invocations", n)
			}
		}
		// So does half a window at depth 1's cost.
		feed(p, pairWindow, pays, slow, two)
		for n := 0; held(p) == 2; {
			if n > pairWindow {
				t.Fatal("held depth 2 at depth 1's cost")
			}
			if p.depth() == 2 {
				n++
			}
			if feed(p, 1, flat, slow, two); held(p) == 1 && n != pairWindow/2 {
				t.Fatalf("dropped after %d samples at depth 1's cost", n)
			}
		}
	})
	t.Run("ladder", func(t *testing.T) {
		// Each depth whose window beats the one below by pairGain in a
		// majority is held, and the next deeper is tried at once, up to
		// maxDepth: a majority of paying samples after the first
		// invocation, which runs on the coarser depth's rows.
		p := fresh(false)
		feed(p, pairWindow, pays, slow, deep)
		for _, d := range []int{2, 4} {
			n := 0
			for ; held(p) < d && n <= pairWindow; n++ {
				if p.depth() != d {
					t.Fatalf("ran depth %d trying %d", p.depth(), d)
				}
				feed(p, 1, pays, slow, deep)
			}
			if n != pairWindow/2+2 {
				t.Fatalf("depth %d held after %d paying samples", d, n)
			}
		}
		// A neighbour runs every pairRecheck invocations, and one whose
		// window is not full runs until it is: depth 2's. One lucky
		// sample there does not drop depth 4.
		n := 0
		for ; p.depth() == 4 && n <= pairRecheck; n++ {
			feed(p, 1, pays, slow, deep)
		}
		if n > pairRecheck {
			t.Fatalf("no recheck in %d invocations at depth 4", n)
		}
		if feed(p, 1, [3]float64{100, 30, 40}, slow, deep); held(p) != 4 {
			t.Fatal("one lucky depth-2 sample dropped depth 4")
		}
		// Once the host slows depth 4 to 70 for a majority of its window,
		// it loses to depth 2.
		for n := 0; held(p) == 4; n++ {
			if n > pairRecheck+pairWindow {
				t.Fatal("held depth 4 at 70")
			}
			feed(p, 1, [3]float64{100, 60, 70}, slow, deep)
		}
		// A trip count that no longer keeps pairMinChunk iterations a chunk
		// at depth 2 steps down at once.
		if feed(p, 1, pays, slow, long); held(p) != 1 || p.depth() != 1 {
			t.Fatalf("holding %d, running %d, on a trip count that allows depth 1 only", held(p), p.depth())
		}
	})
	t.Run("regrid", func(t *testing.T) {
		// A derived runner plans on the grid of its finest depth,
		// maxDepth·Threads parts, cut setFanout times finer, and at depth d
		// uses every setFanout·(maxDepth/d)-th row: at depth 1 rows 7 and
		// 15, on the Threads-part boundaries.
		g := testList(3000, 5)
		r := newRunner(t, plainLoop(), Config{Threads: 3, Options: Options{Adaptive: true}})
		if r.pred.parts != 12 || len(r.pred.rows) != 23 || r.pred.stride != 4 || len(r.ctrl.score) != 23 {
			t.Fatalf("parts %d rows %d stride %d scores %d", r.pred.parts, len(r.pred.rows), r.pred.stride, len(r.ctrl.score))
		}
		// memoized lists the valid rows as row@position.
		memoized := func() string {
			var at []string
			for k, row := range r.pred.rows {
				if row.valid {
					at = append(at, fmt.Sprintf("%d@%d", k, row.pos))
				}
			}
			return strings.Join(at, " ")
		}
		g.warm(t, r, 3)
		if got := memoized(); got != "7@1000 15@2000" {
			t.Fatalf("rows %s at depth 1", got)
		}
		// The depth is pinned from here on, as Config.depth pins it, so the
		// policy cannot drop it (no rung pays on 1 000-node chunks) while
		// the grid is checked; the stride follows it as finish sets it.
		depth := func(d int) {
			r.pairing.forced = d
			r.pred.stride = r.pred.parts / (r.cfg.Threads * r.pairing.depth())
		}
		paired := func(n int) int64 {
			before := r.Stats()
			g.warm(t, r, n)
			return r.Stats().Delta(before).PairedRounds
		}
		hits := func() int64 { return r.Stats().Hits }
		// The first invocation at a new depth finds only the coarser
		// rung's rows valid, so it runs that rung's layout and memoizes the
		// finer grid; the next runs the new depth's.
		depth(2)
		if n := paired(1); n != 0 || memoized() != "3@500 7@1000 11@1500 15@2000 19@2500" {
			t.Fatalf("PairedRounds %d, rows %s after depth 2's first invocation", n, memoized())
		}
		if n := paired(1); n != 1 {
			t.Fatalf("PairedRounds %d on depth 2's second invocation", n)
		}
		depth(4)
		if n := paired(1); n != 1 || memoized() != "1@250 3@500 5@750 7@1000 9@1250 11@1500 13@1750 15@2000 17@2250 19@2500 21@2750" {
			t.Fatalf("PairedRounds %d, rows %s after depth 4's first invocation", n, memoized())
		}
		if h := hits(); paired(1) != 1 || hits()-h != 11 {
			t.Fatalf("depth 4's second invocation is not 11 hits on 3 slots of 4 chunks: %s", statsLine(r.Stats()))
		}
		// Back at depth 1 (as a drop leaves it), the stride hides the finer
		// rows, still valid until the next apply clears them, and every
		// slot works again.
		depth(1)
		if adm := r.admitted(0); !slices.Equal(adm, []int{7, 15}) {
			t.Fatalf("rows %v admitted after the drop", adm)
		}
		if n := paired(1); n != 0 || memoized() != "7@1000 15@2000" {
			t.Fatalf("PairedRounds %d, rows %s after the drop", n, memoized())
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
		// tries it at width 2: there its crowded rounds narrow the runner,
		// which may then try depth 2 on the invoker alone.
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
		var wide int64 // paired rounds at width 2
		for inv := 0; inv < 40 && r.Stats().PairedRounds == 0; inv++ {
			one, before := r.pairing.one(), r.Stats().PairedRounds
			if g.exact(t, r); !one {
				wide += r.Stats().PairedRounds - before
			}
		}
		switch st := r.Stats(); {
		case st.PairedRounds == 0 && runtime.GOMAXPROCS(0) > 1 && !raceEnabled:
			t.Fatalf("a slow body was never paired: %s", statsLine(st))
		case wide != 0 && runtime.GOMAXPROCS(0) == 1:
			t.Fatalf("paired two slots on one processor: %s", statsLine(st))
		case !narrowed(&r.pairing) && runtime.GOMAXPROCS(0) == 1:
			t.Fatalf("crowded rounds did not narrow: %s", statsLine(st))
		}
		t.Log(statsLine(r.Stats()))
		checkConservation(t, r.Stats(), 2, 0)
	})
	t.Run("oversubscribed", func(t *testing.T) {
		// On one processor the slots of a width-2 round take turns, so on a
		// list that keeps pairMinChunk iterations a slot each round counts
		// +Inf for its shape, and once a majority of its window does, the
		// runner narrows to the invoker alone. (Such a round once gave no
		// sample, so a width-2 runner kept dispatching a chunk its invoker
		// then ran itself.) On two processors a width-4 round still runs a
		// slot beside the invoker, but it is never clean: the gate on
		// leaving (W, 1) stays shut, and the runner keeps its width.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		for _, c := range []struct {
			procs, threads int
			narrow         bool
		}{{1, 2, true}, {2, 4, false}} {
			runtime.GOMAXPROCS(c.procs)
			g := testList(2*pairMinChunk*c.threads+c.threads, 11)
			r := newRunner(t, plainLoop(), Config{Threads: c.threads})
			for inv := 0; inv < 2*pairWindow && !narrowed(&r.pairing); inv++ {
				g.exact(t, r)
			}
			if st := r.Stats(); narrowed(&r.pairing) != c.narrow || (st.EffectiveThreads == 1) != c.narrow {
				t.Fatalf("GOMAXPROCS %d, Threads %d: narrowed %v: %s", c.procs, c.threads, narrowed(&r.pairing), statsLine(st))
			}
		}
	})
	t.Run("gated", func(t *testing.T) {
		// A round the gate thinned counts as the depth its busiest slot
		// ran: at depth 2 on 2 slots, a closed row leaves 3 chunks, 2 of
		// them on slot 0, and the round is a sample of depth 2. Were it no
		// depth's, a gated runner at depth 2 would read +Inf there and
		// drop it.
		g := testList(3000, 5)
		r := newRunner(t, plainLoop(), Config{Threads: 2, Options: Options{Adaptive: true}})
		depth2 := func() {
			r.pairing.cur, r.pairing.run = 4, 4
			r.pred.stride = r.pred.parts / (r.cfg.Threads * 2)
		}
		g.warm(t, r, 2)
		depth2()
		g.warm(t, r, 1) // memoizes depth 2's rows 3, 7 and 11
		depth2()        // the policy drops depth 2 on a list this short
		closeRows(r.ctrl, 11)
		adm := r.admitted(0)
		if !slices.Equal(adm, []int{3, 7}) {
			t.Fatalf("rows %v admitted", adm)
		}
		r.begin(g.head, 1+len(adm))
		rung := r.rd.rung
		r.release()
		if rung != 2 {
			t.Fatalf("a gated round of 3 chunks on 2 slots ran rung %d", rung)
		}
		p := fresh(true)
		feed(p, pairWindow, flat, slow, two)
		p.cur, p.run = 4, 4
		for i := range 4 * pairWindow {
			if p.observe(30, rung, 0, two); held(p) != 2 {
				t.Fatalf("holding %d after %d gated rounds at depth 2", held(p), i+1)
			}
		}
		if math.IsInf(p.at[4].mid(), 1) {
			t.Fatal("gated rounds gave depth 2 no figure")
		}
		// A gate that closes every row leaves a round of one: no figure,
		// at rung 1. It counts +Inf for depth 2, the depth it ran for, not
		// for depth 1: half a window of them drops depth 2, and depth 1's
		// figure stands.
		p = fresh(true)
		p.cur, p.run = 4, 4
		for range pairWindow {
			p.at[3].add(100)
			p.at[4].add(30)
			p.at[1].add(60)
		}
		for n := 1; p.cur == 4; n++ {
			if p.observe(0, 1, 0, two); n > pairWindow/2 || p.cur != 4 && (p.cur != 3 || n != pairWindow/2) {
				t.Fatalf("holding shape %d after %d rounds of one", p.cur, n)
			}
		}
		if p.at[3].mid() != 100 {
			t.Fatalf("rounds of one moved depth 1's figure to %v", p.at[3].mid())
		}
	})
	t.Run("width", func(t *testing.T) {
		// wide feeds p until n rounds have run at (2, 2), each reading
		// gain times slow, the invoker's own pace at depth 2, per committed
		// iteration: 0.5 where the slots split the work evenly, 1 where the
		// invoker walks it. A round at (1, 2) reads slow, and one at depth
		// 1 twice that.
		wide := func(p *pairing, n int, gain float64) {
			for i := 0; n > 0; i++ {
				if i > 4*pairRecheck {
					t.Fatalf("no round at (2, 2) in %d invocations", i)
				}
				x := float64(slow) * float64(3-p.depth())
				if p.run == 4 {
					x, n = x*gain, n-1
				}
				p.observe(x, p.depth(), 0, two)
			}
		}
		atDepth2 := func() *pairing {
			p := fresh(true)
			p.cur, p.run = 4, 4
			p.at[0].add(math.Inf(1)) // (1, 1) and (1, 2) have been tried: they only run on rechecks
			p.at[1].add(math.Inf(1))
			return p
		}
		// Width that pays never narrows, three held-up rounds in every
		// window of eight included.
		p := atDepth2()
		for range 4 * pairRecheck {
			if wide(p, 5, 0.5); narrowed(p) {
				t.Fatal("narrowed on paying rounds")
			}
			if wide(p, 3, 4); narrowed(p) {
				t.Fatal("narrowed on three held-up rounds in a window")
			}
		}
		// Width that does not beat the invoker alone by pairGain narrows to
		// (1, 2) once a majority of width 2's window is in, at the
		// invoker's pace.
		p = atDepth2()
		p.at[1] = window{}
		for n := 0; !narrowed(p); n++ {
			if n > pairWindow {
				t.Fatalf("held width 2 after %d invocations at the invoker's pace", n)
			}
			wide(p, 1, 1)
		}
		// Narrowed, it runs width 2 again on its rechecks, in rotation, and
		// widens at the one that gives width 2 a majority of its window
		// under pairGain of width 1's.
		for i := 1; narrowed(p); i++ {
			if i > pairWindow/2+1 {
				t.Fatalf("narrowed after %d paying rechecks of width 2", i)
			}
			wide(p, 1, 0.5)
		}
		// On a runner: narrowed, an invocation runs on the invoker alone,
		// memoizes the grid's rows for width 2, and the gauge reads 1. Once
		// width 2's window beats a window of the invoker's, the runner
		// widens and the gauge reads 2. The list is too short for depth 2.
		g := testList(12_000, 9)
		r := newRunner(t, plainLoop(), Config{Threads: 2, Options: Options{Adaptive: true}})
		g.warm(t, r, 3)
		narrow(&r.pairing)
		before := r.Stats()
		g.exact(t, r)
		if st := r.Stats().Delta(before); st.EffectiveThreads != 1 || st.Hits+st.Misses != 0 || busy(st.LastWorks) != 1 || !r.pred.rows[7].valid {
			t.Fatalf("narrowed: %s, row 7 valid %v", statsLine(st), r.pred.rows[7].valid)
		}
		g.warm(t, r, pairWindow-1) // a window of (1, 1)
		r.pairing.at[3] = window{}
		for range pairWindow {
			r.pairing.at[3].add(1e-3)
		}
		if g.exact(t, r); narrowed(&r.pairing) {
			t.Fatal("narrowed beside a window of width 2 that pays")
		}
		before = r.Stats()
		g.exact(t, r)
		if st := r.Stats().Delta(before); st.EffectiveThreads != 2 || st.Hits != 1 || busy(st.LastWorks) != 2 || narrowed(&r.pairing) {
			t.Fatalf("widened: %s, narrowed %v", statsLine(st), narrowed(&r.pairing))
		}
		// A Pool session move resets the shape: the next session on the
		// same runner starts wide.
		pool := newPool(t, plainLoop(), Config{Threads: 2})
		s := openSession(t, pool, 0)
		moved := s.r
		narrow(&moved.pairing)
		g.exact(t, s)
		if st := s.Stats(); st.EffectiveThreads != 1 {
			t.Fatalf("narrowed session: %s", statsLine(st))
		}
		s.Close()
		if s = openSession(t, pool, 0); s.r != moved || narrowed(&s.r.pairing) || s.r.pairing.one() || s.Stats().EffectiveThreads != 2 {
			t.Fatalf("the next session: same runner %v, narrowed %v, gauge %d", s.r == moved, narrowed(&s.r.pairing), s.Stats().EffectiveThreads)
		}
	})
	t.Run("self", func(t *testing.T) {
		// Round 0's clock is the invoker's own time over the iterations its
		// slot stepped in round 0 (round.steps), not in the invocation's
		// last round: under a cap of 4 000, chunk 1 of a 60 000-node list
		// caps, and slot 0 of the recovery round steps fewer than 30 000.
		g := testList(60_000, 13)
		r := newRunner(t, plainLoop(), Config{Threads: 2, depth: 1, maxSpec: 4000})
		g.warm(t, r, 1)
		// Run by hand, as Runner.run does, to read the round before
		// finish and release.
		r.begin(g.head, 1+len(r.admitted(0)))
		defer r.release()
		rd, ctx := &r.rd, context.Background()
		slot0 := func() (steps int64) {
			for _, l := range r.jobs[0].lanes[:r.jobs[0].width] {
				steps += l.work
			}
			return steps
		}
		var round0 int64
		for {
			r.seed(ctx)
			if r.dispatch(ctx); rd.index == 0 {
				round0 = slot0()
			}
			r.walk()
			r.land()
			if r.squash(); rd.err != nil || !r.verdicts() {
				break
			}
			if r.advance(ctx); rd.err != nil {
				break
			}
		}
		if rd.err != nil || rd.index == 0 || slot0() == round0 {
			t.Fatalf("error %v, %d rounds, slot 0 stepped %d in round 0 and %d in the last", rd.err, rd.index+1, round0, slot0())
		}
		if rd.steps != round0 {
			t.Fatalf("round 0's clock reads against %d iterations, slot 0 stepped %d in round 0", rd.steps, round0)
		}
	})
	t.Run("model", func(t *testing.T) {
		// The three DOALL structures of the benchmark, and the hosts the
		// rule has met, as seeded cost models (shapeModel). Each bound on
		// an invocation count is what the rule reached when this subtest
		// was written.
		const seeds = 8
		// What the rule reached when this subtest was written, on every
		// seed: the bounds a rule must meet.
		const (
			reachW2, reachW1 = 20, 17 // the first invocation at (W, 4) on the shuffled list, W = 2 and 1
			narrowAt         = 5      // the first invocation at width 1 on one processor
			shrink2, shrink1 = 2, 1   // invocations past the first after a shrink of the trip count that still run deeper than it allows
			dropIn           = 8      // sample-less invocations at depth 2 before depth 1
			backIn           = 52     // invocations from leaving (W, 4) on a transient to holding it again (the parent never left it)
		)
		noisy := func(rng *rand.Rand, x float64) float64 { return x * (0.95 + 0.1*rng.Float64()) }
		perSlot := func(n int64) func(int) int64 { return func(int) int64 { return n } }
		// pays is what depth d buys a shuffled list past L2: chains that
		// wait on memory side by side.
		pays := func(d int) float64 { return [...]float64{1: 1, 2: 1.6, 4: 2.4}[d] }
		// The contiguous list: the invoker steps it at 2 ns an iteration,
		// width 2 at about half that, and one round in 2 000 the host
		// holds up 40×.
		contiguous := func(w int) shapeModel {
			return shapeModel{w: w, procs: 2, perSlot: perSlot(100_000 / int64(w)), cost: func(rng *rand.Rand, inv int, s shapeAt) (float64, float64) {
				self := noisy(rng, 2)
				wall := self / float64(s.w)
				if inv%2000 == 1999 {
					return 40 * wall, 40 * self
				}
				return wall, self
			}}
		}
		// The shuffled list: 90 ns an iteration at depth 1, depth paying
		// 1.6× at 2 and 2.4× at 4, width 2 halving it less a 5 % hand-off.
		// The runner's first window runs alone and hot in cache (the
		// warm-up), a width-1 runner's samples alternate 35/65 around their
		// mean, and some windows hold three rounds the host held up 4×.
		shuffled := func(w int, slot func(int) int64) shapeModel {
			return shapeModel{w: w, procs: 2, perSlot: slot, cost: func(rng *rand.Rand, inv int, s shapeAt) (float64, float64) {
				self := noisy(rng, 90/pays(s.d))
				wall := self
				if s.w > 1 {
					wall *= 1.05 / float64(s.w)
				}
				k := 1.0
				switch {
				case inv < pairWindow:
					k = 0.6
				case inv%100 == 40, inv%100 == 43, inv%100 == 47:
					k = 4
				case w == 1 && inv%2 == 0:
					k = 35.0 / 50
				case w == 1:
					k = 65.0 / 50
				}
				return k * wall, k * self
			}}
		}
		t.Run("contiguous", func(t *testing.T) {
			for _, w := range []int{2, 1} {
				for seed := range int64(seeds) {
					if ran := contiguous(w).drive(seed, 10_000); share(ran, shapeAt{w, 1}) != 1 {
						t.Fatalf("w%d seed %d: left (%d, 1) in %.4f of the invocations", w, seed, w, 1-share(ran, shapeAt{w, 1}))
					}
				}
			}
		})
		t.Run("shuffled", func(t *testing.T) {
			for _, w := range []int{2, 1} {
				for seed := range int64(seeds) {
					ran := shuffled(w, perSlot(200_000/int64(w))).drive(seed, 6000)
					at, reach := slices.Index(ran, shapeAt{w, maxDepth}), map[int]int{2: reachW2, 1: reachW1}[w]
					kept, narrowed := share(ran[4000:], shapeAt{w, maxDepth}), w > 1 && longestAt(ran, 1) > pairWindow+1
					if at < 0 || at > reach+pairWindow || kept < 0.9 || narrowed {
						t.Fatalf("w%d seed %d: (%d, 4) first at %d (bound %d), in %.3f of the last 2000, longest stretch at width 1 %d",
							w, seed, w, at, reach+pairWindow, kept, longestAt(ran, 1))
					}
				}
			}
		})
		t.Run("one processor", func(t *testing.T) {
			for _, slow := range []bool{false, true} {
				m := shapeModel{w: 2, procs: 1, perSlot: perSlot(2*pairMinChunk + 1), cost: func(rng *rand.Rand, inv int, s shapeAt) (float64, float64) {
					if s.w > 1 {
						return 0, 0 // the invoker reclaims the slot its worker had no processor to run
					}
					if slow {
						x := noisy(rng, 300/pays(s.d))
						return x, x
					}
					x := noisy(rng, 3)
					return x, x
				}}
				for seed := range int64(seeds) {
					ran := m.drive(seed, 2000)
					at := slices.IndexFunc(ran, func(s shapeAt) bool { return s.w == 1 })
					if at < 0 || at > narrowAt || atWidth(ran[at:], 1) < 0.9 {
						t.Fatalf("slow %v seed %d: first at width 1 at %d (bound %d), at width 1 in %.3f after", slow, seed, at, narrowAt, atWidth(ran[at:], 1))
					}
					// A body that does not wait on memory never runs deeper,
					// at either width.
					if deep := slices.IndexFunc(ran, func(s shapeAt) bool { return s.d > 1 }); !slow && deep >= 0 {
						t.Fatalf("seed %d: a fast body ran %v at %d", seed, ran[deep], deep)
					}
				}
			}
		})
		t.Run("transient", func(t *testing.T) {
			// The host slows (W, 4) 3× for a majority of its window, and
			// the runner steps down; once the host recovers, the rechecks of
			// (W, 4) read it again and the runner climbs back.
			for seed := range int64(seeds) {
				m := shuffled(2, perSlot(100_000))
				cost := m.cost
				m.cost = func(rng *rand.Rand, inv int, s shapeAt) (float64, float64) {
					wall, self := cost(rng, inv, s)
					if inv >= 1000 && inv < 1000+pairWindow/2+1 && s == (shapeAt{2, maxDepth}) {
						wall, self = 3*wall, 3*self
					}
					return wall, self
				}
				ran := m.drive(seed, 3000)
				left := 1000 + slices.IndexFunc(ran[1000:], func(s shapeAt) bool { return s != shapeAt{2, maxDepth} })
				back := left + longestBefore(ran[left:], shapeAt{2, maxDepth}, pairWindow)
				if left < 1000 || ran[left-1] != (shapeAt{2, maxDepth}) || back-left > backIn || share(ran[2000:], shapeAt{2, maxDepth}) < 0.9 {
					t.Fatalf("seed %d: left (2, 4) at %d, held it again from %d (bound %d later), in %.3f of the last 1000",
						seed, left, back, backIn, share(ran[2000:], shapeAt{2, maxDepth}))
				}
			}
		})
		t.Run("W4 on 2 processors", func(t *testing.T) {
			m := shapeModel{w: 4, procs: 2, perSlot: perSlot(2*pairMinChunk + 1), cost: func(rng *rand.Rand, inv int, s shapeAt) (float64, float64) {
				x := noisy(rng, 3)
				return x / 2, x
			}}
			for seed := range int64(seeds) {
				if ran := m.drive(seed, 4000); share(ran, shapeAt{4, 1}) != 1 {
					t.Fatalf("seed %d: left (4, 1) in %.4f of the invocations", seed, 1-share(ran, shapeAt{4, 1}))
				}
			}
		})
		t.Run("short list", func(t *testing.T) {
			for seed := range int64(seeds) {
				short := shuffled(2, perSlot(2*pairMinChunk-1)).drive(seed, 2000)
				if i := slices.IndexFunc(short, func(s shapeAt) bool { return s.d > 1 }); i >= 0 {
					t.Fatalf("seed %d: depth %d at %d on a list too short for depth 2", seed, short[i].d, i)
				}
				shrinks := shuffled(2, func(inv int) int64 {
					switch {
					case inv < 500:
						return 100_000
					case inv < 600:
						return 2 * pairMinChunk
					}
					return pairMinChunk
				}).drive(seed, 700)
				to2 := slices.IndexFunc(shrinks[501:], func(s shapeAt) bool { return s.d <= 2 })
				to1 := slices.IndexFunc(shrinks[601:], func(s shapeAt) bool { return s.d == 1 })
				if shrinks[499].d != maxDepth || to2 < 0 || to2 > shrink2 || to1 < 0 || to1 > shrink1 {
					t.Fatalf("seed %d: depth %d before the shrinks, %d and %d invocations late", seed, shrinks[499].d, to2, to1)
				}
			}
		})
		t.Run("sample-less", func(t *testing.T) {
			for seed := range int64(seeds) {
				m := shuffled(2, perSlot(2*pairMinChunk))
				cost := m.cost
				m.cost = func(rng *rand.Rand, inv int, s shapeAt) (float64, float64) {
					wall, self := cost(rng, inv, s)
					if inv >= 500 && s.d > 1 {
						wall = 0
					}
					return wall, self
				}
				ran := m.drive(seed, 600)
				if at := slices.Index(ran[500:], shapeAt{2, 1}); ran[499] != (shapeAt{2, 2}) || at < 0 || at > dropIn {
					t.Fatalf("seed %d: depth %d before, depth 1 after %d sample-less invocations (bound %d)", seed, ran[499].d, at, dropIn)
				}
			}
		})
		t.Run("relinked", func(t *testing.T) {
			// The relinked list: the invoker steps it at 36 ns an iteration,
			// depth 2 and 4 pay 1.5× and 2× at width 1; width 2 lands its
			// split anywhere at depth 1 (0.28 to 9.9 of the invoker's own
			// cost), but at depth 4 it reads 0.58 to 0.77 of it.
			m := shapeModel{w: 2, procs: 2, perSlot: perSlot(50_000), cost: func(rng *rand.Rand, inv int, s shapeAt) (float64, float64) {
				self := noisy(rng, 36/[...]float64{1: 1, 2: 1.5, 4: 2}[s.d])
				gain := 1.0
				switch {
				case s.w == 1:
				case s.d == 1:
					gain = 0.28 * math.Exp(rng.Float64()*math.Log(9.9/0.28))
				case s.d == 2:
					gain = 0.6 + 0.25*rng.Float64()
				default:
					gain = 0.58 + 0.19*rng.Float64()
				}
				return gain * self, self
			}}
			for seed := range int64(seeds) {
				ran := m.drive(seed, 3000)
				if w2 := 1 - atWidth(ran[2000:], 1); w2 < 0.5 {
					t.Fatalf("seed %d: width 2 in %.3f of the last 1000", seed, w2)
				}
			}
		})
	})
}

// --- a cost model of the DOALL shapes ------------------------------------

// shapeAt is a DOALL runner's shape: its width and the chunks each slot
// steps.
type shapeAt struct{ w, d int }

// shapeModel is a seeded cost model of one structure on one host: what
// round 0 of each invocation reads at the shape the policy chose. The
// policy is fed as finish feeds it, from the model's figures alone, so a
// scenario runs thousands of invocations in microseconds with no clock.
type shapeModel struct {
	w, procs int                 // the runner's width, and the host's processors
	perSlot  func(inv int) int64 // the trip count per slot of the runner's width
	// cost is round 0's wall ns per committed iteration at s in
	// invocation inv (0: the round gives no figure, as when the invoker
	// reclaimed a slot) and the invoker's own ns per iteration.
	cost func(rng *rand.Rand, inv int, s shapeAt) (wall, self float64)
}

// drive runs n invocations of m on p from seed and returns the shape
// each ran at. An invocation's round 0 runs at the depth chosen, except
// the first one at a finer depth: it finds only the coarser depth's rows
// memoized and runs that depth's layout. A round with more slots than
// processors is not clean, and its invoker's clock is no one's cost.
func (m shapeModel) drive(seed int64, n int) []shapeAt {
	p := &pairing{wide: m.w > 1}
	p.reset()
	rng := rand.New(rand.NewSource(seed))
	ran := make([]shapeAt, n)
	prev := 1
	for inv := range n {
		s := shapeAt{m.w, p.depth()}
		if p.one() {
			s.w = 1
		}
		ran[inv] = s
		rung := min(s.d, prev)
		prev = s.d
		wall, self := m.cost(rng, inv, shapeAt{s.w, rung})
		switch {
		case m.procs == 1 && s.w > 1:
			wall, self = math.Inf(1), 0 // the slots take turns on one processor
		case s.w > m.procs || wall == 0:
			self = 0 // not clean
		}
		p.observe(wall, rung, self, m.perSlot(inv))
	}
	return ran
}

// narrowed reports whether p holds a width-1 shape.
func narrowed(p *pairing) bool { return p.cur < 3 }

// narrow makes p hold and run (1, 1), as a width that did not pay
// leaves it: (W, 1)'s window read +Inf.
func narrow(p *pairing) {
	p.cur, p.run = 0, 0
	for range pairWindow {
		p.at[3].add(math.Inf(1))
	}
}

// share is the share of the invocations of ran that ran at s.
func share(ran []shapeAt, s shapeAt) float64 {
	n := 0
	for _, r := range ran {
		if r == s {
			n++
		}
	}
	return float64(n) / float64(len(ran))
}

// atWidth is the share of the invocations of ran that ran at width w.
func atWidth(ran []shapeAt, w int) float64 {
	n := 0
	for _, r := range ran {
		if r.w == w {
			n++
		}
	}
	return float64(n) / float64(len(ran))
}

// longestBefore is the index in ran of the first run of n invocations
// in a row at s (len(ran): none).
func longestBefore(ran []shapeAt, s shapeAt, n int) int {
	for i, k := 0, 0; i < len(ran); i++ {
		if k = k + 1; ran[i] != s {
			k = 0
		}
		if k == n {
			return i + 1 - n
		}
	}
	return len(ran)
}

// longestAt is the longest run of consecutive invocations of ran at
// width w.
func longestAt(ran []shapeAt, w int) int {
	most := 0
	for i := 0; i < len(ran); i++ {
		j := i
		for j < len(ran) && ran[j].w == w {
			j++
		}
		most, i = max(most, j-i), j
	}
	return most
}
