package spice

import (
	"fmt"
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

// TestPairingPolicy holds the depth policy to its rule (adaptive.go):
// depth 2 is tried only after a window of clean depth-1 rounds 0 in
// each of which chunk 0 ran at pairMinNs or slower per iteration, as
// depth 1's rounds did, over chunks long enough to halve; a rung is kept
// while it beats the rung below by pairGain, climbs to the next after a
// window of such samples while the trip count allows it, rereads the
// rung below at once when it loses and steps down a rung only if it
// loses to that fresh figure too, steps down after a window of
// invocations in a row that gave no sample of it, or when the trip
// count no longer allows it, and after a step down from a rung that
// never paid climbs again only pairBackoff invocations later; every
// pairRecheck invocations one runs a rung down; a round the host held
// up moves no rung's cost. On a runner, a change of depth changes which rows of its
// one grid it uses, and a body that burns time per node is found and
// paired by the derived rule itself. A round the confidence gate thinned
// is a sample of the rung it ran. Width is a rung: a runner whose
// width-W rounds do not beat the invoker's own pace narrows to width 1,
// rechecks W on the recheck schedule and widens when W pays again.
func TestPairingPolicy(t *testing.T) {
	const slow, long = 2 * pairMinNs, pairMinChunk
	const two, deep = 2 * long, maxDepth * long // trip counts per slot that allow depth 2, and maxDepth
	t.Run("rule", func(t *testing.T) {
		// slowRounds feeds n clean, slow, long depth-1 rounds and reports
		// whether one of them tried depth 2.
		slowRounds := func(p *pairing, n int) (tried bool) {
			for range n {
				tried = p.observe(100, 1, 1, true, slow, two) || tried
			}
			return tried
		}
		p := pairing{top: 1, depth: 1}
		if slowRounds(&p, pairWindow-1) || p.depth != 1 {
			t.Fatal("tried depth 2 before a window of clean rounds")
		}
		for _, no := range []struct {
			clean   bool
			chunk0  float64
			perSlot int64
		}{{false, slow, two}, {true, pairMinNs / 2, two}, {true, slow, two - 1}} {
			q := p
			if q.observe(100, 1, 1, no.clean, no.chunk0, no.perSlot) || q.depth != 1 {
				t.Fatalf("%+v tried depth 2", no)
			}
		}
		// A round the host held up 40× on a runner whose rounds take 1 ns
		// an iteration is not a traversal that waits on memory; nor is a
		// window in which chunk 0 read fast once, as on a runner wider
		// than the host whose chunk 0 its own workers preempt in most
		// rounds but not all.
		fast := pairing{top: 1, depth: 1}
		for range pairWindow {
			fast.observe(1, 1, 1, true, 2, two)
		}
		if fast.observe(40, 1, 1, true, 80, two) {
			t.Fatal("one held-up round after fast rounds tried depth 2")
		}
		preempted := pairing{top: 1, depth: 1}
		preempted.observe(100, 1, 1, true, 2, two)
		if slowRounds(&preempted, pairWindow-1) {
			t.Fatal("a window with one fast chunk 0 tried depth 2")
		}
		if !slowRounds(&p, 1) || p.depth != 2 {
			t.Fatal("a window of clean, slow, long rounds did not try depth 2")
		}
		// Paired rounds at 60 % of depth 1's cost keep it, held-up ones
		// among them too; once the window holds only rounds at depth 1's
		// cost, it loses, the next invocation rereads depth 1, and depth 2
		// drops when it loses to that fresh figure too. It had paid, so
		// the next clean, slow round tries it again. The trip count allows
		// no deeper rung.
		if p.observe(60, 2, 1, true, 0, two) || p.observe(4000, 2, 1, true, 0, two) || p.top != 2 {
			t.Fatal("a paying paired round dropped depth 2")
		}
		// lose feeds rounds at depth 1's cost at depth 2 until one loses,
		// then the recheck and one more round at depth 1's cost, and
		// returns the rounds it took to lose.
		lose := func() (rounds int) {
			for p.depth == 2 && rounds < 2*pairWindow {
				p.observe(100, 2, 1, true, 0, two)
				rounds++
			}
			if p.top != 2 || p.depth != 1 {
				t.Fatalf("top %d depth %d after %d rounds at depth 1's cost", p.top, p.depth, rounds)
			}
			if !p.observe(100, 1, 1, true, slow, two) || p.depth != 2 {
				t.Fatalf("depth %d after the recheck", p.depth)
			}
			if !p.observe(100, 2, 1, true, 0, two) || p.depth != 1 {
				t.Fatalf("depth %d after depth 2 lost to a fresh depth 1", p.depth)
			}
			return rounds
		}
		if rounds := lose(); rounds != pairWindow-1 || p.wait != 0 {
			t.Fatalf("wait %d after %d rounds: a rung that paid backed off", p.wait, rounds)
		}
		if !slowRounds(&p, 1) || p.depth != 2 {
			t.Fatal("did not try again at once after a rung that paid lost")
		}
		// Tried again, it never pays: it loses at its first judgement and
		// backs off.
		if rounds := lose(); rounds != pairWindow || p.wait != pairBackoff {
			t.Fatalf("wait %d after %d rounds: a rung that never paid", p.wait, rounds)
		}
		for i := 1; i < pairBackoff; i++ {
			if slowRounds(&p, 1) {
				t.Fatalf("tried again %d invocations after the drop", i)
			}
		}
		if !slowRounds(&p, 1) {
			t.Fatal("did not try again after the backoff")
		}
		// Invocations at depth 2 that give no sample of it (the invoker
		// reclaimed a slot, or the rows left one chunk a slot) are no
		// evidence that pairing pays: a window of them in a row drops it,
		// and a paired sample restarts the count. A depth-1 layout's
		// sample is depth 1's.
		noSample := func(i int) bool {
			if i%2 == 0 {
				return p.observe(100, 1, 1, true, 0, two)
			}
			return p.observe(0, 2, 1, false, 0, two)
		}
		for range 2 {
			for i := 1; i < pairWindow; i++ {
				if noSample(i) {
					t.Fatalf("dropped after %d sample-less invocations", i)
				}
			}
			if p.observe(60, 2, 1, true, 0, two) || p.top != 2 {
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
	t.Run("ladder", func(t *testing.T) {
		// Each rung that beats the one below by pairGain for a window of
		// samples climbs to the next, up to maxDepth.
		p := pairing{top: 1, depth: 1}
		for range pairWindow {
			p.observe(100, 1, 1, true, slow, deep)
		}
		for _, rung := range []struct {
			d    int
			cost float64
		}{{2, 60}, {4, 40}} {
			if p.top != rung.d {
				t.Fatalf("at depth %d, want %d", p.top, rung.d)
			}
			for i := 1; i <= pairWindow; i++ {
				if p.observe(rung.cost, rung.d, 1, true, 0, deep) != (i == pairWindow && rung.d < maxDepth) {
					t.Fatalf("depth %d sample %d moved the depth to %d", rung.d, i, p.depth)
				}
			}
		}
		// Every pairRecheck invocations one runs a rung down, and the next
		// is back at the top.
		for i := pairWindow + 1; i < pairRecheck; i++ {
			if p.observe(40, 4, 1, true, 0, deep) {
				t.Fatalf("depth %d after %d invocations at depth 4", p.depth, i)
			}
		}
		if !p.observe(40, 4, 1, true, 0, deep) || p.top != 4 || p.depth != 2 {
			t.Fatalf("top %d depth %d after %d invocations at depth 4", p.top, p.depth, pairRecheck)
		}
		// The recheck reads depth 2 at 30 now, and depth 4's 40 no longer
		// beats it. That one low read may be the host's doing, so depth 4
		// is doubted: depth 2 is read afresh at once, at 60, and depth 4
		// stays.
		if !p.observe(30, 2, 1, true, 0, deep) || p.depth != 4 {
			t.Fatalf("depth %d after the recheck", p.depth)
		}
		if !p.observe(40, 4, 1, true, 0, deep) || p.top != 4 || p.depth != 2 {
			t.Fatalf("top %d depth %d after depth 4 lost to depth 2's figure", p.top, p.depth)
		}
		if !p.observe(60, 2, 1, true, 0, deep) || p.observe(40, 4, 1, true, 0, deep) || p.top != 4 {
			t.Fatalf("top %d after depth 4 beat a fresh depth 2", p.top)
		}
		// Once a window of depth 4 reads 70 it loses again, and it loses
		// to the fresh depth 2 as well: the runner steps down to 2, with
		// no backoff, since depth 4 had paid.
		n := 0
		for p.depth == 4 && n < 2*pairWindow {
			p.observe(70, 4, 1, true, 0, deep)
			n++
		}
		if p.top != 4 || p.depth != 2 || n != pairWindow {
			t.Fatalf("top %d depth %d after %d invocations at 70", p.top, p.depth, n)
		}
		if !p.observe(60, 2, 1, true, 0, deep) || !p.observe(70, 4, 1, true, 0, deep) || p.top != 2 || p.depth != 2 || p.wait != 0 {
			t.Fatalf("top %d depth %d wait %d after depth 4 lost to a fresh depth 2", p.top, p.depth, p.wait)
		}
		// A trip count that no longer keeps pairMinChunk iterations a chunk
		// at depth 2 steps down.
		if !p.observe(30, 2, 1, true, 0, long) || p.top != 1 {
			t.Fatalf("top %d on a trip count that allows depth 1 only", p.top)
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
			r.pairing.forced, r.pairing.top, r.pairing.depth = d, d, d
			r.pred.stride = r.pred.parts / (r.cfg.Threads * r.pairing.depth)
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
			one, before := r.pairing.one, r.Stats().PairedRounds
			if g.exact(t, r); !one {
				wide += r.Stats().PairedRounds - before
			}
		}
		switch st := r.Stats(); {
		case st.PairedRounds == 0 && runtime.GOMAXPROCS(0) > 1 && !raceEnabled:
			t.Fatalf("a slow body was never paired: %s", statsLine(st))
		case wide != 0 && runtime.GOMAXPROCS(0) == 1:
			t.Fatalf("paired two slots on one processor: %s", statsLine(st))
		case !r.pairing.narrow && runtime.GOMAXPROCS(0) == 1:
			t.Fatalf("crowded rounds did not narrow: %s", statsLine(st))
		}
		t.Log(statsLine(r.Stats()))
		checkConservation(t, r.Stats(), 2, 0)
	})
	t.Run("oversubscribed", func(t *testing.T) {
		// On one processor the slots of a width-2 round take turns, so once
		// the trip count is long enough to time, each round counts as a
		// width sample that does not pay, and a window's majority narrows
		// the runner to the invoker alone. (Such a round used to give no
		// sample, so a width-2 runner kept dispatching a chunk its invoker
		// then ran itself.) On two processors a width-4 round still runs a
		// slot beside the invoker: it gives no sample, and the runner keeps
		// its width.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		for _, c := range []struct {
			procs, threads int
			narrow         bool
		}{{1, 2, true}, {2, 4, false}} {
			runtime.GOMAXPROCS(c.procs)
			g := testList(2*pairMinChunk*c.threads+c.threads, 11)
			r := newRunner(t, plainLoop(), Config{Threads: c.threads})
			for inv := 0; inv < 2*pairWindow && !r.pairing.narrow; inv++ {
				g.exact(t, r)
			}
			if st := r.Stats(); r.pairing.narrow != c.narrow || (st.EffectiveThreads == 1) != c.narrow {
				t.Fatalf("GOMAXPROCS %d, Threads %d: narrow %v: %s", c.procs, c.threads, r.pairing.narrow, statsLine(st))
			}
		}
	})
	t.Run("gated", func(t *testing.T) {
		// A round the gate thinned counts as the rung its busiest slot
		// ran: at depth 2 on 2 slots, a closed row leaves 3 chunks, 2 of
		// them on slot 0, and the round is a sample of depth 2. It used to
		// be no rung's, so a gated runner at depth 2 starved for a window,
		// dropped, backed off pairBackoff invocations and climbed again.
		g := testList(3000, 5)
		r := newRunner(t, plainLoop(), Config{Threads: 2, Options: Options{Adaptive: true}})
		depth2 := func() {
			r.pairing.top, r.pairing.depth = 2, 2
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
		p := pairing{top: 2, depth: 2}
		for i := range 4 * pairWindow {
			if p.observe(30, rung, 2, true, 0, two); p.top != 2 || p.dry != 0 {
				t.Fatalf("top %d dry %d after %d gated rounds at depth 2", p.top, p.dry, i+1)
			}
		}
	})
	t.Run("width", func(t *testing.T) {
		// wide feeds n rounds at width 2 and depth 2 whose wall ns per
		// committed iteration is gain times the invoker's own: 0.5 where
		// the slots split the work evenly, 1 where the invoker walks it.
		wide := func(p *pairing, n int, gain float64) {
			for range n {
				p.observe(gain*slow, 2, 2, true, slow, two)
			}
		}
		// Width that pays never narrows, three held-up rounds in every
		// window of eight included: the median, not the mean.
		p := pairing{top: 2, depth: 2}
		for range 4 * pairRecheck {
			if wide(&p, 5, 0.5); p.narrow {
				t.Fatal("narrowed on paying rounds")
			}
			if wide(&p, 3, 4); p.narrow {
				t.Fatal("narrowed on three held-up rounds in a window")
			}
		}
		// Width that does not pay narrows to (1, 2) once the median of
		// the last pairWindow rounds reads pairGain or more (a majority
		// of them does), and the next invocation runs there.
		p = pairing{top: 2, depth: 2}
		if wide(&p, pairWindow/2, 1); p.narrow {
			t.Fatal("narrowed on half a window")
		}
		if wide(&p, 1, 1); !p.narrow || !p.one || p.top != 2 || p.depth != 2 {
			t.Fatalf("narrow %v one %v top %d depth %d after a window at the invoker's pace", p.narrow, p.one, p.top, p.depth)
		}
		// Narrowed, it runs width 2 again once every pairRecheck
		// invocations. A recheck that does not pay leaves it narrowed, and
		// so does a window split evenly; it widens at the recheck that
		// gives the window a paying median.
		for i, gain := range []float64{1, 0.5, 0.5, 0.5, 0.5, 0.5} {
			n := 0
			for ; p.one && n <= pairRecheck; n++ {
				p.observe(30, 2, 1, true, 30, two)
			}
			if n != pairRecheck || p.depth != 2 {
				t.Fatalf("recheck %d after %d narrowed invocations, at depth %d", i, n, p.depth)
			}
			if wide(&p, 1, gain); p.narrow == (i == 5) || p.one != p.narrow {
				t.Fatalf("recheck %d at gain %.1f: narrow %v one %v", i, gain, p.narrow, p.one)
			}
		}
		// On a runner: narrowed, an invocation runs on the invoker alone,
		// memoizes the grid's rows for the recheck, and the gauge reads 1.
		// The recheck runs width 2; once it pays, the runner widens and
		// the gauge reads 2. The list is too short for depth 2, so the
		// rechecks keep their schedule however slow the host.
		g := testList(12_000, 9)
		r := newRunner(t, plainLoop(), Config{Threads: 2, Options: Options{Adaptive: true}})
		g.warm(t, r, 3)
		r.pairing.setWidth(true)
		before := r.Stats()
		g.exact(t, r)
		if st := r.Stats().Delta(before); st.EffectiveThreads != 1 || st.Hits+st.Misses != 0 || busy(st.LastWorks) != 1 || !r.pred.rows[7].valid {
			t.Fatalf("narrowed: %s, row 7 valid %v", statsLine(st), r.pred.rows[7].valid)
		}
		for range pairWindow {
			r.pairing.gain.add(0.5)
		}
		for n := 0; r.pairing.one; n++ {
			if n == pairRecheck {
				t.Fatalf("no recheck after %d narrowed invocations", n)
			}
			g.exact(t, r)
		}
		before = r.Stats()
		g.exact(t, r)
		if st := r.Stats().Delta(before); st.EffectiveThreads != 2 || st.Hits != 1 || busy(st.LastWorks) != 2 || r.pairing.narrow {
			t.Fatalf("the recheck that paid: %s, narrow %v", statsLine(st), r.pairing.narrow)
		}
		// A Pool session move resets the shape: the next session on the
		// same runner starts wide.
		pool := newPool(t, plainLoop(), Config{Threads: 2})
		s := openSession(t, pool, 0)
		moved := s.r
		moved.pairing.setWidth(true)
		g.exact(t, s)
		if st := s.Stats(); st.EffectiveThreads != 1 {
			t.Fatalf("narrowed session: %s", statsLine(st))
		}
		s.Close()
		if s = openSession(t, pool, 0); s.r != moved || s.r.pairing.narrow || s.r.pairing.one || s.Stats().EffectiveThreads != 2 {
			t.Fatalf("the next session: same runner %v, narrow %v, gauge %d", s.r == moved, s.r.pairing.narrow, s.Stats().EffectiveThreads)
		}
	})
}
