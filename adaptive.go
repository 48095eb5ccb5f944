package spice

import (
	"math"
	"math/bits"
)

// This file is the adaptive speculation policy (Options.Adaptive): a
// confidence gate over the SVA rows, the paper's second insight (a
// prediction is judged by whether its start turns up in the traversal)
// applied row by row.
//
// The gate is one record, specController, with two parts:
//
//   - a score per row, its recent prediction record, an EWMA of its
//     chunks' outcomes: a commit pulls it up; a squash, or a
//     read/write-set conflict of the chunk it starts, pulls it down. A
//     row below the floor is not speculated on: its chunk is folded
//     into the predecessor's instead of being dispatched and squashed,
//     and when the gate closes every row the invocation runs as a round
//     of one, the sequential fallback.
//   - the probe clock: after probeInterval invocations the gate
//     narrowed, one invocation bypasses it under a tightened cap
//     (probeSpecCap), so a closed row whose prediction holds again
//     earns its confidence back, and one that still misses costs a
//     bounded amount of wasted work. A probe that meets a read/write-set
//     conflict doubles the wait before the next one, once per probe (up
//     to maxProbeInterval); a hit restores it.
//
// The gate sets no width besides the rows: speculation goes where each
// row's own record says it pays (Garmon et al.). The record is plain
// scalar state: no allocation after construction, so the native
// runtime's steady-state 0 allocs/op contract holds with the gate on.
//
// The file also holds the shape policy (pairing), which decides how
// many chunks a DOALL runner's dispatch slot carries and, on a runner of
// width 2 or more, whether its rounds use that width or the invoker's
// slot alone. It is not part of Options.Adaptive: it runs whether the
// gate is on or off. A runner it narrows to width 1 consults no gate:
// it has no width left for the gate to close.

const (
	// specConfAlpha weighs the newest chunk outcome into a row's
	// confidence score. 0.5 gates a row after three consecutive
	// squashes from full confidence.
	specConfAlpha = 0.5
	// specConfInit is the neutral confidence a fresh row starts from —
	// above the floor, so new predictions get to prove themselves.
	specConfInit = 0.5

	// defaultMinConfidence is the per-row confidence floor of adaptive
	// mode: rows scoring below it are not speculated on (outside probes).
	defaultMinConfidence = 0.25
	// defaultProbeInterval is the number of invocations the gate narrows
	// before one probes every row.
	defaultProbeInterval = 8
	// maxProbeInterval caps the wait a probe's conflicts double (Conflict).
	maxProbeInterval = 256
)

// specController is the gate of an adaptive runner, one record: each
// SVA row's confidence score and the probe clock that re-tests the rows
// it closed. A row's score is an EWMA over the outcomes of the
// speculative chunks dispatched from its prediction: commit (hit) pulls
// it toward 1, squash (miss) or conflict toward 0; the gate
// (Runner.admitRow) admits a row at or above the floor. Drive it with
// Begin before each invocation and count an invocation whose round 0
// the gate narrowed in narrowed. Not safe for concurrent use; confine
// it to the owner's invocation cycle.
type specController struct {
	score         []float64 // per SVA row, in [0, 1]
	probeInterval int64
	interval      int64 // narrowed invocations before the next probe: probeInterval, or more after conflicts
	narrowed      int64 // invocations the gate narrowed since the last probe
	conflicted    bool  // the last probe met a conflict: the next Begin doubles interval
}

// newSpecController builds a controller with a neutral confidence score
// for each of the rows SVA rows of the runner's grid. probeInterval <= 0
// selects defaultProbeInterval.
func newSpecController(rows int, probeInterval int64) *specController {
	if probeInterval <= 0 {
		probeInterval = defaultProbeInterval
	}
	c := &specController{score: make([]float64, rows), probeInterval: probeInterval}
	c.Reset()
	return c
}

// Reset restores the initial state: every row's confidence neutral and
// the probe clock at zero. Pools reset the controller when a runner
// moves between sessions, so one caller's hostile structure cannot
// poison another's speculation.
func (c *specController) Reset() {
	c.narrowed, c.interval, c.conflicted = 0, c.probeInterval, false
	for i := range c.score {
		c.score[i] = specConfInit
	}
}

// Hit records a committed speculative chunk for row. A prediction that
// holds restores the probe wait.
func (c *specController) Hit(row int) {
	c.score[row] += specConfAlpha * (1 - c.score[row])
	c.interval = c.probeInterval
}

// Miss records a squashed speculative chunk for row.
func (c *specController) Miss(row int) { c.score[row] -= specConfAlpha * c.score[row] }

// Conflict records a read/write-set conflict of the chunk row starts: a
// Miss, and on a probe the wait before the next probe doubles, up to
// maxProbeInterval, once per probe however many of its chunks conflict.
// It doubles at the next Begin, so the probe's own hits (which restore
// the wait) cannot undo it. A probe that meets a conflict again would
// only pay the same squash again at the same rate (Garmon et al.: a
// speculative resource goes only where it pays).
func (c *specController) Conflict(row int, probe bool) {
	c.Miss(row)
	c.conflicted = c.conflicted || probe
}

// Admit reports whether row clears the confidence floor.
func (c *specController) Admit(row int) bool { return c.score[row] >= defaultMinConfidence }

// Begin reports whether the upcoming invocation is a probe: the caller
// bypasses the confidence gate, so closed rows can earn their
// confidence back, and tightens the runaway-speculation cap, so a
// failed probe costs a bounded amount of wasted work. The clock
// restarts here, not when the probe's verdicts are in: a probe whose
// invocation fails has none, and it must not fire again at once.
func (c *specController) Begin() bool {
	if c.conflicted {
		c.interval, c.conflicted = min(2*c.interval, maxProbeInterval), false
	}
	if c.narrowed < c.interval {
		return false
	}
	c.narrowed = 0
	return true
}

// probeSpecCap tightens a speculative iteration cap for a probe
// invocation: a probe chunk is expected to cover about total/chunks
// iterations, so capping at twice that (plus slack for small loops)
// bounds the work a failed probe can waste while never capping a
// healthy probe chunk early.
func probeSpecCap(cap64, total int64, chunks int) int64 {
	if total <= 0 || chunks < 1 {
		return cap64
	}
	c := 2*total/int64(chunks) + 256
	if c < cap64 {
		return c
	}
	return cap64
}

const (
	// maxDepth is the most chunks a dispatch slot carries: the ladder's
	// top rung, and the finest grid a derived runner plans on.
	maxDepth = 4
	// pairMinNs is the cost per iteration, in ns, of chunk 0 alone at or
	// above which a traversal is taken to wait on memory: a contiguous
	// list reads 1-3 ns, a closure body 6-8, a list linked in shuffled
	// order past L2 about 90.
	pairMinNs = 20
	// pairMinChunk is the fewest iterations of the last trip count each
	// chunk of a rung must keep, so a chunk still spans several polls:
	// the deepest rung allowed is the deepest that keeps it.
	pairMinChunk = 4 * ctxPollEvery
	// pairGain is what a rung must beat the rung below by: its wall time
	// per committed iteration at most this share of the one below's.
	pairGain = 0.9
	// pairBackoff is the number of invocations a runner that stepped down
	// from a rung that never paid waits before it climbs again.
	pairBackoff = 64
	// pairWindow is how many recent samples a figure is the lowest of:
	// the clean rounds depth 2 waits for, the samples a rung gives before
	// the next is tried, and the sample-less invocations that step down.
	pairWindow = 8
	// pairRecheck is how many invocations a runner above depth 1 runs
	// between two that run one rung down, so the figure its rung is
	// compared with stays fresh.
	pairRecheck = 32
)

// pairing is the shape policy of a DOALL runner: how many chunks of the
// validation chain a dispatch slot carries, on a ladder of rungs 1, 2
// and 4 (scheduler.go), and, on a runner of width W ≥ 2, whether a round
// uses its W slots or the invoker's alone. A slot at depth D steps its D
// chunks in lockstep (blockGroup), so a core that waits on a cache miss
// in one chain has the other chains' misses in flight beside it; at
// width 1 the one slot is the invoker's, so D chunks of the traversal
// run there with no executor at all. That pays only when the traversal
// is memory-bound, so each rung is tried on evidence and kept only while
// it pays — Garmon et al.'s rule for a speculative resource:
//
//   - a clean round 0 at depth 1 (nothing reclaimed, squashed or capped,
//     and no more slots than the host has processors, or chunk 0's clock
//     counts the time it waited for one; a width-1 round is one slot on
//     one processor) tries depth 2 once pairWindow clean rounds have been
//     seen, if chunk 0's cost per iteration read at least pairMinNs in
//     each of the last pairWindow, depth 1's cost times the slots (a
//     chain's cost per iteration) reads pairMinNs too, and depth 2 is
//     allowed;
//   - a rung is judged once it has given pairWindow samples: it stays
//     while its cost is within pairGain of the rung below's, and climbs
//     to the next, if that is allowed. A rung that loses is first
//     doubted, not dropped: the rung below's figure may predate the
//     host's present state (a warm-up that ran alone and hot in cache, a
//     neighbour that slowed the rung's last window), so that figure is
//     forgotten and the next invocation reads it afresh (a recheck now).
//     If the rung loses to the fresh figure too, or after pairWindow
//     invocations in a row that gave no sample of the rung (no evidence
//     that it pays), the runner steps down a rung. It waits pairBackoff
//     invocations before it climbs again, unless the rung had beaten the
//     rung below since it was reached: a rung that paid and then lost a
//     stretch the host slowed is judged again as soon as the rung below
//     has been;
//   - a rung is allowed while each of its Threads·D chunks keeps
//     pairMinChunk iterations of the last trip count; a runner above the
//     deepest rung allowed steps down;
//   - every pairRecheck invocations above depth 1, one runs a rung down,
//     so the rung below's figure is fresh when the two are compared.
//
// Width is a rung too. Each width-W round with a processor per slot,
// pairMinChunk iterations of the last trip count per slot, and an
// invoker that read at least pairMinNs an iteration gives a gain: the
// round's wall ns per committed iteration over the invoker's own ns per
// iteration stepped (1/W where the slots split the work evenly, 1 or
// more where the invoker ends up walking the traversal, or waiting for
// a slot that did). Once the median of the last pairWindow gains is at
// or above pairGain (both middle samples: a majority of the window),
// the runner narrows: it runs (1, D), D chunks of its own grid in
// lockstep on the invoker, a chain of every W-th row, with no executor,
// lease or gate, and climbs and drops rungs on width-1 figures of their
// own. Every pairRecheck invocations it runs one round at (W, D) instead
// (a width recheck), and it widens when the median gain, with that
// round's in it, is below pairGain (again a majority); a window split
// evenly keeps the width it has. The median, not the lowest: a relinked
// structure lands its split anywhere, so a width's rounds range from
// balanced to serial on the structure alone, and the lowest would
// compare best cases; and a round's own two clocks share whatever the
// host did to it, so a slow stretch of the host moves the gain little.
// On a host of one processor a width-W round gives a gain of 1 without
// a clock (finish), once the trip count is long enough to be timed: its
// slots take turns on the processor, so the runner narrows and climbs on
// the invoker alone. A round with more slots than processors on a wider
// host gives no gain: some of its slots do run beside the invoker.
//
// A sample goes to the rung its round ran at: the chunks its busiest
// slot carried, rounded up to a rung. The first invocation after a climb
// finds only the coarser rung's rows valid and runs that rung's layout;
// so does the one after a recheck; a round the confidence gate thinned
// counts as the rung it thinned. Every depth figure is the lowest of
// the last pairWindow samples (lows), not an average: a round the host
// held up only adds time. On a shared 2-vCPU guest one round in a few
// thousand read 40× the others — enough to lift an EWMA over the trigger
// on a 1 ns/iteration list, and then keep a rung against that stale
// figure. Every figure comes from the clock reads the scheduler takes
// anyway. Confined to the runner's invocation cycle, like the predictor.
type pairing struct {
	forced int        // Config.depth, or 1 for a runner that cannot step chains together: the depth, pinned (0: derived)
	top    int        // the rung climbed to
	depth  int        // the depth the next invocation runs at: top, or top/2 on a recheck
	narrow bool       // width did not pay: the runner runs (1, top)
	one    bool       // the next invocation runs at width 1: narrow, but not on a width recheck
	at     [2][3]lows // round 0's wall ns per committed iteration at depths 1, 2 and 4 (index log2), at width W and narrowed to 1
	c0     lows       // chunk 0's own ns per iteration in clean depth-1 rounds
	gain   lows       // width-W rounds' wall per committed iteration over the invoker's own per iteration
	since  int        // samples of top since the runner reached it
	dry    int        // invocations in a row above depth 1 that gave no sample of top
	wait   int        // invocations left before the runner may climb again
	due    int        // invocations left before the next recheck: of depth above depth 1, of width while narrowed
	doubt  bool       // top lost a comparison: the rung below's figure holds only samples since
	paid   bool       // top has beaten the rung below since the runner reached it
}

// reset forgets every measurement and returns to the pinned depth, or
// to depth 1, at full width.
func (p *pairing) reset() {
	d := max(p.forced, 1)
	*p = pairing{forced: p.forced, top: d, depth: d}
}

// observe takes one successful invocation's round 0 and returns whether
// the shape of the next invocation differs from this one's. A pinned
// depth (forced) is never observed. perIter is round 0's wall ns per
// committed iteration (0: no sample — a round of one on a runner of
// width 2 or more reads no clock, and a round whose invoker reclaimed a
// slot measures a late worker and not the shape); rung, the chunks its
// busiest slot carried; slots, its slot count; clean, whether nothing
// was reclaimed, squashed or capped; self, the invoker's own ns per
// iteration its slot stepped (0: more slots than processors); perSlot,
// the trip count per slot of the runner's width.
func (p *pairing) observe(perIter float64, rung, slots int, clean bool, self float64, perSlot int64) bool {
	was, wasOne := p.depth, p.one
	p.depth, p.one = p.top, p.narrow
	if p.wait > 0 {
		p.wait--
	}
	k := bits.Len(uint(rung - 1)) // the rung the round ran at
	if perIter > 0 {
		p.at[b2i(wasOne)][k].add(perIter)
		if slots > 1 && self >= pairMinNs && perSlot >= pairMinChunk {
			p.gain.add(perIter / self)
		}
	}
	under, over := p.gain.split(pairGain)
	switch {
	case p.narrow && !wasOne:
		// A width recheck: W's gain is all it tells.
		if under > pairWindow/2 {
			p.setWidth(false)
		}
	case !p.narrow && over > pairWindow/2:
		p.setWidth(true)
	default:
		p.ladder(perIter > 0, k, slots, clean, self, perSlot)
		if p.narrow && p.due <= 0 && p.depth == p.top {
			p.one, p.due = false, pairRecheck
		}
	}
	return p.depth != was || p.one != wasOne
}

// ladder is observe's depth step at the width the round ran at: sampled
// says the round gave a sample, of rung index k.
func (p *pairing) ladder(sampled bool, k, slots int, clean bool, self float64, perSlot int64) {
	at := &p.at[b2i(p.narrow)]
	deepest := 1
	for deepest < maxDepth && perSlot/int64(2*deepest) >= pairMinChunk {
		deepest *= 2
	}
	if p.narrow || p.top > 1 {
		p.due--
	}
	if p.top == 1 {
		if sampled && clean {
			p.c0.add(self)
			if p.wait == 0 && deepest > 1 && p.c0.n >= pairWindow && p.c0.low() >= pairMinNs && at[0].low()*float64(slots) >= pairMinNs {
				p.climb()
			}
		}
		return
	}
	if !p.narrow && p.due <= 0 {
		p.depth, p.due = p.top/2, pairRecheck
	}
	r := bits.TrailingZeros(uint(p.top))
	switch {
	case sampled && k == r:
		p.dry, p.since = 0, p.since+1
		switch {
		case p.top > deepest:
			p.down(r)
		case p.since < pairWindow, p.doubt && at[r-1].n == 0:
			// Too few samples of the rung, or none of the recheck yet.
		case at[r].low() <= pairGain*at[r-1].low():
			p.doubt, p.paid = false, true
			if p.wait == 0 && p.top < deepest {
				p.climb()
			}
		case p.doubt:
			p.down(r)
		default:
			// The rung lost to a figure that may predate the host's
			// present state: read the rung below afresh now.
			p.doubt, at[r-1] = true, lows{}
			p.depth, p.due = p.top/2, pairRecheck
		}
	case p.dry+1 >= pairWindow:
		p.down(r)
	default:
		p.dry++
	}
}

// timed reports whether round 0 of a width-1 runner, or of a narrowed
// one, reads the clock for the policy: while the depth is derived and
// above 1, or perSlot, the last trip count, would allow depth 2.
func (p *pairing) timed(perSlot int64) bool {
	return p.forced == 0 && (p.top > 1 || perSlot >= 2*pairMinChunk)
}

// climb moves the ladder one rung up.
func (p *pairing) climb() {
	p.top *= 2
	p.restart()
}

// down moves the ladder from rung r one rung down and forgets rung r's
// figure; it backs off unless rung r had paid.
func (p *pairing) down(r int) {
	p.at[b2i(p.narrow)][r] = lows{}
	p.top /= 2
	if !p.paid {
		p.wait = pairBackoff
	}
	p.restart()
}

// setWidth narrows the runner to width 1 or widens it back, at the rung
// it is on, which is judged afresh at the new width.
func (p *pairing) setWidth(narrow bool) {
	p.narrow, p.one = narrow, narrow
	p.restart()
}

// restart runs the next invocation at the top rung, judged afresh: no
// samples of it yet, and the next recheck pairRecheck invocations away.
func (p *pairing) restart() {
	p.depth, p.since, p.dry, p.due, p.doubt, p.paid = p.top, 0, 0, pairRecheck, false, false
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// lows keeps a figure's last pairWindow samples, as a ring.
type lows struct {
	xs [pairWindow]float64
	n  int // samples taken
}

// add takes sample x and returns the lowest sample kept.
func (l *lows) add(x float64) float64 {
	l.xs[l.n%pairWindow] = x
	l.n++
	return l.low()
}

// split counts the samples kept below x and at or above it: more than
// pairWindow/2 on one side puts a full window's median, both middle
// samples, there.
func (l *lows) split(x float64) (under, over int) {
	for _, y := range l.xs[:min(l.n, pairWindow)] {
		if y < x {
			under++
		} else {
			over++
		}
	}
	return under, over
}

// low is the lowest sample kept (+Inf before the first).
func (l *lows) low() float64 {
	lo := math.Inf(1)
	for _, x := range l.xs[:min(l.n, pairWindow)] {
		lo = min(lo, x)
	}
	return lo
}
