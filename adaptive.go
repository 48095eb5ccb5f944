package spice

import (
	"math"
	"math/bits"
	"slices"
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
// The file also holds the shape policy (pairing), one table of a DOALL
// runner's shapes: how many chunks its dispatch slot carries and, on a
// runner of width 2 or more, whether its rounds use that width or the
// invoker's slot alone, each shape judged by one rule on its own
// measured cost. It is not part of Options.Adaptive: it runs whether the
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
	// maxDepth is the most chunks a dispatch slot carries: the deepest
	// shape, and the finest grid a derived runner plans on.
	maxDepth = 4
	// pairMinNs is the cost per iteration, in ns, of chunk 0 alone at or
	// above which a traversal is taken to wait on memory: a contiguous
	// list reads 1-3 ns, a closure body 6-8, a list linked in shuffled
	// order past L2 about 90.
	pairMinNs = 20
	// pairMinChunk is the fewest iterations of the last trip count per
	// slot each chunk of a shape must keep, so a chunk still spans several
	// polls: it bounds the deepest shape allowed.
	pairMinChunk = 4 * ctxPollEvery
	// pairGain is what a wider or deeper shape must beat its neighbour by
	// to be preferred: its wall time per committed iteration at most this
	// share of the neighbour's.
	pairGain = 0.9
	// pairWindow is how many recent samples a shape's window keeps: the
	// invocations a neighbour not yet measured runs, and the clean
	// depth-1 rounds the first one waits for.
	pairWindow = 8
	// pairRecheck is how many invocations a runner runs between two that
	// run a neighbouring shape, so the neighbours' windows stay fresh.
	pairRecheck = 32
)

// pairing is the shape policy of a DOALL runner: how wide its rounds
// are, W slots or the invoker's alone, and how many chunks of the
// validation chain each slot carries, depth 1, 2 or 4 (scheduler.go). A
// slot at depth D steps its D chunks in lockstep (blockGroup), so a core
// that waits on a cache miss in one chain has the other chains' misses
// in flight beside it; at width 1 the one slot is the invoker's, with no
// executor, lease or gate, and a narrowed runner's D chains are every
// W-th row of its grid. Depth pays only when the traversal waits on
// memory, width only when the other cores get their share; so each
// shape is kept only while it pays — Garmon et al.'s rule for a
// speculative resource.
//
// The policy is one table: each shape, (width, depth) for width in
// {W, 1} and depth in {1, 2, 4}, keeps a window of its own round 0's
// wall ns per committed iteration, and the runner runs the best shape
// it has measured. Shapes one step apart in width or in depth are
// neighbours, and one rule judges every pair: the wider or deeper of
// two is better when a majority of its window beats the other's figure
// (mid: the value a majority of its window is at or below) by pairGain.
// A shape is judged against its neighbours once a majority of its own
// window is in, after every invocation, so a neighbour's fresh sample
// counts at once. Beside that:
//
//   - a neighbour not sampled yet runs until its window is full, the
//     deeper first, and every pairRecheck invocations one neighbour
//     runs, in rotation (deeper, across width, shallower), so its window
//     follows the host: a deeper one again when its round ran on the
//     coarser depth's rows, and a deeper or wider one on while each of
//     its samples beats the held shape's figure by pairGain, so a shape
//     the host slowed for a while is held again once it pays;
//   - a depth-1 shape tries no deeper one, and (W, 1) no other shape,
//     until the figure of a window of clean rounds 0 (nothing reclaimed,
//     squashed or capped, no more slots than processors) reads chunk 0's
//     own cost at pairMinNs or more an iteration: a contiguous list
//     never leaves depth 1;
//   - a shape other than (W, 1) runs only while each of its chunks keeps
//     pairMinChunk iterations of the last trip count per slot; a runner
//     deeper than that allows steps down at once;
//   - a round that gives no figure (a slot reclaimed, no clock, a round
//     of one) counts +Inf for the shape it ran for, unless that is the
//     depth-1 shape the runner holds, and so does a width round on a
//     host of one processor (finish): its slots take turns. A window
//     whose majority is +Inf loses to the shape below it, measured or
//     not.
//
// A sample goes to the shape its round ran: the runner's width, at the
// chunks its busiest slot carried rounded up to a depth. The first
// invocation after a move to a finer depth finds only the coarser
// depth's rows valid and runs that depth's layout; so does the first
// one of a recheck, and the one after a recheck of a coarser depth; a
// round the confidence gate thinned counts as the depth it thinned to.
// A figure is a window's majority, not its mean
// nor its lowest: a round the host held up only adds time (one round
// in a few thousand read 40× the others on a shared 2-vCPU guest), a
// relinked structure lands its split anywhere, so a width's rounds range
// from balanced to serial, and a hot warm-up or one lucky sample does not
// decide. Every figure comes from the clock reads the scheduler takes
// anyway. Confined to the runner's invocation cycle, like the predictor.
type pairing struct {
	forced int       // Config.depth, or 1 for a runner that cannot step chains together: the depth, pinned (0: derived)
	wide   bool      // the runner has width W ≥ 2 to narrow from
	cur    int       // the shape held: the best measured (index: 3 at width W, 0 at width 1, plus log2 of the depth)
	run    int       // the shape the next invocation runs: cur, or a neighbour
	at     [6]window // round 0's wall ns per committed iteration, per shape
	c0     window    // chunk 0's own ns per iteration in clean depth-1 rounds
	tick   int       // invocations observed
}

// reset forgets every measurement and returns to (W, 1), or to the
// pinned depth.
func (p *pairing) reset() {
	*p = pairing{forced: p.forced, wide: p.wide, cur: 3, run: 3}
}

// depth is the chunks a slot carries in the next invocation.
func (p *pairing) depth() int {
	if p.forced != 0 {
		return p.forced
	}
	return 1 << (p.run % 3)
}

// one reports whether the next invocation runs narrowed, at width 1.
func (p *pairing) one() bool { return p.run < 3 }

// observe takes one successful invocation's round 0 and returns whether
// the next invocation's shape differs from this one's. A pinned depth
// (forced) is never observed. perIter is round 0's wall ns per committed
// iteration (0: no figure — a round of one on a runner of width 2 or
// more reads no clock, and a round whose invoker reclaimed a slot
// measures a late worker and not the shape; +Inf: a round that cannot
// pay); rung, the chunks its busiest slot carried; self, the invoker's
// own ns per iteration in a clean round (0: not clean); perSlot, the
// trip count per slot of the runner's width.
func (p *pairing) observe(perIter float64, rung int, self float64, perSlot int64) bool {
	was, held := p.run, p.cur
	s := was/3*3 + bits.Len(uint(rung-1)) // the shape the round ran
	if perIter == 0 && (was%3 > 0 || was != held) {
		s, perIter = was, math.Inf(1) // no figure of the shape it ran for, which must show it pays
	}
	if s%3 == 0 && self > 0 {
		p.c0.add(self)
	}
	if perIter > 0 {
		p.at[s].add(perIter)
	}
	for p.cur%3 > 0 && perSlot < pairMinChunk<<(p.cur%3) {
		p.cur--
	}
	near := p.near(p.cur, perSlot)
	if p.at[p.cur].n > pairWindow/2 {
		for i := len(near) - 1; i >= 0; i-- {
			if n := near[i]; n >= 0 && p.better(n, p.cur) {
				p.cur, near = n, p.near(n, perSlot)
				break
			}
		}
	}
	p.tick++
	p.run = p.cur
	if p.cur == 3 && !p.waits() {
		return p.run != was
	}
	for _, n := range near {
		on := n == was && was != held // the neighbour this invocation ran
		up := on && n > p.cur && (s < was && p.tick%pairRecheck == 1 || p.at[n].n > pairWindow && perIter < pairGain*p.at[p.cur].mid())
		if n >= 0 && (p.at[n].n == 0 || on && p.at[n].n < pairWindow || up) {
			p.run = n
			return p.run != was
		}
	}
	if p.tick%pairRecheck == 0 {
		for i := range near {
			if n := near[(p.tick/pairRecheck+i)%3]; n >= 0 {
				p.run = n
				break
			}
		}
	}
	return p.run != was
}

// near lists the neighbours of shape s, a shape the trip count per slot
// allows, that it allows too: one step deeper (from depth 1 only on a
// traversal that waits), across width ((1, 1) only from a trip count
// that keeps pairMinChunk iterations a slot), one step shallower (-1:
// none).
func (p *pairing) near(s int, perSlot int64) [3]int {
	near := [3]int{-1, -1, -1}
	if (s%3 == 1 || s%3 == 0 && p.waits()) && perSlot >= pairMinChunk<<(s%3+1) {
		near[0] = s + 1
	}
	if p.wide && (s != 3 || perSlot >= pairMinChunk) {
		near[1] = (s + 3) % 6
	}
	if s%3 > 0 {
		near[2] = s - 1
	}
	return near
}

// waits reports whether a window of clean depth-1 rounds 0 reads chunk
// 0's own cost at pairMinNs or more an iteration: a traversal that waits
// on memory, which a deeper shape may pay for.
func (p *pairing) waits() bool { return p.c0.n >= pairWindow && p.c0.mid() >= pairMinNs }

// better reports whether shape a is better than its neighbour b: the
// wider or deeper of the two (the higher index) is when a majority of
// its window beats the other's figure by pairGain.
func (p *pairing) better(a, b int) bool {
	lo, hi := min(a, b), max(a, b)
	return (p.at[hi].mid() < pairGain*p.at[lo].mid()) == (a == hi)
}

// timed reports whether round 0 of a width-1 runner, or of a narrowed
// one, reads the clock for the policy: while the depth is derived and
// the runner runs a shape other than (W, 1), or perSlot, the last trip
// count per slot, would allow depth 2.
func (p *pairing) timed(perSlot int64) bool {
	return p.forced == 0 && (p.run != 3 || perSlot >= 2*pairMinChunk)
}

// window keeps a shape's last pairWindow samples, as a ring, and their
// figure.
type window struct {
	xs  [pairWindow]float64
	n   int     // samples taken
	fig float64 // mid, once a sample is in
}

// add takes sample x and works out the window's figure, once a sample
// and not where it is read, several times an invocation.
func (w *window) add(x float64) {
	w.xs[w.n%pairWindow] = x
	w.n++
	xs := w.xs
	for i := w.n; i < pairWindow; i++ {
		xs[i] = math.Inf(1)
	}
	slices.Sort(xs[:])
	w.fig = xs[pairWindow/2]
}

// mid is the window's figure: the least value a majority of its
// pairWindow slots are at or below, an empty slot reading +Inf.
func (w *window) mid() float64 {
	if w.n == 0 {
		return math.Inf(1)
	}
	return w.fig
}
