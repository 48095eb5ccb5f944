package spice

import (
	"context"
	"math"
	"slices"
	"sync/atomic"

	"spice/internal/faults"
)

// This file is the scheduler layer: the round's steps, as methods of
// Runner over its one record of per-loop state (runner.go: the slots and
// their lanes, the round, the buffers). An invocation is one loop over
// rounds (Runner.run), and a round is a value (round, r.rd) that these
// steps, one method each, hand one another:
//
//   - begin: open the invocation at round 0, chunk 0 at (start, 0);
//   - seed: arm chunk 0 at the live position and one speculative chunk
//     per row of the round's chain (r.chain), on the round's slots;
//   - dispatch: launch and join the slots;
//   - walk: walk the validation chain once, from chunk 0 along the links
//     the chunks recorded — commit every chunk it reaches;
//   - land: land the committed DOACROSS views, close the round;
//   - squash: count what the walk did not reach;
//   - verdicts: judge each launched row's prediction (reached: a hit);
//   - advance: if the walk stopped on a capped chunk or a read/write-set
//     conflict, find the position and chain of the next round;
//   - finish: charge the tail, install the memoizations.
//
// Chunks and slots. A chunk is one link of the round's validation
// chain: a start, a window of predicted starts to hunt, a plan, an
// outcome, a verdict, all in one record, its lane (r.chunks[c] is chunk
// c's). Every lane stops at the first start of its window it meets, its
// own excepted, and records that start's chunk (lane.met); the walk
// follows those links from chunk 0. The window is a slice of the round's
// starts (r.targets, seed). In a round of index order it is the
// successor's start alone (none for the chain's last chunk), the paper's
// membership validation: chunk c is validated by chunk c-1 meeting its
// start. A round that hunts the set (a runner whose list has been
// relinked, in rounds that step chains in groups) gives every lane the
// whole set of its predicted starts, so the walk finds the chain's order
// from the list. Either way each committed chunk is exactly the
// sequential continuation of the one before it. A dispatch slot is one executor task (chunkJob)
// with one claim word, at most one queue entry and one latch count, and
// one LastWorks entry. A slot carries one chunk, or up to maxDepth when
// the runner steps several chains per slot (pairing, adaptive.go: a
// DOALL traversal that waits on memory): round.layout puts consecutive
// chunks of the chain on each slot, as evenly as they go, so a round of
// W slots at depth D commits up to D·W chunks, and the walk, squash and
// verdicts go chunk by chunk as they always did. A width-1 runner's one
// slot is the invoker's, so its D chunks run there, with no executor;
// so do a wider runner's while the shape policy has narrowed it
// (pairing.one: width did not pay). DOACROSS slots always carry one
// chunk: each chunk needs a CellView of its own.
//
// A slot keeps at most the runner's depth D of its chunks in flight
// (chunkJob.depth): when a chain stops, exec opens the slot's next chunk
// in its place (refill), so the group stays D wide until the slot's
// chunks are gone. A round of index order carries at most D chunks a
// slot, so each has a lane of its own. A round that hunts the set is cut
// finer than its lanes: its starts land wherever the relinked list put
// them, so D chunks a slot would leave the slot's group waiting on its
// longest. Once an invocation has hunted the set, the predictor's rows
// are read setFanout times finer (predictor.fine), setFanout·D·W-1 of
// them, so each slot carries setFanout·D chunks, more than its lanes,
// taken by whichever lane is free.
//
// A round of one (a width-1 or narrowed runner at depth 1, a shed batch
// item, no row predicted or admitted, or the tail behind a capped last
// chunk) is slot 0 alone on the invoking goroutine, carrying chunk 0
// alone: that is the sequential path, through the same chunkJob.exec,
// and there is no other. Nothing runs beside it, so it touches no
// executor, and a DOACROSS loop's view is direct (cells.go). It reads no
// clock, except round 0 of a width-1 or narrowed DOALL runner, which
// reads two when the shape policy may use them.
//
// The runner owns every per-invocation buffer (jobs and their lanes,
// plan, works, memos) and reuses them across rounds and invocations,
// so the steady state allocates nothing at any width — including the
// failure plumbing: ctx polling, the abort barrier and per-chunk error
// slots all live in preallocated state.
//
// Block-structure invariants (chunkJob.exec and blockloop.go): a chunk
// executes in bounded blocks whose length is the distance to the
// nearest pending event — the next ctx/abort poll point, the next
// memoization-plan threshold, or the speculative iteration cap.
// Validation is not an event: it is by membership (the paper's second
// insight), so a chunk hunts its window inside every block, and only the
// chain's last chunk and a round of one hunt nothing.
// Inside a block the loop touches only register-resident locals (a
// group's block: its chains' states, in its own frame);
// the chunk's lane is written between blocks only. Spills happen at two
// places only:
//
//   - block boundaries: the lane's state, accumulator and `work`
//     counter advance by the block's returned ones, and all slow-path
//     bookkeeping (polls, plan captures, cap, the outcome once the chunk
//     stops) runs against them;
//   - panic recovery: each block routine keeps its started-iteration
//     counts where its recovery defer can reach them, so a chunk that
//     panics mid-block still reports an exact count — and a grouped
//     chunk's partners their exact states — and squash accounting stays
//     exact to the iteration. A loop's own block form (Loop.Scan)
//     reports its count only by returning, so there the count is exact
//     to the block boundary.
//
// Chunk 0 — the non-speculative chunk whose start is architecturally
// correct — runs inline on the invoking goroutine, in slot 0, instead
// of round-tripping through the executor: the other slots are submitted
// first, then the caller executes slot 0 itself and joins the round on
// the completion latch. This removes a submit/park/wake handoff per
// invocation and leaves every executor worker for speculative chunks;
// abort-barrier, ctx-poll and panic-containment semantics are
// unchanged because slot 0 runs the same chunkJob.exec.
//
// dispatch is the invoker's side of the handoff protocol in the
// executor.go header: offer each slot through its claim word (claimWord
// below is the one statement of that step), run chunk 0, reclaim (run
// every chunk no worker has claimed yet), join (spin on the latch for
// as long as the invoker's own share just took, then park), and publish
// the workers' lease from the measured gap between rounds. The round
// ends in land, when the chain walk has landed its results.
// The clock is read four times per round with more than one slot — at
// dispatch, after the invoker's own share, at the latch release, at the
// end of the walk — however many chunks the slots carry, and never in a
// round of one, except round 0 of a width-1 or narrowed DOALL runner:
// two reads, at dispatch and after its slot. The pairing policy reads
// round 0's first, second and last reads (finish) and takes none of its
// own.
//
// Cache-line layout invariants (the multicore contract of this file):
//
//   - The round's only cross-core shared-write state is the completion
//     latch (one countdown add per chunk exit, see latch.go) and the
//     abort barrier (written only on failure, polled read-only every
//     ctxPollEvery iterations): the runner's lat and abort. Each owns a
//     cache line at the end of the Runner struct; nothing else in the
//     struct is written while chunks run. The barrier holds the lowest
//     rank that failed, and a chunk of a higher rank stops at its next
//     poll: a rank is the chunk's index, except in a round that hunts the
//     set, where only the walk knows the order, so chunk 0 ranks 0 and
//     every other chunk 1, and only chunk 0's failure stops the rest
//     (Runner.rank). The walk therefore never meets errChunkAborted before
//     the failure that caused it.
//   - What a chunkJob's phase reads is written only by the invoker,
//     before it arms the slot (seed and dispatch for the chunks,
//     landCells for the copy-out), and is read-only while the phase
//     runs, apart from one compare-and-swap on the claim word per
//     contender and the lanes, each chunk's record, which only the
//     claimant writes, once per block; so jobs carry no padding.
//   - The runner's works, memos, plan, chain, rd and lease are touched
//     only by the invoking goroutine, strictly outside the window in
//     which workers run (dispatch before, chain resolution after the
//     latch wait) — never concurrently with chunk execution.
//   - A DOACROSS round opens a second, shorter window after its walk
//     (landCells): the slot's copy-out, a second phase of the same
//     chunkJob on the same claim word, so a slot never has more than
//     one executor entry queued. A worker that claimed it reads that
//     slot's view and writes the store cells the view stored to —
//     cells no other copy of the round writes, or the copies would not
//     have been offered. The invoker meanwhile runs the copies nobody
//     claimed; nothing else moves until the latch has joined them.
//   - Per-runner stats (Runner.pend) accumulate on the invoking
//     goroutine and publish once per invocation under runnerStats.mu;
//     workers never write them.

// chunkJob is a preallocated executor task: one dispatch slot of one
// invocation. A slot runs in two phases, one claim each: its chunks
// (exec), offered by dispatch, and in a DOACROSS round the copy-out of
// its view (copy), offered by landCells once the walk has committed the
// chunk. A slot carries one chunk of the round's validation chain, or
// up to maxDepth consecutive ones (setFanout·maxDepth in a round that
// hunts the set), at most depth of them in flight; each chunk is a lane. r and idx are wired once by
// NewRunner; seed sets the remaining fields, and the lanes' inputs,
// every round.
type chunkJob[S comparable, A any] struct {
	r     *Runner[S, A]
	idx   int // dispatch slot: at depth 1 also its chunk's position in the chain
	ctx   context.Context
	width int // chunks this round: lanes[:width]
	depth int // chunks in flight at once: width, at most the runner's depth (more only in a round that hunts the set)
	used  int // the most chunks since the last release: lanes[:used] hold caller state
	lanes [setFanout * maxDepth]lane[S, A]

	claimWord // armed by dispatch after every other field of the round is in place
	// copying names the armed phase: false for the chunk, true for the
	// copy-out. Written before the arming store, read after a winning
	// claim (claimWord).
	copying bool
	// Invoker-only: whether the invoker won the chunk's claim, whether
	// the committed view stored to any cell (the walk), and whether this
	// round offered its copy (landCells).
	reclaimed, wrote, offered bool
}

// lane is one chunk of a slot and the chunk's one record: what seed arms
// it with (its start, plan and backstop row, its window of the round's
// predicted starts and capAt, the iteration cap), then the driver's
// state while it runs (chunkJob.exec), which is also the group
// routine's input and output (groupFn), and, once it has stopped, its
// outcome, which the walk reads. Only the slot's claimant writes it
// while the slot runs, once per block.
type lane[S comparable, A any] struct {
	idx    int // the chunk's position in the round's validation chain (> 0: the start is predicted)
	slot   int // the dispatch slot that carries it
	start  S
	ownRow int // SVA row this chunk's own backstop targets (-1: none)
	plan   []planEntry
	base   int64 // the position plan counts from: the chunk's (predicted) global start, or 0 for bootPlan

	s      S // the state reached
	acc    A
	window []target[S] // the predicted starts it hunts, of Runner.targets: its successor's, or the round's set
	met    int         // the chunk whose start of the window it stopped on (matched)
	seen   bool        // the walk reached it: it committed, or it failed first
	live   bool        // the chunk has not stopped
	work   int64       // iterations completed as of the last block boundary: once stopped, the committed count
	capAt  int64       // the speculative iteration cap (none for chunk 0)
	// nextPoll is the count of the next ctx/abort poll; cursor the next
	// plan entry, which fires no earlier than minPlanAt.
	nextPoll, minPlanAt int64
	cursor              int
	ownDone             bool // the plan already captured ownRow
	// The outcome: stopped on the successor's predicted start, or at the
	// speculative iteration cap; the failure (a body or ctx error, a
	// *PanicError, errChunkAborted); the memoizations captured.
	matched, capped bool
	err             error
	props           []proposal[S]
	// The group routine's report of the last block: iterations started
	// and why it stopped.
	k   int64
	why blockStop
}

// target is one of a round's predicted starts (Runner.targets): the
// start and its chunk's index.
type target[S comparable] struct {
	s S
	c int
}

const claimArmed = 1

// claimWord is the handoff protocol of one dispatch slot, stated once
// (the Claim step of the round handoff in the executor.go header). The
// invoker offers the slot's armed phase: it stores claimArmed after
// everything the phase reads is in place, and queues an entry for it.
// Whoever swaps the word back runs the phase: the worker that received
// the queue entry (popped) or the invoker walking its round's slots
// (take). The loser touches nothing — the slot may already belong to a
// later round or phase. The arming store and the winning swap order the
// invoker's writes before the task's reads.
//
// That includes which phase is armed (chunkJob.copying): the invoker
// writes the flag before the arming store, a contender reads it only
// after a winning swap, and the claimant signals the round's latch after
// that read, so the invoker's wait on the latch orders the previous
// claimant's read before the next phase's write. A loser never reads it.
//
// queued is set while an executor queue holds an entry for the slot. The
// entry of a phase the invoker took outlives it; while it does, later
// phases and rounds arm the slot without queueing again — the old entry
// serves whichever phase is armed when it is received, as a failed swap
// or a legitimate claim of that phase — so a slot never has two entries
// queued, and a worker that stays away for many rounds cannot fill its
// shard with dead entries.
type claimWord struct {
	claim  atomic.Uint32
	queued atomic.Bool
}

// offer arms the word and leaves at most one queue entry for t behind
// it, sent to shard unless an earlier entry is still queued. When no
// shard has room nothing is queued and queued is cleared again, so the
// next offer tries afresh; the phase is armed either way, and the
// invoker's walk (dispatch's reclaim, landCells) runs it.
func (w *claimWord) offer(e *Executor, shard uint32, t task) {
	w.claim.Store(claimArmed)
	if !w.queued.Swap(true) && !e.enqueue(t, shard) {
		w.queued.Store(false)
	}
}

// take claims the armed phase for the caller; false means someone else
// has it, or nothing is armed.
func (w *claimWord) take() bool { return w.claim.CompareAndSwap(claimArmed, 0) }

// popped is take for the holder of the slot's queue entry. The flag is
// cleared before the claim: a dispatcher that still sees it set (and so
// does not queue) armed the slot before this store, so the swap sees
// its phase.
func (w *claimWord) popped() bool {
	w.queued.Store(false)
	return w.take()
}

// run is the executor's entry: run the armed phase if this queue entry
// still owns it.
func (j *chunkJob[S, A]) run() {
	if !j.popped() {
		return
	}
	if j.copying {
		j.copy()
	} else {
		j.exec()
	}
}

// copy is the claimed copy-out of the slot's view into the store.
func (j *chunkJob[S, A]) copy() {
	defer j.r.lat.done()
	j.r.views[j.idx].copyOut()
}

// exec executes the slot's chunks: the paper's per-thread loop with
// work counting, threshold-driven memoization, and mis-speculation
// detection against the successor's predicted start — restructured into
// bounded blocks handed to the runner's block routine (Runner.block,
// picked from the loop's body form when the runner was built:
// blockloop.go), so the per-iteration body carries no mode branches;
// every ctxPollEvery iterations a block boundary polls the invocation
// context and the round's abort barrier, keeping slow-path overhead
// amortized. A slot of several chunks drives its lanes through the
// group routine (Runner.group) with one block bound for all, the
// nearest of their next events, while two or more are live; the last
// goes on alone, unless its window holds more than the one stop the
// block routine takes (lane.solo). The group holds at most depth chains,
// and a chain that stops hands its place to the slot's next chunk,
// opened in index order (refill). Plan cursor, cap, match and failure
// are per lane. The caller holds the slot's claim (or runs slot
// 0, which is never submitted), so exec runs exactly once per armed slot
// per round and signals the latch exactly once.
//
// exec is the panic-containment boundary of the executor layer: a
// callback panicking on a worker goroutine (e.g. a corrupted prediction
// dereferencing freed state) is recovered where it is called — inside
// the block routines for the loop's callbacks, and by startChunk and
// doneAt for Init, the fault site and boundary Done calls — and recorded
// as its own chunk's *PanicError, so the process survives, a grouped
// chunk's partners go on, and the chain resolution decides whether the
// failure is architectural (surfaces from Run) or speculative
// (squashed).
func (j *chunkJob[S, A]) exec() {
	defer j.r.lat.done()
	var view *CellView
	if j.r.loop.speculative() {
		// DOACROSS chunks execute against their dispatch slot's CellView,
		// armed by the dispatcher before submit (the submit handoff orders
		// the arm before this read).
		view = &j.r.views[j.idx]
	}
	lanes := j.lanes[:j.width]
	// lanes[:opened] have started; a lane whose Init or fault site failed
	// never runs. The last live lane (one, while live is 1) leaves the
	// group only if the block routine can hunt its window (lane.solo).
	opened, live := 0, 0
	var one *lane[S, A]
	for {
		for ; live < j.depth && opened < len(lanes); opened++ {
			if j.open(&lanes[opened]); lanes[opened].live {
				live, one = live+1, &lanes[opened]
			}
		}
		if live == 0 || live == 1 && opened == len(lanes) && one.solo() {
			break
		}
		n := int64(math.MaxInt64)
		for i := range lanes[:opened] {
			if l := &lanes[i]; l.live {
				n = min(n, l.bound())
			}
		}
		j.r.group(lanes[:opened], n)
		live = 0
		for i := range lanes[:opened] {
			if l := &lanes[i]; l.live {
				l.work += l.k
				if j.settle(l, l.why, l.err); l.live {
					live, one = live+1, l
				}
			}
		}
	}
	for i := range lanes {
		l := &lanes[i]
		for l.live {
			var w target[S] // the one start a solo lane hunts, if any
			if len(l.window) > 0 {
				w = l.window[0]
			}
			s, acc, k, why, err := j.r.block(view, l.s, l.acc, w.s, len(l.window) > 0, l.bound())
			l.s, l.acc, l.met = s, acc, w.c // met is read only once it matched
			l.work += k
			j.settle(l, why, err)
		}
		l.close()
	}
}

// solo reports whether the lane may go on alone through the block
// routine, which takes one stop: its window holds at most one start, and
// not its own. (The window of a set round's chunk holds its own start,
// which never stops it; the block routine would stop on it at once.)
func (l *lane[S, A]) solo() bool {
	return len(l.window) == 0 || len(l.window) == 1 && l.window[0].c != l.idx
}

// open arms lane l for its chunk: the fault-injection site (armed only
// by chaos configs, Config.Faults), then Init. A failure in either — an
// injected panic surfaces as a *PanicError, an injected error as itself
// — aborts the chain exactly like a body failure at the chunk's first
// iteration.
func (j *chunkJob[S, A]) open(l *lane[S, A]) {
	l.s, l.work, l.cursor, l.minPlanAt = l.start, 0, 0, 0
	l.nextPoll, l.ownDone, l.matched, l.capped = ctxPollEvery-1, false, false, false
	l.acc, l.err = j.r.startChunk()
	l.live = l.err == nil
	if !l.live {
		j.r.abortAfter(j.r.rank(l))
	}
}

// bound is the lane's next block budget: the distance from its count to
// the nearest pending event — the cap, the next poll, the next plan
// entry. It is at least 1 while the lane is live (settle).
func (l *lane[S, A]) bound() int64 {
	bound := min(l.capAt, l.nextPoll)
	if l.cursor < len(l.plan) {
		bound = min(bound, max(l.plan[l.cursor].at-l.base, l.minPlanAt))
	}
	return bound - l.work
}

// settle books a block of lane l, its count already added: how the
// block stopped, then, if it filled its budget, the boundary events due
// at the count, in the order the per-iteration loop would meet them. It
// clears l.live when the chunk is over.
func (j *chunkJob[S, A]) settle(l *lane[S, A], why blockStop, err error) {
	r := j.r
	switch why {
	case blockDone:
		l.live = false
		return
	case blockMatched:
		l.matched, l.live = true, false
		return
	case blockFailed:
		l.err, l.live = err, false
		r.abortAfter(r.rank(l))
		return
	}
	// The cap fires at iteration end, ahead of the next Done/match check,
	// so a capped chunk stops without peeking at the next state.
	if l.work >= l.capAt {
		l.capped, l.live = true, false
		return
	}
	if done, err := doneAt(r.loop.Done, l.s); err != nil || done {
		l.live = false // the event's iteration never starts
		if err != nil {
			l.err = err
			r.abortAfter(r.rank(l))
		}
		return
	}
	if l.work == l.nextPoll {
		if l.err = j.ctx.Err(); l.err != nil {
			l.live = false
			return
		}
		// An earlier chunk failed: this chunk is certain to be squashed,
		// so stop burning the worker on it.
		if r.abort.Load() < int64(r.rank(l)) {
			l.err, l.live = errChunkAborted, false
			return
		}
		l.nextPoll += ctxPollEvery
	}
	// Memoization (Algorithm 2): capture the live-in state when the
	// completed count reaches the plan threshold (or the iteration after
	// the previous capture, whichever is later — duplicate thresholds
	// fire one iteration apart, as in the per-iteration loop).
	if l.cursor < len(l.plan) && l.work >= l.plan[l.cursor].at-l.base && l.work >= l.minPlanAt {
		e := l.plan[l.cursor]
		l.props = append(l.props, proposal[S]{row: e.row, state: l.s, local: l.work})
		l.ownDone = l.ownDone || e.row == l.ownRow
		l.cursor++
		l.minPlanAt = l.work + 1
	}
}

// close is the chunk's exit. Backstop: a chunk that matched its
// successor's start persists it when its own pending entry targets its
// own row, the successor's (see the compiler transformation's
// spice.backstop). A chunk that met another chunk's start persists
// nothing: that start has a row of its own. The peek did no work, so the
// committed count excludes it.
func (l *lane[S, A]) close() {
	if l.matched && l.met == l.idx+1 && !l.ownDone && l.cursor < len(l.plan) && l.plan[l.cursor].row == l.ownRow {
		l.props = append(l.props, proposal[S]{row: l.ownRow, state: l.s, local: l.work})
	}
}

// startChunk is a chunk's prologue: the fault-injection site, then
// Init, a panic in either contained as a *PanicError.
func (r *Runner[S, A]) startChunk() (acc A, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = newPanicError(v)
		}
	}()
	if err = r.cfg.Faults.Check(faults.ChunkBody); err != nil {
		return acc, err
	}
	return r.loop.Init(), nil
}

// doneAt is Done(s) at a block boundary, a panic contained as the
// chunk's *PanicError.
func doneAt[S comparable](done func(S) bool, s S) (d bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = newPanicError(v)
		}
	}()
	return done(s), nil
}

// armAbort clears the failure barrier for a new dispatch round.
func (r *Runner[S, A]) armAbort() { r.abort.Store(math.MaxInt64) }

// abortAfter lowers the failure barrier to a failed chunk's rank: the
// chunks of a higher rank stop at their next poll.
func (r *Runner[S, A]) abortAfter(idx int) {
	for {
		cur := r.abort.Load()
		if cur <= int64(idx) || r.abort.CompareAndSwap(cur, int64(idx)) {
			return
		}
	}
}

// rank is chunk l's place in iteration order as known before the walk:
// its index in the chain, or in a round that hunts the set 0 for chunk 0
// and 1 for every other. There only the walk finds the order, and any
// chunk but chunk 0 may precede the one that failed, so only chunk 0's
// failure stops the others.
func (r *Runner[S, A]) rank(l *lane[S, A]) int {
	if r.rd.any {
		return min(l.idx, 1)
	}
	return l.idx
}

// release drops everything the round's jobs and lanes captured from the
// caller once the invocation has fully completed: the request-scoped
// context (and its value chain) plus every node state a finished
// traversal left behind — lane start, end and successor states,
// accumulators, proposal buffers, error values, the chunk index
// (r.chunks), the committed memo buffer (the predictor has consumed it
// by the time release runs) and the round, which holds the live state,
// the accumulator and the failure. Without this an idle runner parked in
// a Pool free list pins the finished caller's data structure until the
// next invocation happens to overwrite the same slots.
func (r *Runner[S, A]) release() {
	var zeroS S
	var zeroA A
	r.rd = round[S, A]{}
	clear(r.targets[:cap(r.targets)]) // an earlier round's set may have been longer
	r.targets = r.targets[:0]
	for j := range r.jobs {
		job := &r.jobs[j]
		job.ctx = nil
		for i := range job.used {
			l := &job.lanes[i]
			l.start, l.plan, l.s, l.acc, l.err = zeroS, nil, zeroS, zeroA, nil
			clear(l.props[:cap(l.props)])
			l.props = l.props[:0]
		}
		job.used = 0
	}
	clear(r.chunks)
	memos := r.memos[:cap(r.memos)]
	for i := range memos {
		memos[i] = memo[S]{}
	}
	r.memos = r.memos[:0]
	// The views drop their store too (their buffers are pointer-free
	// working state and are kept). That holds at width 1 as well: the
	// direct view of a round of one is slot 0's, not a view of the
	// runner's that outlives the invocation.
	for j := range r.views {
		r.views[j].release()
	}
}

// queuedEntries counts the executor entries the runner's slots hold, at
// most one per slot (claimWord.queued): between invocations, the entries
// of reclaimed phases that no worker has run yet. Each is counted in the
// executor's load until a worker has run it, so this never exceeds the
// runner's share of the load (Executor.overloaded).
func (r *Runner[S, A]) queuedEntries() int64 {
	var n int64
	for i := range r.jobs {
		if r.jobs[i].queued.Load() {
			n++
		}
	}
	return n
}

// round is the invocation in progress: what run's steps hand one
// another, one round after the next. It lives on the runner (r.rd), so
// it costs no allocation; only the invoking goroutine touches it, and
// release zeroes it with the rest of the caller's state.
type round[S comparable, A any] struct {
	index  int // the round's number within the invocation
	n      int // chunks seeded: chunk 0, then one per row of r.chain
	slots  int // the slots that carry them (layout)
	per    int // chunks on each slot: per+1 on slots 0..extra-1, per on the rest
	extra  int
	armed  int   // chunks dispatch launched: always the prefix 0..armed-1, whole slots
	any    bool  // every lane's window is the set of the round's predicted starts (seed)
	hunted bool  // a round of the invocation hunted the set: the next reads its rows every stride (finish)
	cur    S     // chunk 0's start, the live state
	pos    int64 // chunk 0's global position: the iterations committed so far
	cap    int64 // the speculative iteration cap of the round's chunks
	probe  bool  // a probe: the confidence gate is open (runInvocation)
	shed   bool  // the load-aware door kept the invocation on its invoker (runInvocation)
	boot   bool  // memoize by the bootstrap plan (begin, or from a round that hunts the set on: seed)

	// Round 0's clock, the pairing policy's evidence (finish), from the
	// reads dispatch and land take anyway: dispatch time, the invoker's
	// own share (its slot, before any reclaim), dispatch to landed; the
	// iterations its slot stepped, whether the invoker reclaimed a slot,
	// and the chunks its busiest slot carried.
	t0, own, wall, steps int64
	reclaimed            bool
	rung                 int

	// The walk's outcome.
	f           int   // slot the walk stopped on: the last committed, or the failed one
	conflictAt  int   // DOACROSS: the slot found in conflict (-1: none)
	land        int   // DOACROSS: views to land, slots 0..land-1
	shared      bool  // DOACROSS: two of them stored to one cell
	err         error // the invocation's failure, once one is found
	dispatchErr error // the ctx error that cut dispatch short

	// Totals across rounds.
	acc       A
	committed bool  // acc holds a committed chunk's accumulator
	misspec   bool  // a round squashed work
	skew      bool  // the walk followed a chunk to one other than its index successor
	last      int   // slot of the last chunk round 0 committed
	round0    int64 // iterations round 0 committed
}

// layout spreads n chunks over at most width slots, consecutive chunks
// on each (seed), as evenly as they go: one each while they fit, else
// the first n mod width slots carry one more than the rest (n ≤
// maxDepth·width, or setFanout·maxDepth·width in a round that hunts the
// set). A round
// that fits divides nothing: its fixed cost is every round of one's.
func (rd *round[S, A]) layout(n, width int) {
	rd.n, rd.slots, rd.per, rd.extra = n, min(n, width), 1, 0
	if n > width {
		rd.per, rd.extra = n/width, n%width
	}
}

// run executes one invocation as a loop over rounds. A round seeds
// chunk 0 at the live (state, global position) — architecturally
// correct, never capped — and one speculative chunk per row of its
// chain, each hunting the next row's predicted start; lays them out on
// at most Threads slots, several to a slot when they do not fit one
// each (round.layout); launches and joins the slots; then walks the chain
// once: the prefix up to the first chunk that did not stop on its
// successor's start commits at exact global positions, everything after
// it is squashed. If the walk stopped on a capped chunk or on a
// read/write-set conflict, the next round resumes from that chunk's
// stop state (the conflicting chunk's validated start) over the
// admitted rows not yet passed; otherwise the invocation is done. Round
// 0 is the same code from (start, 0) over the n-chunk chain the gate
// admitted into r.chain (runInvocation), or over nothing when n is 1
// (the caller's "sequential" invocation). The squashed workers are
// thereby re-seeded rather than the remainder serialized, and every
// chunk carries plan entries anchored at its global position, so the
// predictor re-memoizes along the way and the next invocation's split
// stays balanced.
//
// A failed invocation (body error, contained panic, or ctx
// cancellation) returns the zero accumulator and the failure of the
// earliest chunk in iteration order. Its memoizations are not applied —
// the predictor keeps its last good rows, so the next invocation still
// speculates — and its last round records no hit/miss verdicts: an
// aborted chunk's squash says nothing about its prediction.
func (r *Runner[S, A]) run(ctx context.Context, start S, n int) (A, error) {
	r.begin(start, n)
	defer r.release()
	rd := &r.rd
	for {
		r.seed(ctx)
		r.dispatch(ctx)
		r.walk()
		r.land()
		r.squash()
		if rd.err != nil || !r.verdicts() {
			break
		}
		if r.advance(ctx); rd.err != nil {
			break
		}
	}
	if rd.err != nil {
		var zero A
		return zero, rd.err
	}
	r.finish()
	return rd.acc, nil
}

// begin opens the invocation as round 0: n chunks over the chain in
// r.chain on at most Threads slots, chunk 0 at (start, 0), under the
// predictor's cap (a probe's reduced one). It clears every slot's
// works, so a wider earlier round cannot leak into LastWorks.
//
// An invocation that starts as a round of one on a runner that could
// speculate memoizes by the bootstrap plan: no row is predicted, or none
// was admitted, so there is no split to keep balanced, only rows to find
// for the next invocation. A shed one is the exception: the door shed it
// for load or size, not for its rows, so it memoizes by the position
// plan, as chunk 0 does, and plans nothing before a first trip count.
// (Slot 0 neither caps nor conflicts: such a round is the whole
// invocation.)
func (r *Runner[S, A]) begin(start S, n int) {
	rd := &r.rd // zero but probe and shed: release cleared it after the previous invocation
	rd.cap = r.pred.specCap(r.cfg.maxSpec)
	if rd.probe {
		rd.cap = probeSpecCap(rd.cap, r.pred.prevTotal, n)
	}
	rd.layout(n, r.width())
	// A round of one memoizes by the bootstrap plan whenever the grid has
	// a row in use (not a width-1 runner at depth 1, nor a width-1
	// DOACROSS one), unless it was shed or the runner is narrowed: a
	// narrowed chain is sparser than its grid, whose rows the plan keeps
	// for the width recheck.
	rd.cur, rd.boot = start, n == 1 && !rd.shed && r.pred.stride < r.pred.parts && !r.pairing.one()
	rd.rung = min(rd.per+min(rd.extra, 1), r.pairing.depth())
	clear(r.works)
	r.memos = r.memos[:0]
	if !rd.boot {
		r.plan = r.pred.plan(r.plan[:0])
	}
}

// seed arms the round's slots and lanes, records each chunk's lane in
// r.chunks and clears its proposals. It fills r.targets with the round's
// predicted starts and gives each lane its window of them. Each chunk
// plans from its (predicted) global position — chunk 0's is exact. Only
// balance depends on the prediction; correctness comes from the
// validation chain.
//
// In index order the targets are each successor's start, in chain order,
// duplicates kept, and chunk c's window is chunk c+1's. A round that
// steps chains in groups on a runner whose list has been relinked
// (Runner.anyStop) hunts the set, two chunks on one slot included (the
// set round of two is index order's, but it places the next
// invocation's rows setFanout times finer): every lane's window is the
// whole set, so it stops at the first of the round's predicted starts it
// meets, whichever chunk's, and the walk finds the chain's order from
// the list. The set holds each start once, for the lowest chunk that has
// it, and never chunk 0's: two chunks of one start would link to each
// other with no work between them. A chunk of such a round does not know
// its global position until the walk has found the order, so it cannot
// plan from it: from that round on, the invocation memoizes by the
// bootstrap plan, whose candidates promote turns into rows read every
// stride at the positions the walk found (finish).
func (r *Runner[S, A]) seed(ctx context.Context) {
	rd, rows := &r.rd, r.pred.rows
	rd.any = r.anyStop && rd.n > rd.slots
	if rd.any {
		rd.boot, rd.hunted = true, true
	}
	set := r.targets[:0]
	for c, k := range r.chain[:rd.n-1] {
		if st := rows[k].start; !rd.any || st != rd.cur && !slices.ContainsFunc(set, func(t target[S]) bool { return t.s == st }) {
			set = append(set, target[S]{st, c + 1})
		}
	}
	r.targets = set
	c := 0
	for i := 0; i < rd.slots; i++ {
		j := &r.jobs[i]
		j.ctx, j.width = ctx, rd.per
		if i < rd.extra {
			j.width++
		}
		j.depth = min(j.width, r.pairing.depth())
		j.used = max(j.used, j.width)
		for k := range j.width {
			r.chunks[c], j.lanes[k].slot = &j.lanes[k], i
			c++
		}
	}
	for c := 0; c < rd.n; c++ {
		l, at := r.chunks[c], rd.pos
		l.idx, l.start, l.window, l.ownRow, l.capAt, l.plan, l.base, l.props = c, rd.cur, set, -1, 1<<62, bootPlan, 0, l.props[:0]
		l.seen = false
		if !rd.any {
			l.window = set[c:min(c+1, len(set))] // the successor's start; none for the chain's last chunk
		}
		if c > 0 {
			from := &rows[r.chain[c-1]]
			l.start, at = from.start, max(rd.pos, from.pos)
			// A predicted start: the iteration cap applies. A chunk runs an
			// iteration before it caps, so every round makes progress.
			l.capAt = max(rd.cap, 1)
		}
		if c < rd.n-1 {
			l.ownRow = r.chain[c]
		}
		if !rd.boot {
			l.plan, l.base = planFrom(r.plan, at), at
		}
	}
}

// dispatch launches and joins the round's slots: slot i>0 goes to the
// executor, slot 0 runs here, and the round is joined — every launched
// chunk executed exactly once, its outcome in its lane — when it returns.
// This is the invoker's side of the claim/join/lease protocol
// (executor.go header). Cancellation is honored here: once ctx is done
// no further slot starts, armed stays short of n, and the ctx error
// waits in dispatchErr for the walk to surface; chunks already running
// stop at their next poll.
func (r *Runner[S, A]) dispatch(ctx context.Context) {
	rd := &r.rd
	r.armAbort()
	var t0 int64
	if rd.slots > 1 {
		t0 = nanos()
		r.lease.dispatched(t0)
	} else {
		// Nothing runs beside slot 0: no handoff to time, and the next
		// round has no release to measure its gap from.
		r.lease.released = 0
		if rd.index == 0 && (r.exec == nil || r.pairing.one()) && r.pairing.timed(r.pred.prevTotal/int64(r.cfg.Threads)) {
			t0 = nanos() // round 0 of a width-1 or narrowed runner, for the shape policy
		}
	}
	armed := 0 // slots
	rd.armed, rd.dispatchErr = 0, nil
	for i := 0; i < rd.slots; i++ {
		if rd.dispatchErr = ctx.Err(); rd.dispatchErr != nil {
			break
		}
		switch {
		case !r.loop.speculative():
		case rd.n == 1:
			// A round of one: nothing runs beside the chunk, so its loads
			// and stores need no buffer.
			r.views[0].beginDirect(r.cells, r.loop.Reductions)
		default:
			// Every chunk buffers, chunk 0 included: its writes must stay
			// invisible to the concurrently running chunks.
			r.views[i].begin(r.cells, r.loop.Reductions)
		}
		r.lat.add(1)
		if i > 0 {
			j := &r.jobs[i]
			j.reclaimed, j.copying = false, false
			// Slot i goes to the same shard every round (warm-queue affinity).
			j.offer(r.exec, r.home+uint32(i-1), j)
		}
		armed = i + 1
		rd.armed += r.jobs[i].width
	}
	if armed > 0 && rd.n > rd.slots {
		r.pend.PairedRounds++
	}
	// Inline slot 0: chunk 0, the non-speculative chunk, runs on the
	// invoking goroutine after the speculative slots are submitted. Same
	// exec, so ctx polling, the abort barrier and panic containment are
	// identical. A round with nothing beside slot 0 never touches the
	// executor, and its latch is released by the time exec returns.
	if armed > 0 {
		r.jobs[0].exec()
		if rd.index == 0 {
			for _, l := range r.jobs[0].lanes[:r.jobs[0].width] {
				rd.steps += l.work
			}
		}
	}
	if rd.slots == 1 && t0 != 0 {
		// A width-1 round is its slot: the invoker's share is the round.
		rd.t0, rd.own = t0, nanos()-t0
		rd.wall = rd.own
	}
	if armed > 1 {
		// Reclaim, in chain order: a slot no worker has started yet
		// starts now, here. Its worker is late, not gone — it was woken at
		// submit and will find the entry already claimed — so each
		// reclaimed slot extends the lease over its own expected duration
		// (slot 0's, just measured): the late worker is then still
		// rescanning when the next round dispatches, instead of parking
		// again and being late again.
		t1 := nanos()
		own := t1 - t0
		lease := r.lease.grant()
		warm, reclaimed := t1, false
		for i := 1; i < armed; i++ {
			j := &r.jobs[i]
			if !j.take() {
				continue
			}
			if lease > 0 {
				warm += min(own, int64(joinSpinCap))
				r.exec.extendLease(warm + lease)
			}
			j.reclaimed, reclaimed = true, true
			j.exec()
		}
		if rd.index == 0 {
			rd.t0, rd.own, rd.reclaimed = t0, own, reclaimed
		}
		if reclaimed {
			t1 = nanos()
		}
		// Join: every slot is claimed, so the rest are running elsewhere
		// and worth spinning for about as long as slot 0 took. The round
		// is not over — the walk and land end it — so the lease published
		// here bridges the walk.
		r.lat.wait(t1, own)
		if until := r.lease.join(nanos(), own); until > 0 {
			r.exec.extendLease(until)
		}
	}
}

// walk resolves the round's validation chain once. It follows the links
// the chunks recorded from chunk 0: a chunk that stopped on a match
// validates the chunk whose start it met (lane.met), its index successor
// unless the round hunted the set. Every chunk it reaches (seen) commits
// — accumulators merged in walk order, proposals turned into memos at
// exact global positions — until it reaches one that did not match (f),
// a failed one, or a conflicting one (conflictAt). What it never reaches
// is squashed. A link back into the chunks already walked can only come
// from a traversal that cycles: the walk ends there as on a capped
// chunk, and the next round goes on from that state.
//
// DOACROSS layers a second validation before the membership one can
// surface anything about chunk i: each chunk the walk commits probes its
// writes against the read-sets of the round's launched chunks behind
// it, up to the first one already found in conflict (probeEnd), so by
// the time the walk reaches chunk i every logically-earlier committed
// chunk of the round has been checked against it. The conflict check is
// ordered before even the chunk's own error — a conflicted chunk
// consumed stale values, so its error (like its accumulator) is invalid
// and must be discarded with it, not surfaced. Validation reads bitmaps
// only; the buffered values land after the walk (land), once it is
// known which views commit and whether their copies need an order. A
// DOACROSS round never hunts the set, so its walk is in index order.
func (r *Runner[S, A]) walk() {
	rd, spec := &r.rd, r.loop.speculative()
	rd.f, rd.conflictAt, rd.land, rd.shared = 0, -1, 0, false
	probeEnd := rd.armed // DOACROSS: the first conflicting chunk, or the end of the launched slots
	for i := 0; ; {
		if i >= rd.armed {
			// Unlaunched: dispatch was cut short by cancellation and the
			// chain matched its way to a chunk that never started — the
			// invocation fails with the dispatch-time ctx error.
			rd.f, rd.err = i, rd.dispatchErr
			break
		}
		l := r.chunks[i]
		if spec && i == probeEnd {
			// Flow-dependence violation: chunk i read a cell an earlier
			// chunk wrote. Its start was validated (chunk i-1 matched it),
			// so the region re-executes from that exact state next round;
			// the chunk and everything after it are squashed.
			rd.conflictAt = i
			break
		}
		l.seen, rd.f = true, i
		if l.err != nil {
			// Every chunk walked so far matched, so chunk i's iterations
			// are exactly the sequential continuation and its failure is
			// the first in iteration order. (errChunkAborted cannot reach
			// here: a chunk is aborted only by a failure of a lower rank
			// (Runner.rank), which the walk reaches first.)
			rd.err = l.err
			if spec {
				// Sequential execution would have applied the failing
				// run's cell writes up to the failure point; land the
				// partial buffer behind the prefix so the store matches
				// it exactly. It was validated against nothing, so its
				// copy keeps its place in the chain order.
				rd.land, rd.shared = i+1, true
			}
			break
		}
		if rd.committed {
			rd.acc = r.loop.Merge(rd.acc, l.acc)
		} else {
			rd.acc, rd.committed = l.acc, true
		}
		if spec { // one chunk per slot: chunk i is slot i
			end, wrote, out := r.views[i].validate(r.views[i+1 : probeEnd])
			probeEnd = i + 1 + end
			r.jobs[i].wrote = wrote
			rd.land, rd.shared = i+1, rd.shared || out
		}
		for _, pr := range l.props {
			r.memos = append(r.memos, memo[S]{row: pr.row, state: pr.state, pos: rd.pos + pr.local})
		}
		rd.pos += l.work
		if rd.index == 0 {
			r.works[l.slot] += l.work
		} else {
			r.pend.RecoveryChunks++
		}
		if !l.matched {
			break
		}
		rd.skew = rd.skew || l.met != i+1
		if l.met < rd.armed && r.chunks[l.met].seen {
			l.capped = true // the traversal cycles: go on from here next round
			break
		}
		i = l.met
	}
	if rd.index == 0 {
		rd.last, rd.round0 = r.chunks[rd.f].slot, rd.pos
	}
}

// land lands the round's DOACROSS views in the store (landCells) and
// closes the round: its results are in, which is where the gap to the
// next dispatch starts and the workers' lease runs from. A round that
// dispatched nothing speculative never joined and has nothing to close.
func (r *Runner[S, A]) land() {
	rd := &r.rd
	if rd.land > 0 {
		r.landCells(rd.land, !rd.shared)
	}
	if r.lease.joined != 0 {
		now := nanos()
		if rd.index == 0 {
			rd.wall = now - rd.t0
		}
		if until := r.lease.landed(now); until > 0 {
			r.exec.extendLease(until)
		}
	}
}

// landCells lands the round's committed views — slots 0..n-1, already
// validated by the walk — in the store: every view's buffered stores,
// then every view's reduction fold in chain order. It is the one
// copy-out path; how many cores take part is decided per slot.
//
// When spread is set (no two of the views share a written cell, so
// their copies land in disjoint cells and need no order) the copy of
// every slot whose chunk ran on a worker and stored to any cell is
// offered to that worker's shard as the slot's second phase, on the
// claim word its chunk just released: the buffer is in the cache of the
// core that filled it, the store lines it lands on are the ones that
// core's chunk reads next invocation, and the worker has work during
// what was its nap.
// The invoker copies view 0, then in chain order every view nobody has
// claimed, and joins. With nothing offered — output dependences, a
// reclaimed chunk, a failing chunk's partial buffer, a single-proc
// host — that walk is every copy in chain order on the invoker, which
// is what output dependences need.
func (r *Runner[S, A]) landCells(n int, spread bool) {
	offered := false
	if spread && n > 1 && r.exec.procs > 1 { // a width-1 runner has no executor, and a round of one no copy
		for i := 1; i < n; i++ {
			j := &r.jobs[i]
			if j.reclaimed || !j.wrote {
				continue
			}
			r.lat.add(1)
			j.copying, j.offered, offered = true, true, true
			j.offer(r.exec, r.home+uint32(i-1), j) // copy i goes where chunk i went
		}
	}
	var t0 int64
	if offered {
		if r.copyGate != nil {
			r.copyGate() // test hook: hold the invoker between arming the copies and its own claims
		}
		t0 = nanos()
	}
	r.views[0].copyOut()
	for i := 1; i < n; i++ {
		j := &r.jobs[i]
		if !j.offered {
			r.views[i].copyOut()
			continue
		}
		j.offered = false
		if j.take() {
			j.copy()
		}
	}
	if offered {
		// Whatever is outstanding is being copied on another processor:
		// worth spinning for about as long as the invoker's own copies took.
		t1 := nanos()
		r.lat.wait(t1, t1-t0)
	}
	for i := 0; i < n; i++ {
		r.views[i].fold()
	}
}

// squash charges what the round discarded: every launched chunk the
// walk did not reach and, when the walk stopped on a failure, the
// failing chunk's partial work. The counters stay even if the
// invocation fails: the work was done and discarded either way.
func (r *Runner[S, A]) squash() {
	rd := &r.rd
	var squashed int64
	for i := 1; i < rd.armed; i++ {
		if l := r.chunks[i]; !l.seen {
			squashed += l.work
			rd.misspec = true
		}
	}
	if rd.conflictAt >= 0 {
		// One conflict event; every iteration it squashed (the
		// conflicting chunk and everything after it) is both a squashed
		// and a conflict-discarded iteration, so ConflictIters stays a
		// subset of SquashedIters by construction.
		r.pend.Conflicts++
		r.pend.ConflictIters += squashed
		if r.ctrl != nil {
			// The gate hears the conflicting chunk's row as a conflict, a
			// miss not counted in Misses: the prediction was right, but
			// without that boundary the flow dependence falls inside one
			// chunk and cannot conflict.
			r.ctrl.Conflict(r.chain[rd.conflictAt-1], rd.probe)
		}
	}
	if rd.err != nil && rd.f < rd.armed {
		squashed += r.chunks[rd.f].work
	}
	r.pend.SquashedIters += squashed
}

// verdicts resolves the predictions of the round's launched chunks and
// reports whether another round follows. Committed speculative chunks
// resolve their row's prediction as a hit. Squashed chunks are misses
// only when the walk ended on a chunk that ran out of traversal — their
// start genuinely never appeared. Behind a *capped* chunk the squash is
// a capacity artifact (the breaking chunk simply was not allowed to walk
// far enough to validate), so those rows' verdicts are deferred to the
// next round, which retries them from an architecturally correct
// position. Without this distinction a cap below the chunk span (a
// structure that grew past the derived cap) would read as sustained
// misprediction and demote a perfectly predictable workload. A conflict
// squash is likewise no miss: the prediction was right (the chunk's
// start was validated) — the data raced, which the gate hears separately
// (squash). Slots cancellation left unlaunched resolved nothing and get
// no verdict. No round follows when the last committed chunk reached the
// end of the traversal.
func (r *Runner[S, A]) verdicts() bool {
	rd := &r.rd
	again := rd.conflictAt >= 0 || r.chunks[rd.f].capped
	for i := 1; i < rd.armed; i++ {
		if l := r.chunks[i]; l.seen {
			r.noteHit(r.chain[i-1], r.jobs[l.slot].reclaimed)
		} else if !again {
			r.noteMiss(r.chain[i-1], r.jobs[l.slot].reclaimed)
		}
	}
	return again
}

// advance moves the round on to the next one: its position, its chain
// and its cap. The hunter is the chunk the walk broke on: the capped
// chunk (resume from its stop state) or the conflicting chunk (resume
// from its validated start). The row it was hunting heads the next
// chain — the chunk may simply have capped before reaching it — but
// gets that retry once: a later round that caps short of it again drops
// it. After a conflict it is always retried. The chain's last chunk
// hunted nothing. A round that hunted the set goes on over the rows of
// the chunks its walk did not reach, in row order, whose place in the
// traversal no round has found yet. Every continuing round commits at
// least cap iterations or moves past a row, so the loop terminates on
// any finite traversal. Later rounds speculate on every admitted row
// still ahead under the full cap (only round 0 of a probe runs under
// the reduced one).
//
// A deadline cannot be ignored by later rounds: each re-checks ctx
// before it is seeded, and its chunks poll while running; a failure here
// is the invocation's (rd.err).
func (r *Runner[S, A]) advance(ctx context.Context) {
	rd := &r.rd
	hunter := rd.f
	rd.cur = r.chunks[rd.f].s
	if rd.conflictAt >= 0 {
		hunter = rd.conflictAt
		rd.cur = r.jobs[hunter].lanes[0].start // DOACROSS: one chunk per slot
	}
	next := len(r.pred.rows)
	if hunter < rd.n-1 {
		next = r.chain[hunter]
		if rd.index > 0 && rd.conflictAt < 0 {
			next++
		}
	}
	rd.index++
	// Fault-injection site: an injected Err/Cancel between rounds aborts
	// the invocation in the exact window where partial commits and
	// re-planned chunks coexist.
	if rd.err = ctx.Err(); rd.err == nil {
		rd.err = r.cfg.Faults.Check(faults.RecoveryRound)
	}
	if rd.err != nil {
		return
	}
	r.pend.Recoveries++
	if rd.any {
		chain := r.chain[:0]
		for i := 1; i < rd.armed; i++ {
			switch l := r.chunks[i]; {
			case l.seen:
			case l.start == rd.cur:
				// The walk capped on the chunk's start, where the next round
				// begins: a hit, as index order's next round would match it
				// at once.
				r.noteHit(r.chain[i-1], false)
			default:
				chain = append(chain, r.chain[i-1]) // in place: i-1 ≥ len(chain)
			}
		}
		r.chain = chain
	} else {
		r.admitted(next)
	}
	rd.layout(1+len(r.chain), r.width())
	rd.cap = r.pred.specCap(r.cfg.maxSpec)
}

// finish books the invocation once its last round has committed. Later
// rounds' iterations are charged to the slot of the last chunk round 0
// committed. MisspecInvocations counts any squash; the gate hears the
// verdicts and conflicts row by row instead. A miss turns set hunting on
// (seed), and calmRun invocations in a row whose walks followed every
// chunk to its index successor turn it off. A bootstrap invocation's
// candidates become rows, read every stride from the next invocation on
// if a round hunted the set (predictor.fine), the predictor installs the
// memoizations, and the pairing policy hears round 0's clock.
func (r *Runner[S, A]) finish() {
	rd := &r.rd
	tail := rd.pos - rd.round0
	r.works[rd.last] += tail
	r.pend.TailIters += tail
	r.pend.TotalIters += rd.pos
	if rd.misspec {
		r.pend.MisspecInvocations++
	}
	if r.calm++; r.pend.Misses > 0 || rd.skew {
		r.calm = 0
	}
	r.anyStop = r.group != nil && (r.pend.Misses > 0 || r.anyStop && r.calm < calmRun)
	r.pred.fine = r.pred.fine || rd.hunted
	if rd.boot {
		r.memos = r.pred.promote(rd.pos, r.memos)
	}
	r.pred.apply(rd.pos, r.memos)
	r.pend.LastWorks = r.works
	if r.pairing.forced != 0 || r.exec == nil && rd.t0 == 0 {
		// Pinned, or a width-1 runner's round the policy did not time: no
		// evidence.
		return
	}
	procs := 1 // a width-1 runner's one slot is the invoker's, on one processor
	if r.exec != nil {
		procs = r.exec.procs
	}
	var perIter, self float64
	switch {
	case procs == 1 && rd.slots > 1:
		perIter = math.Inf(1) // the slots take turns on one processor: width cannot pay
	case rd.wall > 0 && rd.round0 > 0 && !rd.reclaimed:
		perIter = float64(rd.wall) / float64(rd.round0)
	}
	// A round wider than the host's processors is never clean, and its
	// invoker's clock is no one's cost: its chunk 0 waits for a processor
	// its own workers hold, and reads as a loop that waits on memory.
	if rd.index == 0 && !rd.misspec && !rd.reclaimed && rd.slots <= procs && rd.steps > 0 {
		self = float64(rd.own) / float64(rd.steps)
	}
	if r.pairing.observe(perIter, rd.rung, self, rd.pos/int64(r.cfg.Threads)) {
		r.pred.stride = r.pred.parts / (r.cfg.Threads * r.pairing.depth())
	}
}

const (
	// calmRun is how many invocations in a row must walk every chunk to
	// its index successor before a runner stops hunting the set.
	calmRun = 8
	// setFanout is how many chunks a round that hunts the set carries per
	// chain a slot keeps in flight, F: its cuts land at random, so F·D
	// chunks on D lanes wait on their longest far less than D chunks do.
	// At F = 4 each chain step compared against twice the starts, and
	// that ate the gain.
	setFanout = 2
)

// admitted fills r.chain, in row order, with the rows in use (every
// stride-th, predictor.stride; every Threads·stride-th on a narrowed
// runner) from index from on that are valid and clear the adaptive
// confidence gate (every valid row when the gate is off or the
// invocation is a probe or narrowed) — the rows a round may speculate on
// — and returns it.
func (r *Runner[S, A]) admitted(from int) []int {
	rows, adm, stride := r.pred.rows, r.chain[:0], r.pred.step()*r.cfg.Threads/r.width()
	for k := stride - 1; k < len(rows); k += stride {
		if k >= from && rows[k].valid && r.admitRow(k) {
			adm = append(adm, k)
		}
	}
	r.chain = adm
	return adm
}
