package spice

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Runner executes invocations of a Spice-parallelized loop. It composes
// the three runtime layers: the predictor (memoized chunk starts and
// planning), the scheduler (dispatch, validation chain, commit/squash),
// and the executor (persistent workers).
//
// A Runner executes one invocation at a time: Run must not be called
// concurrently on the same Runner (it panics if it is). For concurrent
// submissions use a Pool, which multiplexes per-invocation runners onto
// one shared executor. Stats is safe to call at any time, including
// while Run executes.
type Runner[S comparable, A any] struct {
	loop     Loop[S, A]
	block    blockFn[S, A] // the loop's block routine (blockOf), behind every traversal
	cfg      Config
	pred     *predictor[S]
	sched    *scheduler[S, A]
	exec     *Executor
	home     uint32 // home shard (Executor.stripe): slot i of every round goes to home+i-1
	ownsExec bool
	running  atomic.Bool
	stats    runnerStats

	// consecPanics counts consecutive invocations that returned a
	// contained *PanicError; a success resets it, other errors (ctx
	// cancellation, body errors) leave the streak. A Pool reads it on
	// release to quarantine poisoned runners (see Pool.release).
	// Deliberately NOT cleared by reset(): a runner that panicked across
	// a session boundary is just as poisoned. Written and read only
	// under the runner's single-invocation serialization, so it needs no
	// synchronization.
	consecPanics int

	// pend accumulates the in-flight invocation's counter deltas. All
	// counter updates happen on the invoking goroutine (the scheduler
	// resolves every round's chain there), so pend needs no
	// synchronization; Run publishes it into stats in one step on every
	// exit path, making each invocation atomic to snapshot readers (see
	// runnerStats).
	pend      Stats
	pendWorks bool // s.works holds a fresh LastWorks to publish

	// Adaptive speculation controller (nil when Options.Adaptive is
	// off, see adaptive.go). Confined to the Run cycle like the
	// predictor — a Pool hands each in-flight invocation its own
	// runner.
	ctrl *specController

	// seqCands is runSequential's reusable bootstrap-sample buffer, so
	// the sequential path (the adaptive fallback's steady state) is as
	// allocation-free as the parallel one.
	seqCands []seqCand[S]

	// cells is the DOACROSS cell store invocations run against:
	// Loop.Cells unless overridden by BindCells (a Pool binds per
	// session — one store serves one structure). dview is the sequential
	// path's direct view onto it (unbuffered loads and stores).
	cells *Cells
	dview CellView
}

// seqCand is one bootstrap memoization candidate sampled by
// runSequential at a power-of-two position.
type seqCand[S comparable] struct {
	state S
	pos   int64
}

// runnerStats holds the published counters behind Stats. An invocation
// accumulates its deltas in the runner's pend field (single-goroutine,
// no synchronization) and publishes them here in one mutex-guarded step
// when it finishes — so any snapshot, however it interleaves with
// concurrent invocations or with Pool release, sees every invocation
// either entirely or not at all.
type runnerStats struct {
	mu    sync.Mutex
	total Stats // LastWorks is a reused buffer, copied out on snapshot

	// effectiveThreads stays a live gauge (not part of the published
	// batch): while an invocation runs it shows the width the invocation
	// was dispatched at.
	effectiveThreads atomic.Int64
}

// publish merges one finished invocation's deltas — and, when
// worksDirty, its per-chunk works — into the published totals, then
// clears the delta for the next invocation.
func (st *runnerStats) publish(d *Stats, works []int64, worksDirty bool) {
	st.mu.Lock()
	st.total.addCounters(*d, 1)
	if worksDirty {
		st.total.LastWorks = append(st.total.LastWorks[:0], works...)
	}
	st.mu.Unlock()
	*d = Stats{}
}

// addInto accumulates the published counters into a Stats value. The
// EffectiveThreads gauge is not summed — snapshot and Pool.Stats set it
// from the relevant runner.
func (st *runnerStats) addInto(s *Stats) {
	st.mu.Lock()
	s.addCounters(st.total, 1)
	st.mu.Unlock()
}

// snapshot returns a consistent copy of the published counters.
func (st *runnerStats) snapshot() Stats {
	var s Stats
	st.mu.Lock()
	s = st.total
	s.LastWorks = append([]int64(nil), st.total.LastWorks...)
	st.mu.Unlock()
	s.EffectiveThreads = st.effectiveThreads.Load()
	return s
}

// Run executes one invocation of the loop from start and returns the
// merged accumulator — always exactly the sequential result.
//
// ctx bounds the invocation: a cancelled or expired context stops chunk
// dispatch, makes running chunks (including squash-recovery rounds)
// return at the next poll point (every few hundred iterations), and
// surfaces as ctx.Err(). A nil ctx is treated as context.Background().
// If the traversal completes before cancellation is observed, the result
// is returned normally.
//
// Failures are contained: a BodyErr error or a panicking body on a
// worker goroutine squashes the speculative chunks after it and returns
// the first-in-iteration-order error (a panic as *PanicError) instead of
// crashing the process. On any non-nil error the accumulator is the zero
// value and the predictor keeps its last good memoizations, so the next
// Run speculates normally.
func (r *Runner[S, A]) Run(ctx context.Context, start S) (A, error) {
	return r.run(ctx, start, false)
}

// run is Run plus the batched front door's load-aware flag, wrapping
// the invocation with the panic-streak bookkeeping behind Pool
// quarantine. Only contained panics (*PanicError, including wrapped
// batch-item forms) advance the streak; a panic that propagates out of
// the invocation (possible only through injected faults — the library
// contains body panics) bypasses it, as does every other error.
func (r *Runner[S, A]) run(ctx context.Context, start S, loadAware bool) (A, error) {
	acc, err := r.runInvocation(ctx, start, loadAware)
	if err == nil {
		r.consecPanics = 0
	} else {
		var pe *PanicError
		if errors.As(err, &pe) {
			r.consecPanics++
		}
	}
	return acc, err
}

// runInvocation executes one invocation. The invocation's counter
// deltas (accumulated in r.pend by the scheduler) are published in one
// step on every exit path.
func (r *Runner[S, A]) runInvocation(ctx context.Context, start S, loadAware bool) (A, error) {
	if !r.running.CompareAndSwap(false, true) {
		panic("spice: concurrent Run on a single Runner (wrap the loop in a Pool)")
	}
	defer r.running.Store(false)
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		var zero A
		return zero, err
	}
	if r.loop.speculative() {
		if r.cells == nil {
			var zero A
			return zero, ErrNoCells
		}
		for _, rd := range r.loop.Reductions {
			if rd.Cell < 0 || rd.Cell >= r.cells.Size() {
				var zero A
				return zero, fmt.Errorf("%w: reduction cell %d, store size %d", ErrBadReduction, rd.Cell, r.cells.Size())
			}
		}
	}
	defer func() { r.stats.publish(&r.pend, r.sched.works, r.pendWorks); r.pendWorks = false }()
	r.pend.Invocations++
	if r.cfg.Threads == 1 {
		return r.runSequential(ctx, start)
	}

	// Every parallel-capable invocation registers its demand on the
	// shared executor for its whole duration, so the load-aware path
	// below sees pressure from invocations that are momentarily between
	// dispatch rounds (or timesliced off-CPU) and not just from queued
	// tasks.
	r.exec.demand.Add(1)
	defer r.exec.demand.Add(-1)

	// Batched/async shed (RunBatch and Submit only): run this invocation
	// sequentially on the submitting goroutine when speculation cannot
	// pay for itself —
	//
	//   - the shared executor is overloaded: a task already queued or
	//     running per worker, or enough concurrent invocations in flight
	//     to cover every worker, so speculative chunks would only queue
	//     behind other invocations' work; or
	//   - the expected traversal is too small to amortize chunking: with
	//     fewer than ctxPollEvery iterations per chunk, dispatch and
	//     wakeup round-trips rival the chunk's own work, and a batch
	//     full of such invocations is fastest executed back to back.
	//
	// Shedding skips the dispatch/park machinery entirely but still
	// memoizes bootstrap candidates, so the predictor stays warm for
	// when load drops or the traversal grows. Checked before the
	// adaptive controller is consulted, so the shed neither feeds nor
	// perturbs the throttle. Plain Run never sheds: a lone blocking
	// caller asked for this invocation to be parallelized.
	if loadAware && (r.exec.overloaded(r.cfg.Threads) ||
		r.pred.prevTotal < int64(r.cfg.Threads)*ctxPollEvery) {
		r.pend.BatchSheds++
		return r.runSequential(ctx, start)
	}

	// Adaptive throttle: the controller picks this invocation's width
	// (and whether it is an upward probe); the dispatch plan below then
	// drops low-confidence rows. Either can collapse the invocation to
	// sequential execution — which still memoizes bootstrap candidates,
	// so later probes have fresh predictions to test.
	eff, probe := r.cfg.Threads, false
	if r.ctrl != nil {
		eff, probe = r.ctrl.Begin()
		// While the invocation runs the gauge shows its dispatch width
		// (including a probe's temporary widening); the deferred store
		// settles it on the controller's chosen width on every exit
		// path — error returns included, where Observe is skipped.
		defer func() {
			r.stats.effectiveThreads.Store(int64(r.ctrl.Effective()))
		}()
	}
	r.stats.effectiveThreads.Store(int64(eff))
	if !r.pred.havePredictions() {
		acc, err := r.runSequential(ctx, start)
		if err == nil {
			r.observe(specSkipped)
		}
		return acc, err
	}
	rows := r.pred.snapshot()
	n := 1
	if eff > 1 {
		n = r.sched.planDispatch(r, rows, eff, probe)
	}
	if n == 1 {
		if r.ctrl != nil {
			r.pend.SequentialFallbacks++
		}
		acc, err := r.runSequential(ctx, start)
		if err == nil {
			if eff > 1 {
				// The confidence gate dropped every row: an immediate
				// demotion to sequential width, which also starts the
				// probe clock.
				r.observe(specGated)
			} else {
				r.observe(specClean)
			}
		}
		return acc, err
	}
	if r.loop.speculative() {
		r.sched.armCells(r.cells, r.loop.Reductions)
	}
	c0 := r.pend.Conflicts
	acc, misspec, err := r.sched.run(r, ctx, start, rows, n, probe)
	if err == nil {
		switch {
		case r.pend.Conflicts > c0:
			// A read/write-set conflict squashed work this invocation.
			// Reported to the controller as its own loss outcome:
			// narrower width genuinely reduces the cross-chunk conflict
			// surface, so throttling is the right response even though
			// the predictions themselves were validated.
			r.observe(specConflict)
		case misspec:
			r.observe(specMisspec)
		default:
			r.observe(specClean)
		}
	}
	return acc, err
}

// observe feeds one invocation outcome to the controller (the deferred
// store in Run settles the EffectiveThreads gauge afterwards).
func (r *Runner[S, A]) observe(outcome specOutcome) {
	if r.ctrl != nil {
		r.ctrl.Observe(outcome)
	}
}

// admitRow reports whether SVA row k may be speculated on this
// invocation: always outside adaptive mode; inside it, when the row
// clears the confidence floor or the invocation is a probe (probes
// bypass the gate so gated rows can earn their confidence back).
func (r *Runner[S, A]) admitRow(k int, probe bool) bool {
	if r.ctrl == nil || probe {
		return true
	}
	return r.pred.conf.Admit(k)
}

// noteHit records a committed speculative chunk for row k; reclaimed
// says the invoker ran it itself. Reclaimed is counted here and in
// noteMiss, with the verdict, so Reclaimed ≤ Hits + Misses holds by
// construction.
func (r *Runner[S, A]) noteHit(k int, reclaimed bool) {
	r.pend.Hits++
	r.pred.conf.Hit(k)
	if reclaimed {
		r.pend.Reclaimed++
	}
}

// noteMiss records a squashed speculative chunk for row k.
func (r *Runner[S, A]) noteMiss(k int, reclaimed bool) {
	r.pend.Misses++
	r.pred.conf.Miss(k)
	if reclaimed {
		r.pend.Reclaimed++
	}
}

// reset clears all cross-invocation adaptation: memoized predictions,
// row confidence, and the controller's throttle state. A Pool resets a
// runner on session boundaries so nothing learned on one caller's
// structure leaks into another's.
func (r *Runner[S, A]) reset() {
	r.pred.reset()
	if r.ctrl != nil {
		r.ctrl.Reset()
	}
	// Zero the sequential-path sample buffer too: a parked runner must
	// not pin the closed session's data structure through sampled
	// states (the sequential counterpart of scheduler.release).
	// Through the full capacity: entries beyond len survive shrinking
	// runs, and a cancelled runSequential leaves samples in the backing
	// array without ever storing the slice back.
	cands := r.seqCands[:cap(r.seqCands)]
	for i := range cands {
		cands[i] = seqCand[S]{}
	}
	r.seqCands = cands[:0]
	// And the scheduler's full slot set: the per-invocation release
	// covers only the last round's width, while a session handoff must
	// scrub memo buffers and any wider slots a later round dirtied long
	// ago.
	r.sched.purge()
	// Restore the construction-time cell binding and drop the direct
	// view's store reference: a session-scoped BindCells must not leak
	// into the next session, nor pin the closed session's store.
	r.cells = r.loop.Cells
	r.dview.release()
	r.stats.effectiveThreads.Store(int64(r.cfg.Threads))
}

// BindCells binds the DOACROSS cell store subsequent invocations run
// against, replacing Loop.Cells or a previous binding (nil restores
// "no store": the next speculative Run fails with ErrNoCells). Must not
// be called while Run executes; like Run itself, it is single-caller.
// Pool users bind through Session.BindCells — one store must never see
// two concurrent invocations.
func (r *Runner[S, A]) BindCells(c *Cells) {
	if r.running.Load() {
		panic("spice: BindCells while Run executes")
	}
	r.cells = c
}

// MustRun is the v1 infallible signature: Run with a background context,
// panicking on error. Meant for loops with an infallible Body and no
// deadline; a contained worker panic (*PanicError) is re-panicked on the
// caller.
func (r *Runner[S, A]) MustRun(start S) A {
	return mustRun(r.Run(context.Background(), start))
}

// mustRun is the shared MustRun contract: unwrap or panic.
func mustRun[A any](acc A, err error) A {
	if err != nil {
		panic(err)
	}
	return acc
}

// Stats returns a snapshot of the runner's counters. Safe to call
// concurrently with Run.
func (r *Runner[S, A]) Stats() Stats { return r.stats.snapshot() }

// Close releases the runner's executor workers when the runner owns
// them (a runner built with Config.Executor leaves the shared executor
// alone). Run must not be called after Close. Close is idempotent.
func (r *Runner[S, A]) Close() {
	if r.ownsExec {
		r.exec.Close()
	}
}

// String describes the runner configuration.
func (r *Runner[S, A]) String() string {
	mode := "membership"
	if r.cfg.Positional {
		mode = "positional"
	}
	return fmt.Sprintf("spice.Runner{threads=%d, validation=%s}", r.cfg.Threads, mode)
}

// runSequential executes the loop on the calling goroutine, sampling
// bootstrap candidates at power-of-two indices so the next invocation
// can speculate (the paper's first-invocation memoization). It honors
// ctx at the same amortized poll interval as parallel chunks and
// contains body panics as *PanicError, so the bootstrap invocation obeys
// the same contract as the parallel ones.
//
// The traversal runs through the same block routine as the parallel
// chunks (Runner.block, blockloop.go), hunting nothing: blocks bound at
// the next poll point or bootstrap-sample index, with the per-iteration
// body just Done/Body/Next on register-resident state — the sequential
// fallback (the adaptive controller's steady state on hostile
// workloads) pays the same near-zero per-iteration overhead as the
// parallel path.
func (r *Runner[S, A]) runSequential(ctx context.Context, start S) (out A, err error) {
	defer func() {
		if v := recover(); v != nil {
			var zero A
			out, err = zero, newPanicError(v)
		}
	}()
	done := r.loop.Done
	// Sequential DOACROSS execution is the reference semantics: every
	// Load/Store goes straight through to the store — no buffering, no
	// validation. Reductions accumulate in the view and fold into the
	// store on every exit (normal, body error, cancellation, contained
	// panic): a failing sequential run applies its updates up to the
	// failure point, exactly as a failing chunk's commit does.
	var view *CellView
	if r.loop.speculative() {
		view = &r.dview
		view.beginDirect(r.cells, r.loop.Reductions)
		defer view.fold()
	}
	acc := r.loop.Init()
	cands := r.seqCands[:0]
	// Store the buffer back on every exit path: an error return must
	// neither strand sampled states beyond len (reset clears only up to
	// cap of what it can see) nor drop a grown backing array.
	defer func() { r.seqCands = cands }()
	nextSample := int64(1) << 62
	if r.cfg.Threads > 1 {
		nextSample = 1
	}
	nextPoll := int64(ctxPollEvery - 1)
	var work int64
	s := start
	var noStop S // the sequential path hunts nothing
	for {
		bound := nextPoll
		if nextSample < bound {
			bound = nextSample
		}
		var k int64
		var stop blockStop
		var verr error
		s, acc, k, stop, verr = r.block(view, s, acc, noStop, false, bound-work)
		work += k
		if stop == blockDone {
			break
		}
		if stop == blockFailed {
			var zero A
			return zero, verr
		}
		// Boundary events, in the per-iteration loop's order: the
		// event's iteration must start (Done first), then poll, then
		// sample the live-in state ahead of the body.
		if done(s) {
			break
		}
		if work == nextPoll {
			if cerr := ctx.Err(); cerr != nil {
				var zero A
				return zero, cerr
			}
			nextPoll += ctxPollEvery
		}
		if work == nextSample {
			cands = append(cands, seqCand[S]{s, work})
			nextSample *= 2
		}
	}
	r.pend.TotalIters += work
	works := r.sched.works
	clear(works[:max(r.sched.used, 1)])
	works[0] = work
	r.sched.used = 1
	r.pendWorks = true

	// Promote the candidates nearest each chunk boundary. Chosen
	// positions must increase by row: a row behind its predecessor would
	// start a chunk inside an earlier chunk.
	memos := r.sched.memos[:0]
	if work > 0 && r.cfg.Threads > 1 {
		lastPos := int64(0)
		for k := 1; k < r.cfg.Threads; k++ {
			boundary := work * int64(k) / int64(r.cfg.Threads)
			best, bestDist := -1, int64(-1)
			for ci, c := range cands {
				if c.pos <= lastPos {
					continue
				}
				d := c.pos - boundary
				if d < 0 {
					d = -d
				}
				if best == -1 || d < bestDist {
					best, bestDist = ci, d
				}
			}
			if best == -1 {
				continue
			}
			// lastPos also consumes the candidate: positions are strictly
			// increasing, so the pos > lastPos filter never re-selects it.
			lastPos = cands[best].pos
			memos = append(memos, memo[S]{row: k - 1, state: cands[best].state, pos: cands[best].pos})
		}
	}
	r.sched.memos = memos
	r.pred.apply(work, memos)
	return acc, nil
}
