package spice

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Runner executes invocations of a Spice-parallelized loop. It is the
// one record of a loop's runtime state, over three layers: the predictor
// (memoized chunk starts and planning), the scheduler (dispatch,
// validation chain, commit/squash: the round's steps, Runner methods in
// scheduler.go), and the executor (persistent workers). Every
// invocation, at every width, is Runner.run; one that cannot or should
// not speculate is a round of one slot there, not a second loop.
//
// A Runner executes one invocation at a time: Run must not be called
// concurrently on the same Runner (it panics if it is). For concurrent
// submissions use a Pool, which multiplexes per-invocation runners onto
// one shared executor. Stats is safe to call at any time, including
// while Run executes.
type Runner[S comparable, A any] struct {
	loop    Loop[S, A]
	block   blockFn[S, A] // the loop's block routine (blockOf), behind every traversal
	group   groupFn[S, A] // the group routine of a DOALL loop (blockOf), behind slots of several chunks
	cfg     Config
	pred    *predictor[S]
	exec    *Executor
	home    uint32 // home shard (Executor.stripe): slot i of every round goes to home+i-1
	running atomic.Bool
	stats   runnerStats

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
	// counter updates happen on the invoking goroutine (the round's steps
	// resolve every round's chain there), so pend needs no
	// synchronization; Run publishes it into stats in one step on every
	// exit path, making each invocation atomic to snapshot readers (see
	// runnerStats). Its LastWorks is r.works once the invocation has
	// finished (finish), nil until then.
	pend Stats

	// The confidence gate and its probe clock (nil when
	// Options.Adaptive is off, see adaptive.go). Confined to the Run
	// cycle like the predictor — a Pool hands each in-flight invocation
	// its own runner.
	ctrl *specController
	// pairing decides the shape: the width, and how many chunks a
	// dispatch slot carries (adaptive.go); the depth is pinned to 1 for a
	// DOACROSS loop.
	pairing pairing
	// anyStop is on while the runner's rounds that step chains in groups
	// hunt the set of their predicted starts (seed): from an invocation
	// that records a miss until calmRun invocations in a row in which
	// every chunk the walk reached met its index successor (calm counts
	// them, finish). A runner that cannot group (DOACROSS) never hunts.
	anyStop bool
	calm    int

	// cells is the DOACROSS cell store invocations run against:
	// Loop.Cells unless overridden by BindCells (a Pool binds per
	// session — one store serves one structure).
	cells *Cells

	// The invocation's reusable state (scheduler.go), used by one
	// invocation at a time (the runner serializes; a Pool hands each
	// in-flight invocation its own runner), allocated by NewRunner.
	chunks  []*lane[S, A]    // per chunk of the current round, in chain order: its lane (seed)
	jobs    []chunkJob[S, A] // per dispatch slot
	works   []int64          // per slot: LastWorks
	memos   []memo[S]
	plan    []planEntry // the invocation's memoization plan (predictor.plan): each chunk's is a suffix
	chain   []int       // the round's chain: SVA row behind each speculative chunk
	targets []target[S] // the round's predicted starts, each lane's window of them (seed)
	rd      round[S, A] // the invocation in progress (run)
	// views holds one CellView per dispatch slot of a DOACROSS loop (nil
	// for a DOALL loop). Views are written by the invoker during dispatch
	// and chain resolution (validate, fold), and by exactly one worker
	// while its chunk runs — the same ownership discipline as the
	// chunkJob slots. Whoever claims a slot's copy-out (landCells) reads
	// its view and writes only the store cells the view wrote.
	views    []CellView
	copyGate func() // test hook, nil outside tests (landCells)
	// lease is the runner's inter-round gap history behind the workers'
	// lease (executor.go).
	lease leaseClock

	// The two fields below are the round's only cross-core shared-write
	// state (see scheduler.go's layout invariants); the leading pad keeps
	// them off the invoker-only fields above, and the pad between them
	// gives each its own cache line.
	_ [64]byte
	// abort is the failure barrier of one dispatch round: the lowest
	// chain index that has failed so far (MaxInt64 when none). Chunks
	// with a higher index are certain to be squashed — the validation
	// chain cannot pass a failed chunk — so they stop at their next poll
	// instead of completing doomed work. Chunks at or below the barrier
	// are untouched: they must finish normally for the first error to be
	// attributed deterministically in iteration order.
	abort atomic.Int64
	_     [56]byte
	// lat is the round's completion barrier: one done() per chunk exit,
	// one wait() by the invoker after it runs chunk 0 inline (latch.go).
	lat latch
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

// publish merges one finished invocation's deltas — and, when it set
// them, its per-slot works — into the published totals, then clears the
// delta for the next invocation.
func (st *runnerStats) publish(d *Stats) {
	st.mu.Lock()
	st.total.addCounters(d, 1)
	if d.LastWorks != nil {
		st.total.LastWorks = append(st.total.LastWorks[:0], d.LastWorks...)
	}
	st.mu.Unlock()
	*d = Stats{}
}

// addInto accumulates the published counters into a Stats value. The
// EffectiveThreads gauge is not summed — read and Pool.Stats set it
// from the relevant runner.
func (st *runnerStats) addInto(s *Stats) {
	st.mu.Lock()
	s.addCounters(&st.total, 1)
	st.mu.Unlock()
}

// read returns a consistent snapshot of the published counters.
func (st *runnerStats) read() Stats {
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
	return r.runInvocation(ctx, start, false)
}

// runInvocation is Run plus the batched front door's load-aware flag.
// Every invocation is Runner.run over rounds of slots; all that is
// decided here is n, round 0's chunk count: 1 plus the rows the
// confidence gate admits. It is 1 — the invocation runs on the invoking
// goroutine alone, which is all "sequential" means in this runtime —
// when the batched door sheds, no row is predicted, or the gate closed
// every row; a width-1 runner predicts rows only above depth 1. Such an
// invocation still memoizes when its grid has rows in use, so later ones
// have predictions to test: a shed one by the position plan, as chunk 0
// of a round does (it has a trip count to plan from, or plans nothing),
// the others by the bootstrap plan (predictor.go). A
// runner the shape policy narrowed (pairing.one) runs at width 1: no
// demand on the executor, no shed, no gate, and a chain of every
// Threads-th row of its grid (admitted). The invocation's counter deltas
// (accumulated in r.pend by the round's steps) are published in one
// step on every exit path.
func (r *Runner[S, A]) runInvocation(ctx context.Context, start S, loadAware bool) (A, error) {
	var zero A
	if !r.running.CompareAndSwap(false, true) {
		panic("spice: concurrent Run on a single Runner (wrap the loop in a Pool)")
	}
	defer r.running.Store(false)
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	if r.loop.speculative() {
		if r.cells == nil {
			return zero, ErrNoCells
		}
		for _, rd := range r.loop.Reductions {
			if rd.Cell < 0 || rd.Cell >= r.cells.Size() {
				return zero, fmt.Errorf("%w: reduction cell %d, store size %d", ErrBadReduction, rd.Cell, r.cells.Size())
			}
		}
	}
	defer r.stats.publish(&r.pend)
	r.pend.Invocations++
	// Only a round that steps chains in groups hunts the set: otherwise
	// the rounds read the grid in index order again.
	r.pred.fine = r.pred.fine && r.anyStop && r.pairing.depth() > 1

	if r.width() > 1 {
		// Every parallel-capable invocation registers its speculative slots
		// on the shared executor for its whole duration, so the load-aware
		// path below sees pressure from invocations that are momentarily
		// between dispatch rounds (or timesliced off-CPU) and not just from
		// queued tasks.
		slots := int64(r.cfg.Threads - 1)
		r.exec.demand.Add(slots)
		defer r.exec.demand.Add(-slots)

		// Batched/async shed (RunBatch and Submit only): keep the invocation
		// on the submitting goroutine when speculation cannot pay for
		// itself —
		//
		//   - the shared executor is overloaded: a task already queued or
		//     running per worker (the entries this runner's own reclaimed
		//     slots left behind excluded), or the other invocations in
		//     flight already have a speculative slot per worker, so
		//     speculative chunks would only queue behind their work; or
		//   - the expected traversal is too small to amortize chunking: with
		//     fewer than ctxPollEvery iterations per chunk, dispatch and
		//     wakeup round-trips rival the chunk's own work, and a batch
		//     full of such invocations is fastest executed back to back.
		//
		// Checked before the gate is consulted, so the shed neither runs
		// nor probes it. Plain Run never sheds: a lone blocking caller
		// asked for this invocation to be parallelized.
		if r.rd.shed = loadAware && (r.exec.overloaded(r.cfg.Threads, r.queuedEntries()) ||
			r.pred.prevTotal < int64(r.cfg.Threads)*ctxPollEvery); r.rd.shed {
			r.pend.BatchSheds++
		} else if r.ctrl != nil {
			r.rd.probe = r.ctrl.Begin()
		}
	}
	if r.cfg.Threads > 1 && !r.rd.shed {
		// The gauge shows the invocation's width while it runs, and the
		// width the runner runs at once it is over, on every exit path.
		r.stats.effectiveThreads.Store(r.gateWidth())
		defer func() { r.stats.effectiveThreads.Store(r.gateWidth()) }()
	}
	n := 1
	// A grid with no row in use (a width-1 runner at depth 1) predicts
	// nothing: its invocation is the plain sequential path.
	if r.pred.stride < r.pred.parts && !r.rd.shed {
		if rows := r.pred.predicted(); rows > 0 {
			n = 1 + len(r.admitted(0))
			if r.ctrl != nil && !r.pairing.one() && n-1 < rows {
				// The gate left a predicted row out: the probe clock runs.
				r.ctrl.narrowed++
				if n == 1 {
					r.pend.SequentialFallbacks++
				}
			}
		}
	}

	acc, err := r.run(ctx, start, n)

	// Only contained panics (*PanicError, including wrapped batch-item
	// forms) advance the streak behind Pool quarantine; a panic that
	// propagates out of the invocation (possible only through injected
	// faults — the library contains body panics) bypasses it, as does
	// every other error.
	if err != nil {
		var pe *PanicError
		if errors.As(err, &pe) {
			r.consecPanics++
		}
		return zero, err
	}
	r.consecPanics = 0
	return acc, nil
}

// gateWidth is the width the runner runs at now: 1 while the shape
// policy has narrowed it (pairing) or the confidence gate closes every
// predicted row, else Threads (a probe opens every row).
func (r *Runner[S, A]) gateWidth() int64 {
	if r.pairing.one() || r.ctrl != nil && r.pred.predicted() > 0 && len(r.admitted(0)) == 0 {
		return 1
	}
	return int64(r.cfg.Threads)
}

// width is the slots this invocation's rounds may use: Threads, or 1
// while the shape policy runs the runner narrowed (pairing.one).
func (r *Runner[S, A]) width() int {
	if r.pairing.one() {
		return 1
	}
	return r.cfg.Threads
}

// admitRow reports whether SVA row k may be speculated on this
// invocation: always outside adaptive mode or narrowed; inside it, when
// the row clears the confidence floor or the invocation is a probe
// (probes bypass the gate so gated rows can earn their confidence back).
func (r *Runner[S, A]) admitRow(k int) bool {
	if r.gate() == nil || r.rd.probe || r.pairing.one() {
		return true
	}
	return r.ctrl.Admit(k)
}

// gate is the confidence gate rows answer to: the controller, except
// while the rows are a set invocation's (predictor.fine), which every
// set invocation places afresh on the nodes a relinked list has now, so
// a row's record says nothing about its next start.
func (r *Runner[S, A]) gate() *specController {
	if r.pred.fine {
		return nil
	}
	return r.ctrl
}

// noteHit records a committed speculative chunk for row k, and feeds
// the row's confidence when the controller is on; reclaimed says the
// invoker ran it itself. Reclaimed is counted here and in noteMiss,
// with the verdict, so Reclaimed ≤ Hits + Misses holds by construction.
func (r *Runner[S, A]) noteHit(k int, reclaimed bool) {
	r.pend.Hits++
	if c := r.gate(); c != nil {
		c.Hit(k)
	}
	if reclaimed {
		r.pend.Reclaimed++
	}
}

// noteMiss records a squashed speculative chunk for row k.
func (r *Runner[S, A]) noteMiss(k int, reclaimed bool) {
	r.pend.Misses++
	if c := r.gate(); c != nil {
		c.Miss(k)
	}
	if reclaimed {
		r.pend.Reclaimed++
	}
}

// reset clears all cross-invocation adaptation: memoized predictions,
// row confidence, and the probe clock. A Pool resets a runner on
// session boundaries so nothing learned on one caller's structure leaks
// into another's.
func (r *Runner[S, A]) reset() {
	r.pred.reset()
	if r.ctrl != nil {
		r.ctrl.Reset()
	}
	r.pairing.reset()
	r.pred.stride = r.pred.parts / (r.cfg.Threads * r.pairing.depth())
	r.anyStop, r.calm = false, 0
	// A recycled runner carries nothing from its previous owner: no
	// caller state, no LastWorks, and no gaps measured on the previous
	// owner's cadence, which grant the next one nothing.
	r.release()
	clear(r.works)
	r.lease = leaseClock{}
	// Restore the construction-time cell binding: a session-scoped
	// BindCells must not leak into the next session.
	r.cells = r.loop.Cells
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
func (r *Runner[S, A]) Stats() Stats { return r.stats.read() }

// Close releases the runner's executor workers when the runner owns
// them (a runner built with Config.Executor leaves the shared executor
// alone). Run must not be called after Close. Close is idempotent.
func (r *Runner[S, A]) Close() {
	if r.exec != nil && r.cfg.Executor == nil {
		r.exec.Close()
	}
}
