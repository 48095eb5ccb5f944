// Package spice is a native Go implementation of Spice — speculative
// parallel iteration chunk execution (Raman, Vachharajani, Rangan,
// August; CGO 2008) — for loops that traverse pointer-based sequences
// (linked lists, tree threads, work lists) that cannot be indexed or
// split ahead of time.
//
// Spice parallelizes such a loop across goroutines by *value-predicting*
// a handful of loop live-ins: the states at which each chunk of the
// iteration space begins. The predictions are memoized from the previous
// invocation of the loop, exploiting the paper's two insights:
//
//   - only threads−1 values need predicting per invocation, and
//   - predicting that a state will appear *somewhere* in the traversal
//     is far more reliable than predicting where: thread i validates
//     thread i+1 simply by encountering thread i+1's predicted start
//     during its own traversal.
//
// The runtime is layered (see README.md):
//
//   - predictor: the memoized chunk-start states (SVA) and the
//     BalancedChunks planner deciding where the next invocation
//     memoizes.
//   - scheduler: an invocation as a loop over rounds — chunk dispatch,
//     the validation chain, commit/squash bookkeeping, and another
//     round from the live position when a chunk capped or conflicted
//     (parallel squash recovery) — the round's steps as methods of the
//     Runner, over its one record of per-loop state.
//   - executor: a fixed pool of persistent worker goroutines, one
//     bounded channel per worker, from which an idle worker steals one
//     entry at a time; no goroutine is spawned per invocation.
//
// The one tuning value a caller sets is the thread count; every other
// quantity is derived — from the previous invocation (chunk starts,
// boundaries, the runaway bound) or from the topology (worker counts).
// See Config.
//
// A Runner executes one loop invocation at a time. Each chunk
// accumulates into a private accumulator; validated accumulators are
// merged in iteration order, so side effects belong in the accumulator
// (apply them after Run returns), never in shared state. Mis-speculated
// chunks are discarded and their iterations re-executed, so Run always
// returns exactly the sequential result.
//
// Run is context-first and fallible: a cancelled or expired context
// stops an in-flight invocation (dispatch, running chunks, and squash
// recovery all honor it), a BodyErr error or a panicking body surfaces
// as the first failure in sequential iteration order (panics contained
// as *PanicError instead of crashing the process), and MustRun
// preserves the v1 infallible signature for loops that need neither.
//
// A Pool is the concurrent front door: many goroutines submit
// invocations simultaneously, each served by its own runner state, all
// sharing one executor's workers. Beyond blocking Run, a Pool offers
// RunBatch (a slice of invocations served by one runner acquisition)
// and Submit (asynchronous, returning a Future); both shed speculation
// and run in place when the executor is saturated or the traversal too
// small to amortize chunk dispatch (see README "Batching & async
// submission").
//
// The caller may mutate the traversed data structure freely *between*
// invocations — that is the scenario Spice is designed for — but not
// during Run.
package spice

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"

	"spice/internal/faults"
)

// Loop describes the traversal to parallelize, generic over the live-in
// state S (e.g. a list-node pointer) and the accumulator A.
//
// The modelled loop is:
//
//	for s := start; !Done(s); s = Next(s) {
//	    acc = Body(s, acc)        // or acc, err = BodyErr(s, acc)
//	}
//
// Exactly one of Body and BodyErr must be set.
//
// States are compared with == on every iteration at every width (a chunk
// hunts its successor's predicted start), so S should be cheap to
// compare, and an interface S holding an uncomparable value surfaces as
// a *PanicError.
type Loop[S comparable, A any] struct {
	// Done reports whether the traversal has ended (e.g. s == nil).
	Done func(S) bool
	// Next advances the live-in state by one iteration.
	Next func(S) S
	// Body processes one element, returning the updated accumulator.
	// Body must not mutate shared state: it runs concurrently with
	// other chunks' Body calls (collect side effects in A).
	Body func(S, A) A
	// BodyErr is the fallible form of Body, mutually exclusive with it.
	// A non-nil error stops the invocation: speculative chunks after the
	// failing iteration are squashed, and Run returns the error of the
	// first failing iteration in sequential order. An error returned
	// inside a chunk that is squashed anyway (its start was never
	// validated) is discarded with the chunk — exactly as if the
	// iteration had never run, which sequentially it would not have.
	BodyErr func(S, A) (A, error)
	// SpecBody is the DOACROSS form of Body: the loop body additionally
	// reads and writes loop-carried state through the chunk's CellView
	// (speculative loads/stores with commit-time conflict validation, and
	// declared reductions via Reduce). See README "DOACROSS speculation".
	SpecBody func(S, A, *CellView) A
	// SpecBodyErr is the fallible form of SpecBody. Exactly one of Body,
	// BodyErr, SpecBody and SpecBodyErr must be set.
	SpecBodyErr func(S, A, *CellView) (A, error)
	// Scan is the optional block form of the loop: the same iterations
	// as Done/Body/Next (or Done/SpecBody/Next), written as one compiled
	// loop, so that a chunk's inner loop makes no indirect call per
	// iteration. The runtime hands it one block at a time:
	//
	//	Scan(s, acc, v, stop, n): run from s while fewer than n
	//	iterations have run, s is not Done and s != stop; return the
	//	state reached, the accumulator and the number of iterations run.
	//
	// v is the chunk's CellView (nil for a loop with Body); a block that
	// updates reductions may hoist v.Accumulators() ahead of its loop and
	// fold into the slice, with each reduction's declared operator, where
	// SpecBody calls v.Reduce (the slice is good for this call). stop is
	// the successor chunk's predicted start, or the zero S when the block
	// hunts nothing; a Scan that stops on a live state equal to a zero
	// stop is resumed by the runtime, which runs that one iteration
	// through Body/Next. Scan requires Body or SpecBody — they stay the
	// reference semantics and the path Scan must agree with — and has no
	// error channel, so it is rejected beside BodyErr/SpecBodyErr. A
	// returned count below 0 or above n, or an early stop on a state
	// that is neither Done nor stop, fails the invocation with
	// ErrBadScan. A panicking Scan is contained like a panicking Body
	// (*PanicError, discarded with a squashed chunk), with one
	// difference: the runtime cannot see how far the block got, so the
	// iterations a panicked chunk is charged (Stats.SquashedIters) are
	// exact to the boundary of the block that panicked — at most
	// ctxPollEvery iterations short — and not to the iteration.
	//
	// Write the per-element work once, as a named function that both
	// Body and Scan call (see README "Block form"); a block that folds
	// through Accumulators differs from its SpecBody in those folds, and
	// a differential test of the two forms holds them together. Worth
	// setting when the body is a few nanoseconds and the structure is
	// cache-resident; a body ≫ 10 ns or a memory-bound traversal hides
	// the three calls. A memory-bound traversal may also run without
	// Scan: a runner that finds its chunks waiting on memory steps up to
	// four of them per slot in lockstep through Done/Body/Next, which one
	// compiled Scan loop cannot interleave (Stats.PairedRounds, README
	// "Chains per slot"). That is one more reason Body and SpecBody stay
	// the reference semantics.
	Scan func(s S, acc A, v *CellView, stop S, n int64) (S, A, int64)
	// Init returns the identity accumulator a fresh chunk starts from.
	Init func() A
	// Merge combines two partial accumulators; a is the accumulator for
	// earlier iterations, b for later ones. Merge must be associative
	// over the iteration order.
	Merge func(a, b A) A
	// Cells is the loop-carried cell store a SpecBody/SpecBodyErr runs
	// against. Optional at construction — a Pool serving many structures
	// binds a store per session with Session.BindCells instead — but a
	// spec-bodied Run without a bound store fails with ErrNoCells.
	Cells *Cells
	// Reductions declares the reduction accumulators (cells updated only
	// through CellView.Reduce or, from Scan, CellView.Accumulators;
	// privatized per chunk, merged in sequential chunk order at commit).
	// Requires a spec body.
	Reductions []Reduction
}

// speculative reports whether the loop uses the DOACROSS cell store.
func (l *Loop[S, A]) speculative() bool {
	return l.SpecBody != nil || l.SpecBodyErr != nil
}

// validate checks that the callbacks are present and consistent.
func (l *Loop[S, A]) validate() error {
	if l.Done == nil || l.Next == nil || l.Init == nil || l.Merge == nil {
		return errors.New("spice: Loop requires Done, Next, Init and Merge")
	}
	bodies := 0
	if l.Body != nil {
		bodies++
	}
	if l.BodyErr != nil {
		bodies++
	}
	if l.SpecBody != nil {
		bodies++
	}
	if l.SpecBodyErr != nil {
		bodies++
	}
	if bodies != 1 {
		return errors.New("spice: Loop requires exactly one of Body, BodyErr, SpecBody or SpecBodyErr")
	}
	if !l.speculative() && (l.Cells != nil || len(l.Reductions) > 0) {
		return errors.New("spice: Loop.Cells/Reductions require SpecBody or SpecBodyErr")
	}
	for _, rd := range l.Reductions {
		if rd.Kind < ReduceSum || rd.Kind > ReduceMax {
			return fmt.Errorf("%w: unknown Kind %d", ErrBadReduction, rd.Kind)
		}
	}
	if l.Scan != nil && l.Body == nil && l.SpecBody == nil {
		return errors.New("spice: Loop.Scan requires Body or SpecBody (it has no error channel)")
	}
	return nil
}

// ctxPollEvery is the amortization interval, in iterations, at which
// chunk loops poll the invocation context and the abort barrier. Large
// enough that the poll is amortized out of the steady-state hot loop;
// small enough that cancellation of a long traversal is observed
// promptly.
const ctxPollEvery = 1024

// PanicError is returned from Run when a loop callback panicked. The
// panic is recovered on the worker (or calling) goroutine, so a
// misbehaving Body degrades to an error return instead of taking down
// the process; an Executor's workers and a Pool remain usable. A panic
// inside a chunk that is squashed anyway (e.g. a corrupted prediction
// walked freed state) is discarded with the chunk and never surfaces.
type PanicError struct {
	// Value is the value the callback panicked with.
	Value any
	// Stack is the stack of the panicking goroutine, captured at
	// recovery.
	Stack []byte
}

func newPanicError(v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Error returns a single-line message; the captured stack is available
// on the Stack field for callers that want the full trace.
func (e *PanicError) Error() string {
	return fmt.Sprintf("spice: loop body panicked: %v", e.Value)
}

// errChunkAborted marks a chunk stopped early by the abort barrier
// because an earlier chunk already failed. Such a chunk is always
// squashed during chain resolution, so this sentinel never escapes Run.
var errChunkAborted = errors.New("spice: chunk aborted after an earlier chunk failed")

// Options tunes the adaptive speculation controller (see README
// "Adaptive speculation"). Spice's speedup collapses when chunk-start
// predictions keep missing: every mis-speculated chunk is squashed and
// re-run, so on hostile iteration patterns fixed-width speculation does
// strictly more work than sequential execution. The controller keeps
// the runtime profitable there with a confidence gate: each SVA row is
// scored on its own record (its chunks' commits, squashes and
// read/write-set conflicts), and the scheduler drops a row below the
// floor from the dispatch chain instead of speculating on it, down to
// pure sequential execution when it drops every row. After every 8
// invocations the gate narrowed, one invocation speculates on every
// row, so a closed row opens again once its prediction holds.
type Options struct {
	// Adaptive enables the controller. Off (the default), the runner
	// speculates at the configured width on every invocation that has
	// predictions — the paper's behaviour.
	Adaptive bool
}

// Config tunes a Runner. As in the paper, the one tuning value is the
// thread count; the runtime derives the rest from the previous
// invocation: the memoized chunk starts, the balanced chunk boundaries,
// and the bound on a speculative chunk's iteration count that stops a
// runaway traversal of a corrupted prediction (e.g. a start node
// unlinked into a cycle) — four times the previous trip count plus
// 1024, or 1<<20 before the first.
type Config struct {
	// Threads is the number of chunks run concurrently (≥ 1).
	Threads int
	// Faults, when non-nil, arms the deterministic fault-injection plane
	// (internal/faults) on the runner's injection sites: chunk bodies,
	// recovery rounds, and executor workers (a Pool adds runner
	// acquisition, and spiced its serving-path sites). This is
	// chaos-testing machinery — production configs leave it nil, which
	// reduces every site to an inlined nil-check; the 0-allocs/op bench
	// gates run with a nil plane and prove the disabled cost.
	Faults *faults.Plane
	// Executor, when non-nil, is a shared worker pool the runner submits
	// its chunks to; the caller owns its lifecycle. When nil, the runner
	// starts (and Close releases) a private executor sized from the
	// topology at construction: min(Threads-1, GOMAXPROCS-1) workers,
	// at least 1 — chunk 0 of every invocation runs inline on the
	// invoking goroutine, so only the speculative chunks need workers,
	// and workers beyond the processors actually available would only
	// add scheduling pressure, never parallelism.
	Executor *Executor
	// Options tunes the adaptive speculation controller.
	Options

	// maxSpec and probeEvery, when positive, replace the derived
	// speculative iteration cap and the probe interval (8). The
	// package's tests set them to reach capped rounds and probes within
	// a few invocations; zero keeps the derivation.
	maxSpec    int64
	probeEvery int
	// depth, when positive, pins the chunks a dispatch slot carries
	// (1..4) instead of deriving it (pairing, adaptive.go). A DOACROSS
	// loop stays at 1 whatever it says. A pinned runner plans on its
	// pinned depth's grid: Threads·depth chunks a round of index order. Tests pin 2 or 4 to
	// run DOALL scenarios with several chunks a slot, and 1 where they pin
	// a chunk layout.
	depth int
}

// Stats reports accumulated Runner (or aggregated Pool) behaviour. An
// invocation's counters are published together, once, when it finishes;
// snapshots are safe to take while invocations run and see every
// invocation either entirely or not at all.
type Stats struct {
	// Invocations counts Run calls.
	Invocations int64
	// MisspecInvocations counts invocations in which at least one
	// speculative chunk was discarded.
	MisspecInvocations int64
	// SquashedIters counts discarded iterations: those of squashed
	// speculative chunks, and the partial work of the chunk a failing
	// invocation failed in — at any width, so a body error at iteration
	// 40 of a width-1 Run adds 40 here and nothing to TotalIters.
	SquashedIters int64
	// TailIters counts iterations committed by rounds after an
	// invocation's first, i.e. by recovery after a capped valid chunk or
	// a read/write-set conflict.
	TailIters int64
	// TotalIters counts committed iterations.
	TotalIters int64
	// Recoveries counts parallel squash-recovery rounds — every round of
	// an invocation after its first: when the validation chain breaks on
	// a capped chunk or on a read/write-set conflict, the remainder is
	// re-planned onto fresh parallel chunks instead of running on one
	// goroutine.
	Recoveries int64
	// RecoveryChunks counts chunks committed by those rounds.
	RecoveryChunks int64
	// Hits counts speculative chunks whose predicted start was
	// validated and whose work committed.
	Hits int64
	// Misses counts speculative chunks that were dispatched and then
	// squashed (their prediction did not materialize).
	Misses int64
	// Reclaimed counts the hits and misses whose chunk the invoking
	// goroutine executed itself, after its own chunk 0, because no
	// worker had started it by then (parked, stalled, or busy with
	// another runner's chunk). Always a subset of the verdicts
	// (conservation: Reclaimed ≤ Hits + Misses).
	Reclaimed int64
	// Conflicts counts commit-time read/write-set conflicts: a
	// speculative chunk whose fall-through read-set intersected a
	// logically-earlier chunk's committed write-set (DOACROSS loops
	// only). One conflict event squashes the conflicting chunk and
	// everything after it; the iterations re-execute through recovery.
	Conflicts int64
	// ConflictIters counts the iterations discarded by conflict
	// squashes. Always a subset of SquashedIters (conservation:
	// ConflictIters ≤ SquashedIters).
	ConflictIters int64
	// SequentialFallbacks counts invocations the adaptive controller
	// forced to pure sequential execution: every predicted row was
	// below the confidence floor.
	SequentialFallbacks int64
	// BatchSheds counts batched/async invocations (Pool.RunBatch,
	// Pool.Submit) that ran sequentially on the submitting goroutine:
	// either the shared executor was already saturated — dispatching
	// speculative chunks would have added queueing, not parallelism — or
	// the last traversal was under Threads × 1024 iterations, too short
	// to amortize a chunk's dispatch. Plain Run never sheds.
	BatchSheds int64
	// RunnersRetired counts runners a Pool quarantined instead of
	// recycling: a runner whose invocations kept panicking (3
	// consecutive *PanicError returns) is retired on release — its
	// counters are folded into the pool totals and a fresh runner is
	// minted on the next acquisition. Always zero on a standalone
	// Runner.
	RunnersRetired int64
	// PairedRounds counts rounds whose slots carried more than one chunk,
	// stepped in lockstep (see README "Chains per slot"): a DOALL runner
	// does that while its traversal waits on memory, at any width. A
	// subset of the rounds (conservation: PairedRounds ≤ Invocations +
	// Recoveries).
	PairedRounds int64
	// EffectiveThreads is the width the runner runs at (a gauge, not a
	// counter): Threads, or 1 while the shape policy has narrowed a
	// DOALL runner because its width did not pay (README "Chains per
	// slot") or the confidence gate (Options.Adaptive) closes every
	// predicted row. While an invocation runs it shows the width that
	// invocation was dispatched at — Threads during a probe or a width
	// recheck — and settles on the width the runner runs at when the
	// invocation completes.
	// Pool.Stats reports the widest gauge across every runner the pool
	// has created (the configured Threads before any runner exists),
	// so a narrow or idle session can never mask a wider live one.
	EffectiveThreads int64
	// LastWorks is the committed iteration counts of the most recent
	// invocation, one entry per dispatch slot (zero for squashed or idle
	// ones). A slot that carried several chunks (PairedRounds) reports
	// their sum.
	LastWorks []int64
}

// addCounters adds sign (1 or -1) times d's additive counters into s.
// The gauge-like fields (EffectiveThreads, LastWorks) are left untouched
// — callers set them from the relevant runner. This is the only place
// that enumerates the counter fields; every aggregation (runner publish,
// pool aggregation, future deltas) routes through it.
func (s *Stats) addCounters(d *Stats, sign int64) {
	s.Invocations += sign * d.Invocations
	s.MisspecInvocations += sign * d.MisspecInvocations
	s.SquashedIters += sign * d.SquashedIters
	s.TailIters += sign * d.TailIters
	s.TotalIters += sign * d.TotalIters
	s.Recoveries += sign * d.Recoveries
	s.RecoveryChunks += sign * d.RecoveryChunks
	s.Hits += sign * d.Hits
	s.Misses += sign * d.Misses
	s.Reclaimed += sign * d.Reclaimed
	s.Conflicts += sign * d.Conflicts
	s.ConflictIters += sign * d.ConflictIters
	s.SequentialFallbacks += sign * d.SequentialFallbacks
	s.BatchSheds += sign * d.BatchSheds
	s.RunnersRetired += sign * d.RunnersRetired
	s.PairedRounds += sign * d.PairedRounds
}

// Delta returns the counters s accumulated since prev was snapshotted:
// every additive counter is s's value minus prev's, while the gauge-like
// fields (EffectiveThreads, LastWorks) keep s's values — a gauge has no
// meaningful difference. It is the snapshot-diff primitive behind
// Future.Stats, and what external aggregators (a serving layer tracking
// per-tenant hit rates, a metrics exporter scraping windows) use instead
// of re-implementing the field-by-field subtraction:
//
//	before := sess.Stats()
//	// ... invocations ...
//	window := sess.Stats().Delta(before)
func (s Stats) Delta(prev Stats) Stats {
	s.addCounters(&prev, -1)
	return s
}

// Plus returns s with d's additive counters added in (the inverse of
// Delta; gauge-like fields again keep s's values). Aggregators use it to
// fold per-window deltas into running totals.
func (s Stats) Plus(d Stats) Stats {
	s.addCounters(&d, 1)
	return s
}

// Imbalance returns max/mean over the last invocation's non-zero slot
// works (LastWorks; 1.0 = perfectly balanced), the entry of a slot of
// several chunks being their sum. Zero entries are idle or squashed
// slots, not unevenly loaded ones, so they are excluded from the mean.
func (s Stats) Imbalance() float64 {
	var sum, maxW int64
	n := 0
	for _, w := range s.LastWorks {
		if w == 0 {
			continue
		}
		sum += w
		if w > maxW {
			maxW = w
		}
		n++
	}
	if n == 0 || sum == 0 {
		return 1
	}
	return float64(maxW) / (float64(sum) / float64(n))
}

// ErrNoParallelism is returned by NewRunner for thread counts below 1.
var ErrNoParallelism = errors.New("spice: Threads must be at least 1")

// ErrPoolExecutor is returned by NewPool when the embedded Config names
// an external executor. Test with errors.Is.
var ErrPoolExecutor = errors.New("spice: PoolConfig must not set Config.Executor (the pool owns its executor)")

// ErrPoolClosed is returned by Pool.Run and Pool.Session after Close.
// Test with errors.Is.
var ErrPoolClosed = errors.New("spice: pool is closed")

// ErrNoCells is returned by Run when the loop has a SpecBody or
// SpecBodyErr but no cell store is bound (neither Loop.Cells nor
// BindCells). Test with errors.Is.
var ErrNoCells = errors.New("spice: speculative loop has no Cells bound (set Loop.Cells or call BindCells)")

// ErrBadReduction is returned by NewRunner and NewPool when a declared
// Reduction has a Kind outside ReduceSum…ReduceMax, and by Run when one
// names a cell outside the bound store. Test with errors.Is.
var ErrBadReduction = errors.New("spice: Reduction with an unknown Kind or a Cell outside the bound Cells store")

// ErrBadScan is returned by Run when Loop.Scan broke its contract: a
// count outside [0, n], or an early stop on a state that is neither Done
// nor the stop state it was given. Test with errors.Is.
var ErrBadScan = errors.New("spice: Loop.Scan broke its contract")

// NewRunner builds a Runner for the loop. Unless cfg.Executor is set,
// the runner starts a private executor of min(Threads-1, GOMAXPROCS-1)
// persistent workers, at least one (each invocation's chunk 0 runs
// inline on the invoking goroutine, so only the speculative chunks need
// workers, and workers beyond the effective processor count add no
// parallelism); call Close to release them.
func NewRunner[S comparable, A any](loop Loop[S, A], cfg Config) (*Runner[S, A], error) {
	if err := loop.validate(); err != nil {
		return nil, err
	}
	if cfg.Threads < 1 {
		return nil, ErrNoParallelism
	}
	r := &Runner[S, A]{
		loop:  loop,
		cfg:   cfg,
		cells: loop.Cells,
	}
	r.block, r.group = blockOf(&loop)
	depth := maxDepth // the finest depth: the most chunks a slot may carry
	if r.group == nil {
		r.pairing.forced, depth = 1, 1
	} else if cfg.depth > 0 {
		depth = min(cfg.depth, maxDepth)
		r.pairing.forced = depth
	}
	r.pairing.reset()
	// One grid, cut setFanout times finer than the finest depth's rounds;
	// a coarser depth uses every stride-th row of what a round reads. A
	// runner that steps chains in groups can hunt the set, with slots
	// setFanout times finer.
	r.pred = newPredictor[S](cfg.Threads*depth, depth/r.pairing.depth)
	perSlot := depth
	if depth > 1 {
		perSlot *= setFanout
	}
	// The round's buffers: Threads slots of up to perSlot chunks each.
	chunks := cfg.Threads * perSlot
	r.chunks = make([]*lane[S, A], chunks)
	r.jobs = make([]chunkJob[S, A], cfg.Threads)
	r.works = make([]int64, cfg.Threads)
	// Presized (one entry per inner boundary), so a round of any width
	// plans without allocating from the first invocation on.
	r.plan = make([]planEntry, 0, chunks-1)
	r.chain = make([]int, 0, chunks)
	r.targets = make([]target[S], 0, chunks)
	r.lat.init()
	for j := range r.jobs {
		r.jobs[j].r, r.jobs[j].idx = r, j
	}
	if loop.speculative() {
		r.views = make([]CellView, cfg.Threads)
	}
	if cfg.Adaptive && cfg.Threads > 1 {
		r.ctrl = newSpecController(len(r.pred.rows), int64(cfg.probeEvery))
	}
	r.stats.effectiveThreads.Store(int64(cfg.Threads))
	if cfg.Threads > 1 {
		if cfg.Executor != nil {
			r.exec = cfg.Executor
		} else {
			// Chunk 0 runs inline on the invoking goroutine (see
			// scheduler.go), so a private executor only ever receives the
			// Threads-1 speculative chunks — and workers beyond the
			// effective GOMAXPROCS at construction cannot run in
			// parallel anyway, so the size is clamped to the topology
			// (and by newExecutor to at least one).
			r.exec = newExecutor(min(cfg.Threads-1, runtime.GOMAXPROCS(0)-1), cfg.Faults)
		}
		// A stripe as wide as one dispatch round, so concurrent runners
		// on one shared executor queue on disjoint shards.
		r.home = r.exec.stripe(cfg.Threads - 1)
	}
	return r, nil
}
