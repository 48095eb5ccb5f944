package spice

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"spice/internal/faults"
)

// This file is the concurrent front door of the native library: a Pool
// accepts invocations from many goroutines at once. Each in-flight
// invocation is served by its own runner (so predictor state is never
// shared across concurrent invocations), and every runner submits its
// chunks to one shared executor — a fixed set of long-lived workers, no
// goroutine spawned per invocation. Runners are recycled through a
// free list, so a steady submitter keeps hitting warm predictor state
// and preallocated scheduler buffers.

// PoolConfig tunes a Pool. The pool sizes its shared executor from the
// topology: max(Threads-1, GOMAXPROCS-1, 1) workers — every invocation
// runs its chunk 0 inline on the submitting goroutine, so the invokers
// themselves occupy one processor each and the workers only need to
// cover the speculative chunks.
type PoolConfig struct {
	// Config applies to every runner the pool creates. Config.Executor
	// must be nil: the pool owns its executor.
	Config
}

// quarantineAfter is the number of consecutive contained *PanicError
// returns after which a Pool retires a runner instead of recycling it
// through the free list: a runner that keeps panicking is presumed
// poisoned (corrupted predictor state, a structure the bodies cannot
// traverse), its counters are folded into the pool totals under
// Stats.RunnersRetired, and the next acquisition mints a fresh runner.
// A success resets the streak; other errors leave it.
const quarantineAfter = 3

// Pool executes Spice invocations submitted concurrently by multiple
// goroutines, through three front doors: Run (one blocking
// invocation), RunBatch (a slice of invocations served by one runner),
// and Submit (asynchronous, returning a Future). All of them — plus
// Stats, Runners and Workers — are safe for concurrent use; Close must
// only be called once no Run or RunBatch is in flight (in-flight
// Submits are drained by Close itself). A runner whose invocations
// return a contained *PanicError three times in a row is retired, not
// recycled (Stats.RunnersRetired).
type Pool[S comparable, A any] struct {
	loop Loop[S, A]
	cfg  Config // with Executor set to the pool's executor

	mu sync.Mutex
	// idle holds the recycled runners, keyed by their dispatch width:
	// besides the default cfg.Threads runners serving Run/RunBatch/
	// Submit, SessionWidth mints narrower ones, and a runner must only
	// ever be recycled to a caller asking for its width.
	idle   map[int][]*Runner[S, A]
	all    []*Runner[S, A]
	last   *Runner[S, A] // most recently released runner (for LastWorks)
	closed atomic.Bool   // atomic so Session.Run, a per-invocation path, checks it without p.mu

	// retired accumulates the counters of quarantined runners — they
	// leave p.all, but their history must not vanish from Pool.Stats —
	// and counts them in its RunnersRetired.
	retired Stats

	// inflight tracks accepted Submit invocations so Close can drain
	// them: an async caller holds only a Future, not a join point, so —
	// unlike Run — Close waits for submissions it already accepted
	// instead of requiring the caller to sequence.
	inflight sync.WaitGroup
}

// NewPool builds a Pool for the loop.
func NewPool[S comparable, A any](loop Loop[S, A], cfg PoolConfig) (*Pool[S, A], error) {
	if err := loop.validate(); err != nil {
		return nil, err
	}
	if cfg.Threads < 1 {
		return nil, ErrNoParallelism
	}
	if cfg.Config.Executor != nil {
		return nil, ErrPoolExecutor
	}
	p := &Pool[S, A]{loop: loop, cfg: cfg.Config, idle: make(map[int][]*Runner[S, A])}
	// Sized as PoolConfig documents (newExecutor keeps at least one).
	p.cfg.Executor = newExecutor(max(runtime.GOMAXPROCS(0)-1, cfg.Threads-1), cfg.Config.Faults)
	return p, nil
}

// Run executes one invocation of the loop from start and returns the
// merged accumulator — always exactly the sequential result. Safe for
// concurrent use: each in-flight invocation gets its own runner, all
// multiplexed onto the pool's workers.
//
// ctx bounds the invocation exactly as in Runner.Run; a loop-body
// failure (error or contained panic) surfaces as the error of the first
// failing iteration in sequential order, and the runner is returned to
// the free list either way, so the pool stays usable after a poisoned
// submission. Run on a closed pool returns ErrPoolClosed.
//
// Run recycles runners — and therefore memoized node predictions —
// across submitters, so it is meant for many goroutines traversing one
// shared structure. The structure must not be mutated while any
// submission is in flight (a recycled prediction may make a speculative
// chunk read it from another submission). Callers that each own a
// private, independently mutated structure should use Session instead.
func (p *Pool[S, A]) Run(ctx context.Context, start S) (A, error) {
	r, err := p.acquireRunner(p.cfg.Threads, false)
	if err != nil {
		var zero A
		return zero, err
	}
	defer p.release(r) // even if a loop callback panics and the caller recovers
	return r.Run(ctx, start)
}

// MustRun is the v1 infallible signature: Run with a background context,
// panicking on error (including ErrPoolClosed and contained worker
// panics, re-panicked as *PanicError).
func (p *Pool[S, A]) MustRun(start S) A {
	return mustRun(p.Run(context.Background(), start))
}

// RunBatch executes one invocation per start, in order, and returns
// their accumulators. The whole batch is served by a single runner
// acquired once — runner acquisition, free-list locking, and warm
// predictor state are amortized across the batch instead of paid per
// invocation — and each invocation is shed-aware: when the pool's
// shared executor is already saturated by other submitters, or the
// expected traversal is too small to amortize chunk dispatch, the item
// runs sequentially on the calling goroutine (exact same result, no
// chunk dispatch; counted in Stats.BatchSheds) instead of paying for
// speculation that cannot win.
//
// Per item, semantics are identical to Run: exactly the sequential
// result, ctx cancellation honored at chunk polls and recovery rounds,
// body errors and contained panics surfacing as the first failure in
// iteration order. On the first failing item, RunBatch stops and
// returns the results of the completed prefix (len(results) items ran
// to completion) together with that item's error, wrapped with the item
// index; errors.Is and errors.As see through the wrapper. A batch on a
// closed pool returns ErrPoolClosed.
//
// All starts must traverse structures that are not mutated while the
// batch is in flight, exactly as with Run.
func (p *Pool[S, A]) RunBatch(ctx context.Context, starts []S) ([]A, error) {
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	if len(starts) == 0 {
		return nil, nil
	}
	r, err := p.acquireRunner(p.cfg.Threads, false)
	if err != nil {
		return nil, err
	}
	defer p.release(r)
	return r.runBatch(ctx, starts)
}

// runBatch is the item loop behind Pool.RunBatch and Session.RunBatch:
// one shed-aware invocation per start, in order, stopping at the first
// failure with the completed prefix and that item's error wrapped with
// its index.
func (r *Runner[S, A]) runBatch(ctx context.Context, starts []S) ([]A, error) {
	out := make([]A, 0, len(starts))
	for i, start := range starts {
		acc, err := r.runInvocation(ctx, start, true)
		if err != nil {
			return out, fmt.Errorf("spice: batch item %d: %w", i, err)
		}
		out = append(out, acc)
	}
	return out, nil
}

// Future is the handle of one asynchronous Pool invocation submitted
// with Submit. All methods are safe for concurrent use; Wait and Stats
// may be called any number of times.
type Future[A any] struct {
	done  chan struct{}
	acc   A
	err   error
	stats Stats
}

// Done returns a channel closed when the invocation has finished, for
// select-based pipelines.
func (f *Future[A]) Done() <-chan struct{} { return f.done }

// Wait blocks until the invocation finishes and returns its result —
// exactly the values the equivalent Run call would have returned.
func (f *Future[A]) Wait() (A, error) {
	<-f.done
	return f.acc, f.err
}

// Stats blocks until the invocation finishes and returns its
// per-invocation counters: the delta this one invocation contributed
// (Invocations is 1 on a completed invocation, TotalIters its committed
// trip count, and so on). LastWorks and EffectiveThreads reflect the
// serving runner's state right after the invocation.
func (f *Future[A]) Stats() Stats {
	<-f.done
	return f.stats
}

// resolve completes the future.
func (f *Future[A]) resolve(acc A, err error, stats Stats) {
	f.acc, f.err, f.stats = acc, err, stats
	close(f.done)
}

// Submit starts one invocation asynchronously and returns immediately
// with its Future; the caller pipelines further submissions (or other
// work) while the invocation runs. Execution semantics match RunBatch's
// per-item contract: exactly the sequential result, ctx cancellation,
// error and PanicError containment identical to Run, and shed-aware
// execution when the shared executor is saturated or the traversal too
// small to amortize chunk dispatch.
//
// Submit on a closed pool returns a Future already resolved with
// ErrPoolClosed. Submissions accepted before Close are drained by it:
// Close blocks until their Futures resolve, then releases the workers —
// so Submit, unlike Run, may race with Close safely.
//
// Each in-flight submission holds one runner, so a caller that submits
// faster than the pool completes grows the runner set exactly like
// concurrent Run callers would; bound the window by waiting on Futures.
func (p *Pool[S, A]) Submit(ctx context.Context, start S) *Future[A] {
	f := &Future[A]{done: make(chan struct{})}
	// Registered for Close's drain under the same mutex hold as the closed
	// check, so the drain cannot miss a just-accepted submission.
	r, err := p.acquireRunner(p.cfg.Threads, true)
	if err != nil {
		var zero A
		f.resolve(zero, err, Stats{})
		return f
	}
	go func() {
		defer p.inflight.Done()
		before := r.stats.read()
		acc, err := r.runInvocation(ctx, start, true)
		after := r.stats.read()
		p.release(r)
		f.resolve(acc, err, after.Delta(before))
	}()
	return f
}

// Session pins a runner to one caller and one data structure. The
// runner's predictor is reset on the way in and on the way out, so a
// session's speculative chunks only ever traverse the session's own
// structure — other submitters can mutate theirs concurrently (between
// their own Runs, as usual). A Session is not safe for concurrent use;
// open one per goroutine.
type Session[S comparable, A any] struct {
	p *Pool[S, A]
	r *Runner[S, A]
}

// Session opens a session backed by the pool's shared workers. It
// returns ErrPoolClosed after Close.
func (p *Pool[S, A]) Session() (*Session[S, A], error) {
	return p.SessionWidth(p.cfg.Threads)
}

// SessionWidth opens a session whose invocations dispatch at most width
// concurrent chunks, regardless of the pool's configured Threads: a
// caller that measures or runs at a fixed width narrower than the pool's
// (down to 1, pure sequential execution with no speculative chunk) still
// shares the pool's workers. Whether speculation pays at that width is
// the session's own to judge (Options.Adaptive, and the load-aware
// RunBatch).
//
// width is clamped to [1, cfg.Threads]: the pool's scheduler buffers and
// worker sizing are provisioned for cfg.Threads, so a budget can only
// narrow an invocation, never widen it past the pool. Runners are
// recycled per width; SessionWidth returns ErrPoolClosed after Close.
func (p *Pool[S, A]) SessionWidth(width int) (*Session[S, A], error) {
	if width < 1 {
		width = 1
	}
	if width > p.cfg.Threads {
		width = p.cfg.Threads
	}
	r, err := p.acquireRunner(width, false)
	if err != nil {
		return nil, err
	}
	r.reset()
	return &Session[S, A]{p: p, r: r}, nil
}

// Run executes one invocation through the session's private runner,
// with the same context and failure semantics as Runner.Run. After
// Session.Close, or once Pool.Close has completed, it returns
// ErrPoolClosed. The pool check is best-effort misuse detection, not a
// synchronization point: Close's contract still requires that no Run is
// in flight when it is called.
func (s *Session[S, A]) Run(ctx context.Context, start S) (A, error) {
	if s.r == nil || s.p.closed.Load() {
		var zero A
		return zero, ErrPoolClosed
	}
	return s.r.Run(ctx, start)
}

// MustRun is the v1 infallible signature: Run with a background context,
// panicking on error.
func (s *Session[S, A]) MustRun(start S) A {
	return mustRun(s.Run(context.Background(), start))
}

// RunBatch executes one invocation per start through the session's
// private runner, in order, with Pool.RunBatch's exact per-item contract:
// shed-aware execution, completed-prefix results, and the first failing
// item's error wrapped with its index. The batch amortizes the session's
// warm predictor across the items just as Pool.RunBatch amortizes runner
// acquisition — but against the session's pinned structure, so a serving
// layer can batch a tenant's repeated invocations without its predictions
// ever crossing tenants. The structure must not be mutated while the
// batch is in flight.
func (s *Session[S, A]) RunBatch(ctx context.Context, starts []S) ([]A, error) {
	if s.r == nil || s.p.closed.Load() {
		return nil, ErrPoolClosed
	}
	return s.r.runBatch(ctx, starts)
}

// BindCells binds the DOACROSS cell store this session's invocations
// run against (see Runner.BindCells). A session is pinned to one caller
// and one structure, which is exactly the serialization a Cells store
// needs — pool-recycled Run/Submit runners would let two concurrent
// invocations race on one store, so sessions are the pool's intended
// DOACROSS front door. The binding is cleared when the session closes
// (the runner reset restores Loop.Cells); bind again in a new session.
// No-op after Close.
func (s *Session[S, A]) BindCells(c *Cells) {
	if s.r == nil {
		return
	}
	s.r.BindCells(c)
}

// Stats returns the session runner's counters (zero after Close).
func (s *Session[S, A]) Stats() Stats {
	if s.r == nil {
		return Stats{}
	}
	return s.r.Stats()
}

// Close returns the runner to the pool. The session must not be used
// afterwards; Close is idempotent. All cross-invocation adaptation —
// predictions, row confidence, the probe clock — is reset on the
// way out (and again on the way into the next session), so nothing a
// session learned on its structure can bleed into another caller's.
func (s *Session[S, A]) Close() {
	if s.r == nil {
		return
	}
	s.r.reset()
	s.p.release(s.r)
	s.r = nil
}

// acquireRunner pops an idle runner of the requested width or creates
// one; it returns ErrPoolClosed after Close. With registerInflight, the
// runner is also registered for Close's drain, under the same mutex hold
// as the closed check — once acquireRunner accepts, Close waits.
func (p *Pool[S, A]) acquireRunner(width int, registerInflight bool) (*Runner[S, A], error) {
	// Fault-injection site: an injected Err/Cancel fails the acquisition
	// before the closed check, inflight registration, or any runner
	// state is touched — the caller sees it exactly like ErrPoolClosed,
	// and the pool stays fully consistent.
	if err := p.cfg.Faults.Check(faults.PoolAcquire); err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if registerInflight {
		p.inflight.Add(1)
	}
	if free := p.idle[width]; len(free) > 0 {
		r := free[len(free)-1]
		p.idle[width] = free[:len(free)-1]
		p.mu.Unlock()
		return r, nil
	}
	p.mu.Unlock()
	cfg := p.cfg
	cfg.Threads = width
	// NewRunner cannot fail here: the loop and config were validated by
	// NewPool, and width is clamped to [1, cfg.Threads] by the callers.
	r, err := NewRunner(p.loop, cfg)
	if err != nil {
		if registerInflight {
			p.inflight.Done()
		}
		panic("spice: " + err.Error())
	}
	p.mu.Lock()
	p.all = append(p.all, r)
	p.mu.Unlock()
	return r, nil
}

// release returns a runner to its width's free list — unless the runner
// has crossed the quarantine threshold, in which case it is retired:
// removed from the pool's runner set (its counters folded into the
// retired accumulator so Pool.Stats keeps its history), never recycled,
// and replaced by a fresh NewRunner on the next acquisition that finds
// the free list empty.
func (p *Pool[S, A]) release(r *Runner[S, A]) {
	p.mu.Lock()
	if r.consecPanics >= quarantineAfter {
		r.stats.addInto(&p.retired)
		p.retired.RunnersRetired++
		for i, rr := range p.all {
			if rr == r {
				p.all = append(p.all[:i], p.all[i+1:]...)
				break
			}
		}
		if p.last == r {
			p.last = nil
		}
		p.mu.Unlock()
		return
	}
	p.idle[r.cfg.Threads] = append(p.idle[r.cfg.Threads], r)
	p.last = r
	p.mu.Unlock()
}

// Stats aggregates the counters of every runner the pool has created.
// LastWorks reports the most recently completed invocation's per-chunk
// works. Safe to call while invocations run; every invocation is
// counted atomically (a runner publishes an invocation's counters in
// one step when it finishes), so a snapshot never shows an invocation's
// entry without its iterations, however it interleaves with runner
// release.
func (p *Pool[S, A]) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var s Stats
	// EffectiveThreads: the widest live gauge across the pool's runners,
	// defaulting to the configured width before any runner exists (the
	// widest, not the most recently released: a width-1 tenant session
	// closing last must not make the whole pool scrape as sequential on
	// /metrics while full-width runners sit idle).
	s.EffectiveThreads = int64(p.cfg.Threads)
	s.addCounters(&p.retired, 1) // retired runners' history survives them
	var maxEff int64
	for _, r := range p.all {
		r.stats.addInto(&s)
		if g := r.stats.effectiveThreads.Load(); g > maxEff {
			maxEff = g
		}
	}
	if len(p.all) > 0 {
		s.EffectiveThreads = maxEff
	}
	if p.last != nil {
		s.LastWorks = p.last.Stats().LastWorks
	}
	return s
}

// Runners returns the number of live runner states the pool holds —
// the high-water mark of concurrent submissions, minus any runners the
// quarantine retired (see Stats.RunnersRetired).
func (p *Pool[S, A]) Runners() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.all)
}

// Workers returns the size of the shared executor.
func (p *Pool[S, A]) Workers() int { return p.cfg.Executor.Workers() }

// WorkerParks returns how many times a worker of the shared executor
// has gone to sleep for want of work since the pool was built. A steady
// stream of invocations should add almost none: a count that grows with
// the invocations is the workers' lease failing to cover the callers'
// cadence, and every such park is a wake (tens of microseconds) the
// next round pays before its speculative chunk starts.
func (p *Pool[S, A]) WorkerParks() int64 { return p.cfg.Executor.parks.Load() }

// Close releases the pool's workers. It must not race with Run or
// RunBatch, but accepted Submit invocations are drained first: Close
// blocks until their Futures resolve, then stops the workers. Close is
// idempotent.
func (p *Pool[S, A]) Close() {
	p.mu.Lock() // pairs with Submit's acquireRunner: no Add can slip past the drain
	p.closed.Store(true)
	p.mu.Unlock()
	p.inflight.Wait()
	p.cfg.Executor.Close()
}
