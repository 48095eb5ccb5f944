package spice

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// This file tests the v2 API surface: context cancellation across all
// three layers (dispatch, in-chunk polling, recovery rounds), fallible
// BodyErr loops with deterministic first-error semantics, panic
// containment as *PanicError, and the exported sentinel errors. The CI
// race job runs all of it under -race.

// --- Sentinels and validation ----------------------------------------

func TestErrPoolExecutorSentinel(t *testing.T) {
	e := NewExecutor(1)
	defer e.Close()
	_, err := NewPool(plainLoop(), PoolConfig{Config: Config{Threads: 2, Executor: e}})
	wantErr(t, err, ErrPoolExecutor)
}

func TestClosedPoolReturnsSentinel(t *testing.T) {
	p := newPool(t, plainLoop(), Config{Threads: 2})
	p.Close()
	_, err := p.Run(context.Background(), nil)
	wantErr(t, err, ErrPoolClosed)
	_, err = p.Session()
	wantErr(t, err, ErrPoolClosed)
	if v := panics(func() { p.MustRun(nil) }); v == nil || !errors.Is(v.(error), ErrPoolClosed) {
		t.Errorf("MustRun on a closed pool panicked with %v, want ErrPoolClosed", v)
	}
}

func TestClosedSessionReturnsSentinel(t *testing.T) {
	p := newPool(t, plainLoop(), Config{Threads: 2})
	s := openSession(t, p, 0)
	l := testList(50, 3)
	s.MustRun(l.head)
	s.Close()
	s.Close() // idempotent
	_, err := s.Run(context.Background(), l.head)
	wantErr(t, err, ErrPoolClosed)
	if st := s.Stats(); st.Invocations != 0 {
		t.Errorf("closed session Stats = %+v, want zero", st)
	}

	// A live session must also refuse to run after the pool itself
	// closed — its chunks would land on released workers.
	s2 := openSession(t, p, 0)
	l.warm(t, s2, 4) // warm so the next Run would go parallel
	p.Close()
	_, err = s2.Run(context.Background(), l.head)
	wantErr(t, err, ErrPoolClosed)
}

func TestLoopValidateBodyExclusivity(t *testing.T) {
	base := plainLoop()
	both := base
	both.BodyErr = func(n *mnode, a tally) (tally, error) { return base.Body(n, a), nil }
	if _, err := NewRunner(both, Config{Threads: 2}); err == nil {
		t.Error("Loop with both Body and BodyErr accepted")
	}
	neither := base
	neither.Body = nil
	if _, err := NewRunner(neither, Config{Threads: 2}); err == nil {
		t.Error("Loop with neither Body nor BodyErr accepted")
	}
	only := base
	only.Body = nil
	only.BodyErr = func(n *mnode, a tally) (tally, error) { return base.Body(n, a), nil }
	newRunner(t, only, Config{Threads: 2})
}

// --- Stats.Imbalance regression ---------------------------------------

func TestImbalanceSkipsZeroChunks(t *testing.T) {
	// Two idle/squashed chunks must not drag the mean down: with works
	// {8, 0, 4, 0} the non-zero mean is 6, so imbalance is 8/6 — not
	// 8/3, which counting zeros would report.
	st := Stats{LastWorks: []int64{8, 0, 4, 0}}
	if got, want := st.Imbalance(), 8.0/6.0; got != want {
		t.Errorf("Imbalance() = %v, want %v", got, want)
	}
	if got := (Stats{LastWorks: []int64{0, 0}}).Imbalance(); got != 1 {
		t.Errorf("all-zero works: Imbalance() = %v, want 1", got)
	}
}

// --- Context cancellation ---------------------------------------------

func TestRunCancelledBeforeStart(t *testing.T) {
	r := newRunner(t, plainLoop(), Config{Threads: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := testList(100, 1)
	_, err := r.Run(ctx, l.head)
	wantErr(t, err, context.Canceled)
	if st := r.Stats(); st.Invocations != 0 {
		t.Errorf("cancelled-before-start Run counted as invocation (%d)", st.Invocations)
	}
	// The runner is untouched and still works.
	l.exact(t, r)
}

func TestSequentialCtxCancelMidTraversal(t *testing.T) {
	// The bootstrap (sequential) invocation must poll ctx too: an
	// endless cyclic traversal on the calling goroutine is stopped only
	// by the deadline. The list's tail loops back to its head: a
	// traversal that never reaches Done.
	r := newRunner(t, plainLoop(), Config{Threads: 4})
	l := testList(64, 1)
	l.nodes()[63].next = l.head
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := r.Run(ctx, l.head)
	wantErr(t, err, context.DeadlineExceeded)
}

func TestParallelCtxCancelDuringLongChunkAndRecovery(t *testing.T) {
	// Warm the predictor on a finite list, then relink it into a cycle:
	// the parallel invocation's uncapped chunks spin until the deadline
	// is observed at a poll point — exercising in-chunk cancellation and
	// (when the chain reaches a capped valid chunk first) recovery-round
	// cancellation. Without ctx plumbing this test never returns.
	l := testList(8192, 6)
	r := newRunner(t, plainLoop(), Config{Threads: 4})
	l.warm(t, r, 4)
	ns := l.nodes()
	ns[len(ns)-1].next = l.head // close the cycle

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := r.Run(ctx, l.head)
	wantErr(t, err, context.DeadlineExceeded)

	// Break the cycle again: the runner (and its kept predictions) must
	// still produce exact results.
	ns[len(ns)-1].next = nil
	l.exact(t, r)
}

func TestRecoveryRoundsHonorCtx(t *testing.T) {
	// A tiny speculative cap on a long list forces recovery after the
	// primary round; the body cancels the context once recovery is under
	// way (the bootstrap contributes `size` calls, the primary round
	// ~size/4 + 3 caps, so size/3 into the second invocation lands
	// inside the first recovery round). The invocation must stop within
	// a few polls instead of grinding through the remaining rounds.
	const size = 200_000
	l := testList(size, 13)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	r := newRunner(t, hookLoop(func(*mnode) {
		if calls.Add(1) == size+size/3 {
			cancel()
		}
	}), Config{Threads: 4, maxSpec: 512, depth: 1})
	if _, err := r.Run(ctx, l.head); err != nil {
		t.Fatalf("bootstrap: %v", err) // exactly size calls: under the trigger
	}
	_, err := r.Run(ctx, l.head)
	wantErr(t, err, context.Canceled)
	if r.Stats().Recoveries == 0 {
		t.Error("cap of 512 never triggered recovery before the cancel point")
	}
	if total := calls.Load(); total > size+size/2 {
		t.Errorf("cancellation ignored: %d body calls, cancel fired at %d", total, size+size/3)
	}
}

// --- Fallible bodies ---------------------------------------------------

var errPoison = errors.New("poisoned node")

// poisonLoop is the plain loop with a fallible body that fails on nodes
// whose weight equals the poison sentinel.
func poisonLoop(poison int64, hits *atomic.Int64) Loop[*mnode, tally] {
	l := plainLoop()
	l.Body = nil
	l.BodyErr = func(n *mnode, a tally) (tally, error) {
		if n.w == poison {
			if hits != nil {
				hits.Add(1)
			}
			return a, fmt.Errorf("%w (weight %d)", errPoison, n.w)
		}
		return a.visit(n.w), nil
	}
	return l
}

func TestBodyErrSurfacesDeterministically(t *testing.T) {
	const poison = int64(-7)
	l := testList(4000, 23)
	r := newRunner(t, poisonLoop(poison, nil), Config{Threads: 4})
	l.warm(t, r, 4) // warm on a clean list
	// Poison one node inside the last quarter: it lies in a speculative
	// chunk, but that chunk's start is validated by its predecessors, so
	// the error is architecturally reachable and must surface — on every
	// run, as the same error, with a zero accumulator.
	ns := l.nodes()
	ns[7*len(ns)/8].w = poison
	for i := 0; i < 5; i++ {
		got, err := r.Run(context.Background(), l.head)
		wantErr(t, err, errPoison)
		if got != (tally{}) {
			t.Fatalf("run %d: accumulator %+v, want zero on error", i, got)
		}
	}
	// Healing the node heals the runner.
	ns[7*len(ns)/8].w = 42
	l.exact(t, r)

	// Paired slots: two slots of two chunks each, in lockstep, at width
	// 2. A failure is its own chunk's, whichever chain of a pair it hits,
	// and the failed invocation is charged every iteration it started
	// except the committed prefix: SquashedIters is exact. "after match"
	// is the second chain of slot 0 failing when it is the survivor: its
	// region has grown, so the first chain matched and stopped first.
	// "done" panics in Done, on the node a block boundary (the first
	// poll) stops on, where the driver calls Done itself.
	for _, exit := range []string{"error", "panic", "done"} {
		for _, at := range []string{"chunk0", "chunk1", "chunk2", "chunk3", "after match"} {
			t.Run(path.Join("paired", exit, at), func(t *testing.T) { pairedFailure(t, exit, at) })
		}
	}
}

// pairedFailure fails one iteration of chunk at of a width-2 runner
// whose slots carry two chunks of quarterLen nodes each.
func pairedFailure(t *testing.T, exit, at string) {
	const quarterLen = 2000
	l := testList(4*quarterLen, 29)
	var calls atomic.Int64
	var trap atomic.Pointer[mnode]
	loop := plainLoop()
	loop.Body = nil
	loop.BodyErr = func(n *mnode, a tally) (tally, error) {
		calls.Add(1)
		if n == trap.Load() && exit != "done" {
			if err := fail(exit, nil); err != nil {
				return a, err
			}
		}
		return a.visit(n.w), nil
	}
	if exit == "done" {
		loop.Done = func(n *mnode) bool {
			if n != nil && n == trap.Load() {
				panic("done boom")
			}
			return n == nil
		}
	}
	r := newRunner(t, loop, Config{Threads: 2, depth: 2})
	l.warm(t, r, 3) // bootstrap, then the rows the bootstrap promoted, then the quarters
	if st := r.Stats(); st.PairedRounds != 2 || !slices.Equal(st.LastWorks, []int64{2 * quarterLen, 2 * quarterLen}) {
		t.Fatalf("PairedRounds %d, LastWorks %v: the layout is not two slots of two quarters", st.PairedRounds, st.LastWorks)
	}
	ns := l.nodes()
	chunk, off := int(at[len(at)-1]-'0'), quarterLen/2
	if at == "after match" {
		// Grow chunk 1's region past the point where chunk 0 matches.
		fresh := make([]*mnode, quarterLen/4)
		for i := range fresh {
			fresh[i] = &mnode{w: int64(i)}
		}
		ns = slices.Insert(ns, quarterLen+10, fresh...)
		l.relink(ns)
		chunk, off = 1, quarterLen+quarterLen/8
	}
	if exit == "done" {
		off = ctxPollEvery - 1
		if at == "after match" {
			off += ctxPollEvery // the survivor's second poll, past chunk 0's match at quarterLen
		}
	}
	prefix := int64(chunk * quarterLen) // the chunks ahead of the failing one commit
	before, c0 := r.Stats(), calls.Load()
	trap.Store(ns[chunk*quarterLen+off])
	_, err := r.Run(context.Background(), l.head)
	trap.Store(nil)
	checkExit(t, err, strings.Replace(exit, "done", "panic", 1))
	st := r.Stats().Delta(before)
	if want := calls.Load() - c0 - prefix; st.SquashedIters != want || st.PairedRounds != 1 || st.TotalIters != 0 {
		t.Fatalf("SquashedIters %d PairedRounds %d TotalIters %d, want %d, 1 and 0", st.SquashedIters, st.PairedRounds, st.TotalIters, want)
	}
	checkConservation(t, r.Stats(), 2, 2)
	l.exact(t, r)
}

func TestBodyErrInSquashedChunkSwallowed(t *testing.T) {
	const poison = int64(-11)
	var hits atomic.Int64
	l := testList(3000, 31)
	r := newRunner(t, poisonLoop(poison, &hits), Config{Threads: 4})
	l.warm(t, r, 5)
	// Unlink the middle third: the ~50% predicted start is now outside
	// the list. Poison the detached nodes — the speculative chunk
	// starting there reads them, errors, and is squashed; sequentially
	// those iterations never run, so no error may surface.
	for _, n := range l.cutThird() {
		n.w = poison
	}
	l.exact(t, r) // the error is discarded with the chunk
	if hits.Load() == 0 {
		t.Skip("speculative chunk never reached a poisoned node (prediction already stale); nothing exercised")
	}
}

// --- Panic containment -------------------------------------------------

// panickingLoop panics on nodes with the poison weight.
func panickingLoop(poison int64) Loop[*mnode, tally] {
	return hookLoop(func(n *mnode) {
		if n.w == poison {
			panic("poisoned traversal")
		}
	})
}

func TestWorkerPanicReturnsPanicError(t *testing.T) {
	const poison = int64(-13)
	l := testList(4000, 37)
	r := newRunner(t, panickingLoop(poison), Config{Threads: 4})
	l.warm(t, r, 4)
	// Poison a node near the head: it is in chunk 0, whose start is
	// architecturally correct, so the panic is a real failure — but it
	// happened on an executor worker goroutine and must come back as a
	// *PanicError, not kill the process.
	ns := l.nodes()
	ns[10].w = poison
	_, err := r.Run(context.Background(), l.head)
	pe := wantPanic(t, err)
	if pe.Value != "poisoned traversal" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Errorf("PanicError.Stack not captured")
	}
	// Heal and keep running on the same runner: workers survived.
	ns[10].w = 10
	l.warm(t, r, 3)
	// An Init that panics in every chunk leaves a slot of several chunks
	// no chain to step: the slot ends at once, and chunk 0's panic
	// surfaces, at width 1 (the invoker's own chunks) as at width 2.
	for _, threads := range []int{1, 2} {
		for _, depth := range []int{2, maxDepth} {
			t.Run(fmt.Sprintf("init/t%d/d%d", threads, depth), func(t *testing.T) {
				var armed atomic.Bool
				loop := plainLoop()
				init := loop.Init
				loop.Init = func() tally {
					if armed.Load() {
						panic("init boom")
					}
					return init()
				}
				r := newRunner(t, loop, Config{Threads: threads, depth: depth})
				l.warm(t, r, 3)
				armed.Store(true)
				before := r.Stats().PairedRounds
				_, err := r.Run(context.Background(), l.head)
				if pe := wantPanic(t, err); pe.Value != "init boom" {
					t.Errorf("PanicError.Value = %v", pe.Value)
				}
				if r.Stats().PairedRounds == before {
					t.Fatal("the failing invocation's slots carried one chunk each")
				}
				armed.Store(false)
				l.warm(t, r, 2)
			})
		}
	}
}

func TestSequentialPanicReturnsPanicError(t *testing.T) {
	const poison = int64(-17)
	l := testList(100, 41)
	l.nodes()[50].w = poison
	r := newRunner(t, panickingLoop(poison), Config{Threads: 4})
	// First invocation runs sequentially on the caller: same contract.
	_, err := r.Run(context.Background(), l.head)
	wantPanic(t, err)
}

func TestPoolUsableAfterWorkerPanic(t *testing.T) {
	const poison = int64(-19)
	p := newPool(t, panickingLoop(poison), Config{Threads: 4})
	l := testList(4000, 43)
	l.warm(t, p, 4)
	ns := l.nodes()
	ns[10].w = poison
	_, err := p.Run(context.Background(), l.head)
	wantPanic(t, err)
	// The poisoned runner went back to the free list; the pool and its
	// workers must serve subsequent submissions normally.
	ns[10].w = 10
	l.warm(t, p, 8)
}

func TestPanicInSquashedChunkSwallowed(t *testing.T) {
	const poison = int64(-23)
	l := testList(3000, 47)
	r := newRunner(t, panickingLoop(poison), Config{Threads: 4})
	l.warm(t, r, 5)
	// Same shape as the BodyErr island: a corrupted prediction leads a
	// speculative chunk into detached, poisoned state. The panic is
	// contained and discarded with the squashed chunk.
	for _, n := range l.cutThird() {
		n.w = poison
	}
	l.exact(t, r) // the panic is discarded with the chunk
}

// --- MustRun ----------------------------------------------------------

func TestMustRunPanicsOnError(t *testing.T) {
	l := testList(50, 53)
	loop := plainLoop()
	base := loop.Body
	loop.Body = nil
	loop.BodyErr = func(n *mnode, a tally) (tally, error) {
		if n.w%2 == 0 {
			return a, errPoison
		}
		return base(n, a), nil
	}
	r := newRunner(t, loop, Config{Threads: 2})
	if v := panics(func() { r.MustRun(l.head) }); v == nil || !errors.Is(v.(error), errPoison) {
		t.Errorf("MustRun on a BodyErr failure panicked with %v, want errPoison", v)
	}
}

// TestFailingRoundOfOneIsExact: an invocation that runs on its caller
// alone — a width-1 runner, or a batch item shed for being short — and
// fails (a body error, a contained panic, a cancellation seen at the
// first poll) leaves the cell store with exactly the updates up to the
// failure, charges its partial work to SquashedIters as a failing chunk
// 0 always did and nothing to TotalIters, and the next invocation on the
// same runner is exact.
func TestFailingRoundOfOneIsExact(t *testing.T) {
	const size, failAt = 1500, 40 // under 2 × ctxPollEvery: every width-2 batch item sheds
	for _, via := range []string{"width1", "shed"} {
		for _, exit := range []string{"error", "panic", "cancel"} {
			t.Run(via+"/"+exit, func(t *testing.T) {
				g := cellList(rand.New(rand.NewSource(9)), size, "none")
				var trap *mnode // the failing iteration's node, once armed
				var cancel context.CancelFunc
				loop := g.loop(false)
				loop.SpecBody, loop.SpecBodyErr = nil, func(n *mnode, a tally, v *CellView) (tally, error) {
					if n == trap {
						if exit != "cancel" {
							v.Reduce(0, n.w) // the failing iteration gets as far as its first fold
						}
						if err := fail(exit, cancel); err != nil {
							return a, err
						}
					}
					return cellStep(n, a, v), nil
				}
				r := newRunner(t, loop, Config{Threads: map[string]int{"width1": 1, "shed": 2}[via]})
				var d door = r
				if via == "shed" {
					d = shedDoor{r}
				}
				g.warm(t, d, 2)

				before := r.Stats()
				ctx, cancelFn := context.WithCancel(context.Background())
				defer cancelFn()
				cancel, trap = cancelFn, g.nodes()[failAt]
				_, rerr := d.Run(ctx, g.head)
				checkExit(t, rerr, exit)
				wantIters := int64(failAt + 1) // the failing iteration started
				if exit == "cancel" {
					// Seen at the poll ahead of iteration ctxPollEvery-1.
					wantIters = ctxPollEvery - 1
					g.prefix(ctxPollEvery - 1)
				} else {
					g.prefix(failAt)
					g.model[0] += trap.w
				}
				trap = nil
				g.checkCells(t, "after the failing invocation")
				dt := r.Stats().Delta(before)
				if dt.Invocations != 1 || dt.SquashedIters != wantIters || dt.TotalIters != 0 {
					t.Fatalf("failing invocation: Invocations %d SquashedIters %d TotalIters %d; want 1, %d, 0",
						dt.Invocations, dt.SquashedIters, dt.TotalIters, wantIters)
				}
				g.exact(t, d)
				if st := r.Stats(); via == "shed" && st.BatchSheds != st.Invocations {
					t.Fatalf("%d of %d batch items shed; the test means all of them", st.BatchSheds, st.Invocations)
				}
			})
		}
	}
}

// shedDoor runs every invocation as a one-item batch of its runner.
type shedDoor struct{ *Runner[*mnode, tally] }

func (d shedDoor) Run(ctx context.Context, start *mnode) (tally, error) {
	out, err := d.runBatch(ctx, []*mnode{start})
	if err != nil {
		return tally{}, err
	}
	return out[0], nil
}
