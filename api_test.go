package spice

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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
	_, err := NewPool(xorLoop(), PoolConfig{Config: Config{Threads: 2, Executor: e}})
	if !errors.Is(err, ErrPoolExecutor) {
		t.Fatalf("err = %v, want ErrPoolExecutor", err)
	}
}

func TestClosedPoolReturnsSentinel(t *testing.T) {
	p, err := NewPool(xorLoop(), PoolConfig{Config: Config{Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Run(context.Background(), nil); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Run on closed pool: err = %v, want ErrPoolClosed", err)
	}
	if _, err := p.Session(); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Session on closed pool: err = %v, want ErrPoolClosed", err)
	}
	func() {
		defer func() {
			if v := recover(); v == nil {
				t.Error("MustRun on closed pool did not panic")
			} else if err, ok := v.(error); !ok || !errors.Is(err, ErrPoolClosed) {
				t.Errorf("MustRun panicked with %v, want ErrPoolClosed", v)
			}
		}()
		p.MustRun(nil)
	}()
}

func TestClosedSessionReturnsSentinel(t *testing.T) {
	p, err := NewPool(xorLoop(), PoolConfig{Config: Config{Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s, err := p.Session()
	if err != nil {
		t.Fatal(err)
	}
	l := newTestList(50, 3)
	s.MustRun(l.head)
	s.Close()
	s.Close() // idempotent
	if _, err := s.Run(context.Background(), l.head); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Run on closed session: err = %v, want ErrPoolClosed", err)
	}
	if st := s.Stats(); st.Invocations != 0 {
		t.Errorf("closed session Stats = %+v, want zero", st)
	}

	// A live session must also refuse to run after the pool itself
	// closed — its chunks would land on released workers.
	s2, err := p.Session()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s2.MustRun(l.head) // warm so the next Run would go parallel
	}
	p.Close()
	if _, err := s2.Run(context.Background(), l.head); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Run on session of closed pool: err = %v, want ErrPoolClosed", err)
	}
}

func TestLoopValidateBodyExclusivity(t *testing.T) {
	base := xorLoop()
	both := base
	both.BodyErr = func(n *node, a sumAcc) (sumAcc, error) { return base.Body(n, a), nil }
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
	only.BodyErr = func(n *node, a sumAcc) (sumAcc, error) { return base.Body(n, a), nil }
	r, err := NewRunner(only, Config{Threads: 2})
	if err != nil {
		t.Fatalf("BodyErr-only loop rejected: %v", err)
	}
	r.Close()
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
	r, err := NewRunner(xorLoop(), Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := newTestList(100, 1)
	if _, err := r.Run(ctx, l.head); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := r.Stats(); st.Invocations != 0 {
		t.Errorf("cancelled-before-start Run counted as invocation (%d)", st.Invocations)
	}
	// The runner is untouched and still works.
	if got := r.MustRun(l.head); got != sequential(xorLoop(), l.head) {
		t.Fatal("runner unusable after pre-cancelled Run")
	}
}

// cyclicNode builds a list of n nodes whose tail loops back to the
// head: a traversal that never reaches Done, so only cancellation (or a
// speculative cap) can stop a chunk walking it.
func cyclicList(n int) *node {
	head := &node{weight: 1}
	cur := head
	for i := 1; i < n; i++ {
		cur.next = &node{weight: int64(i)}
		cur = cur.next
	}
	cur.next = head
	return head
}

func TestSequentialCtxCancelMidTraversal(t *testing.T) {
	// The bootstrap (sequential) invocation must poll ctx too: an
	// endless cyclic traversal on the calling goroutine is stopped only
	// by the deadline.
	r, err := NewRunner(xorLoop(), Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := r.Run(ctx, cyclicList(64)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestParallelCtxCancelDuringLongChunkAndRecovery(t *testing.T) {
	// Warm the predictor on a finite list, then relink it into a cycle:
	// the parallel invocation's uncapped chunks spin until the deadline
	// is observed at a poll point — exercising in-chunk cancellation and
	// (when the chain reaches a capped valid chunk first) recovery-round
	// cancellation. Without ctx plumbing this test never returns.
	l := newTestList(8192, 6)
	r, err := NewRunner(xorLoop(), Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 4; i++ {
		r.MustRun(l.head)
	}
	ns := l.nodes()
	ns[len(ns)-1].next = l.head // close the cycle

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := r.Run(ctx, l.head); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	// Break the cycle again: the runner (and its kept predictions) must
	// still produce exact results.
	ns[len(ns)-1].next = nil
	want := sequential(xorLoop(), l.head)
	if got := r.MustRun(l.head); got != want {
		t.Fatalf("post-cancel run: got %+v want %+v", got, want)
	}
}

func TestRecoveryRoundsHonorCtx(t *testing.T) {
	// A tiny speculative cap on a long list forces recovery after the
	// primary round; the body cancels the context once recovery is under
	// way (the bootstrap contributes `size` calls, the primary round
	// ~size/4 + 3 caps, so size/3 into the second invocation lands
	// inside the first recovery round). The invocation must stop within
	// a few polls instead of grinding through the remaining rounds.
	const size = 200_000
	l := newTestList(size, 13)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	loop := xorLoop()
	inner := loop.Body
	loop.Body = func(n *node, a sumAcc) sumAcc {
		if calls.Add(1) == size+size/3 {
			cancel()
		}
		return inner(n, a)
	}
	r, err := NewRunner(loop, Config{Threads: 4, maxSpec: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Run(ctx, l.head); err != nil {
		t.Fatalf("bootstrap: %v", err) // exactly size calls: under the trigger
	}
	if _, err := r.Run(ctx, l.head); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r.Stats().Recoveries == 0 {
		t.Error("cap of 512 never triggered recovery before the cancel point")
	}
	if total := calls.Load(); total > size+size/2 {
		t.Errorf("cancellation ignored: %d body calls, cancel fired at %d", total, size+size/3)
	}
}

// --- Fallible bodies ---------------------------------------------------

var errPoison = errors.New("poisoned node")

// poisonLoop is xorLoop with a fallible body that fails on nodes whose
// weight equals the poison sentinel.
func poisonLoop(poison int64, hits *atomic.Int64) Loop[*node, sumAcc] {
	base := xorLoop()
	l := base
	l.Body = nil
	l.BodyErr = func(n *node, a sumAcc) (sumAcc, error) {
		if n.weight == poison {
			if hits != nil {
				hits.Add(1)
			}
			return a, fmt.Errorf("%w (weight %d)", errPoison, n.weight)
		}
		return base.Body(n, a), nil
	}
	return l
}

func TestBodyErrSurfacesDeterministically(t *testing.T) {
	const poison = int64(-7)
	l := newTestList(4000, 23)
	r, err := NewRunner(poisonLoop(poison, nil), Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 4; i++ {
		r.MustRun(l.head) // warm on a clean list
	}
	// Poison one node inside the last quarter: it lies in a speculative
	// chunk, but that chunk's start is validated by its predecessors, so
	// the error is architecturally reachable and must surface — on every
	// run, as the same error, with a zero accumulator.
	ns := l.nodes()
	ns[7*len(ns)/8].weight = poison
	for i := 0; i < 5; i++ {
		got, err := r.Run(context.Background(), l.head)
		if !errors.Is(err, errPoison) {
			t.Fatalf("run %d: err = %v, want errPoison", i, err)
		}
		if got != (sumAcc{}) {
			t.Fatalf("run %d: accumulator %+v, want zero on error", i, got)
		}
	}
	// Healing the node heals the runner.
	ns[7*len(ns)/8].weight = 42
	want := sequential(xorLoop(), l.head)
	if got := r.MustRun(l.head); got != want {
		t.Fatalf("after heal: got %+v want %+v", got, want)
	}
}

func TestBodyErrInSquashedChunkSwallowed(t *testing.T) {
	const poison = int64(-11)
	var hits atomic.Int64
	l := newTestList(3000, 31)
	r, err := NewRunner(poisonLoop(poison, &hits), Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 5; i++ {
		r.MustRun(l.head)
	}
	// Unlink the middle third: the ~50% predicted start is now outside
	// the list. Poison the detached nodes — the speculative chunk
	// starting there reads them, errors, and is squashed; sequentially
	// those iterations never run, so no error may surface. (Copy the
	// detached slice: relink's append reuses ns's backing array.)
	ns := l.nodes()
	detached := append([]*node(nil), ns[len(ns)/3:2*len(ns)/3]...)
	l.relink(append(ns[:len(ns)/3], ns[2*len(ns)/3:]...))
	for _, n := range detached {
		n.weight = poison
	}
	want := sequential(xorLoop(), l.head)
	got, err := r.Run(context.Background(), l.head)
	if err != nil {
		t.Fatalf("squashed-chunk error surfaced: %v", err)
	}
	if got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}
	if hits.Load() == 0 {
		t.Skip("speculative chunk never reached a poisoned node (prediction already stale); nothing exercised")
	}
}

// --- Panic containment -------------------------------------------------

// panickingLoop panics on nodes with the poison weight.
func panickingLoop(poison int64) Loop[*node, sumAcc] {
	base := xorLoop()
	l := base
	l.Body = func(n *node, a sumAcc) sumAcc {
		if n.weight == poison {
			panic("poisoned traversal")
		}
		return base.Body(n, a)
	}
	return l
}

func TestWorkerPanicReturnsPanicError(t *testing.T) {
	const poison = int64(-13)
	l := newTestList(4000, 37)
	r, err := NewRunner(panickingLoop(poison), Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 4; i++ {
		r.MustRun(l.head)
	}
	// Poison a node near the head: it is in chunk 0, whose start is
	// architecturally correct, so the panic is a real failure — but it
	// happened on an executor worker goroutine and must come back as a
	// *PanicError, not kill the process.
	ns := l.nodes()
	ns[10].weight = poison
	_, err = r.Run(context.Background(), l.head)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "poisoned traversal" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Errorf("PanicError.Stack not captured")
	}
	// Heal and keep running on the same runner: workers survived.
	ns[10].weight = 10
	want := sequential(xorLoop(), l.head)
	for i := 0; i < 3; i++ {
		if got := r.MustRun(l.head); got != want {
			t.Fatalf("post-panic run %d: got %+v want %+v", i, got, want)
		}
	}
}

func TestSequentialPanicReturnsPanicError(t *testing.T) {
	const poison = int64(-17)
	l := newTestList(100, 41)
	l.nodes()[50].weight = poison
	r, err := NewRunner(panickingLoop(poison), Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// First invocation runs sequentially on the caller: same contract.
	_, err = r.Run(context.Background(), l.head)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("bootstrap panic: err = %v, want *PanicError", err)
	}
}

func TestPoolUsableAfterWorkerPanic(t *testing.T) {
	const poison = int64(-19)
	p, err := NewPool(panickingLoop(poison), PoolConfig{Config: Config{Threads: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	l := newTestList(4000, 43)
	for i := 0; i < 4; i++ {
		p.MustRun(l.head)
	}
	ns := l.nodes()
	ns[10].weight = poison
	var pe *PanicError
	if _, err := p.Run(context.Background(), l.head); !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	// The poisoned runner went back to the free list; the pool and its
	// workers must serve subsequent submissions normally.
	ns[10].weight = 10
	want := sequential(xorLoop(), l.head)
	for i := 0; i < 8; i++ {
		if got := p.MustRun(l.head); got != want {
			t.Fatalf("post-panic pool run %d: got %+v want %+v", i, got, want)
		}
	}
}

func TestPanicInSquashedChunkSwallowed(t *testing.T) {
	const poison = int64(-23)
	l := newTestList(3000, 47)
	r, err := NewRunner(panickingLoop(poison), Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 5; i++ {
		r.MustRun(l.head)
	}
	// Same shape as the BodyErr island: a corrupted prediction leads a
	// speculative chunk into detached, poisoned state. The panic is
	// contained and discarded with the squashed chunk.
	ns := l.nodes()
	detached := append([]*node(nil), ns[len(ns)/3:2*len(ns)/3]...)
	l.relink(append(ns[:len(ns)/3], ns[2*len(ns)/3:]...))
	for _, n := range detached {
		n.weight = poison
	}
	want := sequential(xorLoop(), l.head)
	got, err := r.Run(context.Background(), l.head)
	if err != nil {
		t.Fatalf("squashed-chunk panic surfaced: %v", err)
	}
	if got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

// --- MustRun ----------------------------------------------------------

func TestMustRunPanicsOnError(t *testing.T) {
	l := newTestList(50, 53)
	loop := xorLoop()
	base := loop.Body
	loop.Body = nil
	loop.BodyErr = func(n *node, a sumAcc) (sumAcc, error) {
		if n.weight%2 == 0 {
			return a, errPoison
		}
		return base(n, a), nil
	}
	r, err := NewRunner(loop, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer func() {
		if v := recover(); v == nil {
			t.Error("MustRun did not panic on BodyErr failure")
		} else if e, ok := v.(error); !ok || !errors.Is(e, errPoison) {
			t.Errorf("MustRun panicked with %v, want errPoison", v)
		}
	}()
	r.MustRun(l.head)
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
	errBoom := errors.New("boom")
	for _, door := range []string{"width1", "shed"} {
		for _, exit := range []string{"error", "panic", "cancel"} {
			t.Run(door+"/"+exit, func(t *testing.T) {
				_, nodes, cells, shadow := buildDoacross(rand.New(rand.NewSource(9)), size, "none")
				var armed bool
				var cancel context.CancelFunc
				loop := Loop[*dcnode, int64]{
					Done: func(n *dcnode) bool { return n == nil },
					Next: func(n *dcnode) *dcnode { return n.next },
					SpecBodyErr: func(n *dcnode, a int64, v *CellView) (int64, error) {
						v.Reduce(0, n.w)
						if armed && n == nodes[failAt] {
							switch exit {
							case "error":
								return a, errBoom
							case "panic":
								panic("round of one")
							case "cancel":
								cancel()
							}
						}
						v.Store(n.dst, v.Load(n.src)+n.w)
						return a + n.w, nil
					},
					Init:       func() int64 { return 0 },
					Merge:      func(a, b int64) int64 { return a + b },
					Cells:      cells,
					Reductions: []Reduction{{Cell: 0, Kind: ReduceSum}},
				}
				threads := map[string]int{"width1": 1, "shed": 2}[door]
				r, err := NewRunner(loop, Config{Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				run := func(ctx context.Context) (int64, error) {
					if door == "width1" {
						return r.Run(ctx, nodes[0])
					}
					out, err := r.runBatch(ctx, []*dcnode{nodes[0]})
					if err != nil {
						return 0, err
					}
					return out[0], nil
				}
				// model applies iterations [0, upTo) whole, and the reduction
				// of iteration upTo when the body failed inside it.
				model := func(upTo int, partial bool) (acc int64) {
					for _, n := range nodes[:upTo] {
						shadow[0] += n.w
						shadow[n.dst] = shadow[n.src] + n.w
						acc += n.w
					}
					if partial {
						shadow[0] += nodes[upTo].w
					}
					return acc
				}
				clean := func(tag string) {
					t.Helper()
					want := model(size, false)
					if got, err := run(context.Background()); err != nil || got != want {
						t.Fatalf("%s: acc %d err %v, want %d", tag, got, err, want)
					}
					assertCellsEqual(t, tag, cells, shadow)
				}
				clean("warm-up 0")
				clean("warm-up 1")

				before := r.Stats()
				ctx, cancelFn := context.WithCancel(context.Background())
				cancel = cancelFn
				defer cancelFn()
				armed = true
				_, rerr := run(ctx)
				armed = false
				wantIters := int64(failAt + 1) // the failing iteration started
				var pe *PanicError
				switch exit {
				case "error":
					model(failAt, true)
					if !errors.Is(rerr, errBoom) {
						t.Fatalf("err = %v, want %v", rerr, errBoom)
					}
				case "panic":
					model(failAt, true)
					if !errors.As(rerr, &pe) {
						t.Fatalf("err = %v, want *PanicError", rerr)
					}
				case "cancel":
					// Seen at the poll ahead of iteration ctxPollEvery-1.
					wantIters = ctxPollEvery - 1
					model(ctxPollEvery-1, false)
					if !errors.Is(rerr, context.Canceled) {
						t.Fatalf("err = %v, want context.Canceled", rerr)
					}
				}
				assertCellsEqual(t, "after the failing invocation", cells, shadow)
				d := r.Stats().Delta(before)
				if d.Invocations != 1 || d.SquashedIters != wantIters || d.TotalIters != 0 {
					t.Fatalf("failing invocation: Invocations %d SquashedIters %d TotalIters %d; want 1, %d, 0",
						d.Invocations, d.SquashedIters, d.TotalIters, wantIters)
				}
				clean("after " + exit)
				if st := r.Stats(); door == "shed" && st.BatchSheds != st.Invocations {
					t.Fatalf("%d of %d batch items shed; the test means all of them", st.BatchSheds, st.Invocations)
				}
			})
		}
	}
}
