package spice

// The concurrency conformance suite for the batched/async front door
// (Pool.RunBatch, Pool.Submit/Future) and the sharded work-stealing
// executor underneath it. The differential halves are cases of the
// matrix (matrix_test.go) through the "batch" and "submit" doors: every
// batched or async invocation must equal the per-item sequential oracle
// under the predictable, drifting, and adversarial mutation regimes,
// with the adaptive controller both on and off. The executor halves
// assert the work-stealing invariants directly: no submitted task is
// ever lost or run twice, steals happen when load is imbalanced, and
// shutdown mid-steal drains cleanly. CI runs this file under -race at
// GOMAXPROCS 2 and 8.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// --- RunBatch conformance ---------------------------------------------

// TestBatchDifferentialOracle runs waves of RunBatch over the regime
// structures: within a wave the structure is stable (the Run contract),
// between waves it mutates per the regime. Every item of every batch
// must equal the sequential oracle.
func TestBatchDifferentialOracle(t *testing.T) {
	regimeSuite(t, []string{"list", "tree"}, func(t *testing.T, kind, pattern string, adaptive bool) {
		for _, threads := range []int{2, 4} {
			for seed := int64(1); seed <= 3; seed++ {
				c := regimeCase(kind, pattern, seed*4000+int64(threads), 600, 40)
				c.door, c.scan, c.threads, c.adaptive, c.probe, c.invs, c.wave = "batch", true, threads, adaptive, 3, 8, 5
				c.run(t)
			}
		}
	})
}

// TestShedItemMemoizesByPlan: a batch item the load-aware door sheds
// memoizes as chunk 0 of a round does, by the position plan of the last
// trip count, not by the bootstrap plan's candidates. A first item has
// no trip count to plan from, so it memoizes nothing; the next installs
// exactly the plan's rows, at the plan's positions. The list is below
// the door's threshold (ctxPollEvery iterations a slot), so every item
// sheds.
func TestShedItemMemoizesByPlan(t *testing.T) {
	l := testList(1500, 3)
	r := newRunner(t, plainLoop(), Config{Threads: 2})
	batch := func() {
		t.Helper()
		if got, err := r.runBatch(context.Background(), []*mnode{l.head}); err != nil || got[0] != l.oracle() {
			t.Fatalf("shed item = %+v, %v; want %+v", got, err, l.oracle())
		}
	}
	batch()
	if n := r.pred.predicted(); n != 0 || r.pred.prevTotal != 1500 {
		t.Fatalf("a first shed item left %d rows, trip count %d; want none, 1500", n, r.pred.prevTotal)
	}
	batch()
	plan := r.pred.plan(nil)
	if len(plan) == 0 {
		t.Fatal("no plan at a trip count of 1500")
	}
	installed := 0
	for k, row := range r.pred.rows {
		if row.valid {
			installed++
			if i := slices.IndexFunc(plan, func(e planEntry) bool { return e.row == k }); i < 0 || plan[i].at != row.pos {
				t.Fatalf("row %d installed at %d; the plan %+v", k, row.pos, plan)
			}
		}
	}
	if installed != len(plan) {
		t.Fatalf("%d rows installed, the plan has %d", installed, len(plan))
	}
	if st := r.Stats(); st.BatchSheds != 2 || st.Invocations != 2 {
		t.Fatalf("%d of %d items shed; the test means both", st.BatchSheds, st.Invocations)
	}
}

// TestBatchMixedStarts batches invocations that start at different
// nodes of one list (suffix traversals), so one recycled runner serves
// heterogeneous trip counts back to back and its stale predictions must
// be validated away, not trusted.
func TestBatchMixedStarts(t *testing.T) {
	g := oracleList(17, 900)()
	p := newPool(t, g.loop(true), Config{Threads: 4})
	for wave := 0; wave < 6; wave++ {
		var starts []*mnode
		for i, n := range g.nodes() {
			if i%(1+900/7) == 0 {
				starts = append(starts, n)
			}
		}
		got, rerr := p.RunBatch(context.Background(), starts)
		if rerr != nil {
			t.Fatal(rerr)
		}
		for i, s := range starts {
			if want := (&gen{head: s}).oracle(); got[i] != want {
				t.Fatalf("wave %d item %d: got %+v want %+v", wave, i, got[i], want)
			}
		}
		g.mutate("predictable")
	}
}

// TestBatchFailureSemantics pins RunBatch's error contract: the
// completed prefix is returned, the first failing item's error
// surfaces wrapped with its index, and errors.Is/errors.As see through
// the wrapper — for body errors, contained panics, and cancellation.
func TestBatchFailureSemantics(t *testing.T) {
	mkloop := func(failAt int64) Loop[int64, int64] {
		return Loop[int64, int64]{
			Done: func(s int64) bool { return s >= 100 },
			Next: func(s int64) int64 { return s + 1 },
			BodyErr: func(s int64, a int64) (int64, error) {
				if failAt >= 0 && s == failAt {
					return a, errBoom
				}
				return a + s, nil
			},
			Init:  func() int64 { return 0 },
			Merge: func(a, b int64) int64 { return a + b },
		}
	}
	t.Run("body error", func(t *testing.T) {
		p := newPool(t, mkloop(50), Config{Threads: 2})
		// Items 0 and 1 start past the failing iteration and complete;
		// item 2 hits it.
		got, rerr := p.RunBatch(context.Background(), []int64{60, 70, 0, 80})
		if len(got) != 2 {
			t.Fatalf("completed prefix = %d items, want 2", len(got))
		}
		wantErr(t, rerr, errBoom)
		// The pool stays usable after a poisoned batch.
		if got, rerr := p.RunBatch(context.Background(), []int64{60}); rerr != nil || got[0] != (60+99)*40/2 {
			t.Fatalf("pool unusable after failed batch: %v %v", got, rerr)
		}
	})
	t.Run("panic", func(t *testing.T) {
		loop := mkloop(-1)
		loop.BodyErr, loop.Body = nil, func(s int64, a int64) int64 {
			if s == 10 {
				panic("poisoned body")
			}
			return a + 1
		}
		p := newPool(t, loop, Config{Threads: 2})
		_, rerr := p.RunBatch(context.Background(), []int64{50, 0})
		wantPanic(t, rerr)
	})
	t.Run("cancellation", func(t *testing.T) {
		p := newPool(t, mkloop(-1), Config{Threads: 2})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		got, rerr := p.RunBatch(ctx, []int64{0, 1})
		if len(got) != 0 || !errors.Is(rerr, context.Canceled) {
			t.Fatalf("cancelled batch: %d results, err %v", len(got), rerr)
		}
	})
	t.Run("closed pool", func(t *testing.T) {
		p := newPool(t, mkloop(-1), Config{Threads: 2})
		p.Close()
		for _, starts := range [][]int64{{0}, nil} {
			_, rerr := p.RunBatch(context.Background(), starts)
			wantErr(t, rerr, ErrPoolClosed)
		}
		_, rerr := p.Submit(context.Background(), 0).Wait()
		wantErr(t, rerr, ErrPoolClosed)
	})
	t.Run("empty batch", func(t *testing.T) {
		p := newPool(t, mkloop(-1), Config{Threads: 2})
		if got, rerr := p.RunBatch(context.Background(), nil); got != nil || rerr != nil {
			t.Fatalf("empty batch: %v %v", got, rerr)
		}
	})
}

// --- Submit/Future conformance ----------------------------------------

// TestSubmitDifferentialOracle pipelines waves of Submits (the
// structure is quiesced between waves, mutated only once every future
// resolved) and checks every future's result and per-invocation stats
// (the "submit" door) against the sequential oracle.
func TestSubmitDifferentialOracle(t *testing.T) {
	regimeSuite(t, []string{""}, func(t *testing.T, _, pattern string, adaptive bool) {
		mcase{build: oracleList(99, 700), edit: regime(pattern), door: "submit", scan: true,
			threads: 4, adaptive: adaptive, probe: 3, invs: 6, wave: 6}.run(t)
	})
}

// TestSubmitFutureSemantics covers the Future edge cases: Done
// select-ability, repeated Wait, pre-cancelled contexts, and panic
// containment through the async path.
func TestSubmitFutureSemantics(t *testing.T) {
	l := testList(800, 3)
	p := newPool(t, plainLoop(), Config{Threads: 4})
	want := l.oracle()
	f := p.Submit(context.Background(), l.head)
	<-f.Done()
	for i := 0; i < 2; i++ { // Wait is repeatable
		if got, rerr := f.Wait(); rerr != nil || got != want {
			t.Fatalf("wait %d: %+v %v", i, got, rerr)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, rerr := p.Submit(ctx, l.head).Wait()
	wantErr(t, rerr, context.Canceled)

	// A panicking body resolves the future with *PanicError and leaves
	// the pool serving.
	bad := testList(600, 5)
	bad.nodes()[300].w = -1
	pp := newPool(t, panickingLoop(-1), Config{Threads: 4})
	_, rerr = pp.Submit(context.Background(), bad.head).Wait()
	wantPanic(t, rerr)
	good := testList(500, 7)
	if got, rerr := pp.Submit(context.Background(), good.head).Wait(); rerr != nil || got != good.oracle() {
		t.Fatalf("pool unusable after async panic: %+v %v", got, rerr)
	}
}

// TestCloseDrainsSubmits verifies the async-specific Close contract:
// submissions accepted before Close must resolve successfully even when
// Close races them, and submissions after Close resolve ErrPoolClosed.
func TestCloseDrainsSubmits(t *testing.T) {
	for round := 0; round < 8; round++ {
		l := testList(2000, int64(round))
		want := l.oracle()
		p := newPool(t, plainLoop(), Config{Threads: 4})
		futs := make([]*Future[tally], 6)
		for i := range futs {
			futs[i] = p.Submit(context.Background(), l.head)
		}
		done := make(chan struct{})
		go func() { p.Close(); close(done) }()
		for i, f := range futs {
			if got, rerr := f.Wait(); rerr != nil || got != want {
				t.Fatalf("round %d: accepted future %d resolved %+v, %v", round, i, got, rerr)
			}
		}
		<-done
		_, rerr := p.Submit(context.Background(), l.head).Wait()
		wantErr(t, rerr, ErrPoolClosed)
	}
}

// --- Stats consistency (the Pool.Stats race-window fix) ----------------

// TestPoolStatsInvocationAtomic is the regression guard for the stats
// aggregation race: every invocation of a fixed L-element list commits
// exactly L iterations, so ANY snapshot — however it interleaves with
// in-flight invocations or runner release — must satisfy
// TotalIters == L*Invocations. Before the fix, counters were published
// piecemeal over the course of an invocation (Invocations at entry,
// TotalIters at the end) and a concurrent reader could catch the gap.
func TestPoolStatsInvocationAtomic(t *testing.T) {
	const L, submitters, perSub = 400, 6, 30
	l := testList(L, 11)
	p := newPool(t, plainLoop(), Config{Threads: 4})
	whileRunning(t, func() string {
		if st := p.Stats(); st.TotalIters != st.Invocations*L {
			return fmt.Sprintf("torn snapshot: a Stats aggregation interleaved with an in-flight invocation "+
				"(TotalIters %d != %d*Invocations %d)", st.TotalIters, L, st.Invocations)
		}
		return ""
	}, func() {
		fanOut(submitters, func(int) {
			for i := 0; i < perSub; i++ {
				if _, err := p.Run(context.Background(), l.head); err != nil {
					t.Error(err)
					return
				}
			}
		})
	})
	if st := p.Stats(); st.Invocations != submitters*perSub {
		t.Fatalf("invocations = %d, want %d", st.Invocations, submitters*perSub)
	}
}

// TestBatchStatsEqualSingles asserts the satellite's accounting
// contract: a batch's aggregate stats equal the sum of the equivalent
// single Runs, and the per-future deltas of async submissions sum to
// the pool aggregate.
func TestBatchStatsEqualSingles(t *testing.T) {
	const items = 12
	l := testList(1000, 23)
	single := newPool(t, plainLoop(), Config{Threads: 4})
	for i := 0; i < items; i++ {
		if _, err := single.Run(context.Background(), l.head); err != nil {
			t.Fatal(err)
		}
	}
	batched := newPool(t, plainLoop(), Config{Threads: 4})
	if _, err := batched.RunBatch(context.Background(), slices.Repeat([]*mnode{l.head}, items)); err != nil {
		t.Fatal(err)
	}
	ss, bs := single.Stats(), batched.Stats()
	if bs.Invocations != ss.Invocations || bs.TotalIters != ss.TotalIters {
		t.Fatalf("batched stats (inv=%d iters=%d) != sum of singles (inv=%d iters=%d)",
			bs.Invocations, bs.TotalIters, ss.Invocations, ss.TotalIters)
	}

	async := newPool(t, plainLoop(), Config{Threads: 4})
	futs := make([]*Future[tally], items)
	for i := range futs {
		futs[i] = async.Submit(context.Background(), l.head)
	}
	var sum Stats
	for _, f := range futs {
		st := f.Stats()
		sum.Invocations += st.Invocations
		sum.TotalIters += st.TotalIters
		sum.BatchSheds += st.BatchSheds
	}
	as := async.Stats()
	if sum.Invocations != as.Invocations || sum.TotalIters != as.TotalIters || sum.BatchSheds != as.BatchSheds {
		t.Fatalf("future deltas (inv=%d iters=%d sheds=%d) != pool aggregate (inv=%d iters=%d sheds=%d)",
			sum.Invocations, sum.TotalIters, sum.BatchSheds, as.Invocations, as.TotalIters, as.BatchSheds)
	}
}

// --- Executor: work-stealing invariants --------------------------------

// TestExecutorNoLostOrDuplicatedTasks hammers the sharded executor from
// many submitters across a workers × GOMAXPROCS matrix and asserts
// every task ran exactly once, including through shutdown.
func TestExecutorNoLostOrDuplicatedTasks(t *testing.T) {
	for _, gmp := range []int{2, 8} {
		prev := runtime.GOMAXPROCS(gmp)
		for _, workers := range []int{1, 2, 8} {
			const submitters, perSub = 8, 200
			e := NewExecutor(workers)
			tasks := make([]countTask, submitters*perSub)
			var wg sync.WaitGroup
			wg.Add(len(tasks))
			fanOut(submitters, func(g int) {
				home := e.stripe(1)
				for i := 0; i < perSub; i++ {
					ti := &tasks[g*perSub+i]
					ti.wg = &wg
					submitTask(e, ti, home+uint32(i))
				}
			})
			// Close while the backlog is still draining: mid-steal
			// shutdown must not lose or re-run anything.
			e.Close()
			wg.Wait()
			ranOnce(t, tasks)
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestExecutorStealsFromBusyShard forces the imbalance work stealing
// exists for: one shard's owner is stuck on a long task while its queue
// backs up, so an idle worker must steal the backlog and finish it even
// though it was never signaled for those jobs directly.
func TestExecutorStealsFromBusyShard(t *testing.T) {
	e := NewExecutor(4)
	defer e.Close()
	release := holdWorker(e, 0) // pin shard 0's owner
	const backlog = 24
	tasks := make([]countTask, backlog)
	var wg sync.WaitGroup
	wg.Add(backlog)
	for i := range tasks {
		tasks[i].wg = &wg
		e.enqueue(&tasks[i], 0) // all behind the blocked owner
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// The backlog must complete while shard 0's owner is still blocked —
	// only stealing can make that happen. (If stealing is broken this
	// spins until the test timeout, which is the failure report.)
	for i := range tasks {
		for tasks[i].runs.Load() == 0 {
			runtime.Gosched()
		}
	}
	release()
	<-done
	ranOnce(t, tasks)
}

// TestWorkStealingSessionsMatrix is the end-to-end stress of the
// ISSUE's satellite: N sessions × M invocations at GOMAXPROCS 2 and 8,
// asserting every result matches the oracle and the aggregate counters
// account for every chunk job (no lost or duplicated work).
func TestWorkStealingSessionsMatrix(t *testing.T) {
	for _, gmp := range []int{2, 8} {
		prev := runtime.GOMAXPROCS(gmp)
		func() {
			defer runtime.GOMAXPROCS(prev)
			const sessions, invocations = 8, 15
			p := newPool(t, plainLoop(), Config{Threads: 4})
			defer p.Close()
			cases := make([]mcase, sessions)
			for g := range cases {
				cases[g] = listCase(500+37*g, int64(g*77+1), (*gen).churn)
				cases[g].door, cases[g].via, cases[g].threads, cases[g].invs = "session", p, 4, invocations
			}
			var iters int64 // each session's TotalIters is its oracle's (mcase.run)
			for _, sts := range parallel(t, cases...) {
				iters += final(sts).TotalIters
			}
			st := p.Stats()
			if st.Invocations != sessions*invocations {
				t.Fatalf("gmp=%d: invocations = %d, want %d", gmp, st.Invocations, sessions*invocations)
			}
			if st.TotalIters != iters {
				t.Fatalf("gmp=%d: TotalIters = %d, want %d (lost or duplicated chunk work)", gmp, st.TotalIters, iters)
			}
		}()
	}
}

// --- Submit/cancel/Close interleaving fuzz -----------------------------

// FuzzSubmitLifecycle drives a byte-scripted interleaving of Submit,
// context cancellation, future waits, and pool Close, asserting that
// every future resolves (no deadlock), every successful result equals
// the oracle, and every failure is one of the contracted errors. The
// CI fuzz smoke runs this target alongside the runner and predictor
// fuzzers.
func FuzzSubmitLifecycle(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 1, 0, 3, 0, 2})
	f.Add(int64(2), []byte{0, 1, 2, 0, 0, 3, 0, 0, 4})
	f.Add(int64(3), []byte{3, 0, 0, 0})
	f.Add(int64(4), []byte{0, 2, 0, 1, 0, 2, 3, 2, 0})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		g := regimeList(rng, rng.Intn(500)+20)
		want := g.oracle()
		p := newPool(t, g.loop(true), Config{Threads: 3})
		ctx, cancel := context.WithCancel(context.Background())
		var futs []*Future[tally]
		closed := false
		for _, op := range script {
			switch op % 5 {
			case 0: // submit on the shared (cancellable) context
				futs = append(futs, p.Submit(ctx, g.head))
			case 1: // submit on an independent context
				futs = append(futs, p.Submit(context.Background(), g.head))
			case 2: // cancel the shared context
				cancel()
			case 3: // close the pool (drains accepted submissions)
				p.Close()
				closed = true
			case 4: // wait for the oldest outstanding future
				if len(futs) > 0 {
					futs[0].Wait()
					futs = futs[1:]
				}
			}
		}
		for i, fu := range futs {
			got, rerr := fu.Wait()
			switch {
			case rerr == nil:
				if got != want {
					t.Fatalf("future %d: got %+v want %+v", i, got, want)
				}
			case errors.Is(rerr, context.Canceled), errors.Is(rerr, ErrPoolClosed):
				// contracted failure modes
			default:
				t.Fatalf("future %d: unexpected error %v", i, rerr)
			}
		}
		cancel()
		if !closed {
			// The pool must still serve after any interleaving above.
			if got, rerr := p.Submit(context.Background(), g.head).Wait(); rerr != nil || got != want {
				t.Fatalf("post-script submit: %+v %v", got, rerr)
			}
		}
		p.Close()
	})
}
