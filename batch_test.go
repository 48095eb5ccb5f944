package spice

// The concurrency conformance suite for the batched/async front door
// (Pool.RunBatch, Pool.Submit/Future) and the sharded work-stealing
// executor underneath it. The differential halves reuse the seeded
// generators of oracle_test.go: every batched or async invocation must
// equal the per-item sequential oracle under the predictable, drifting,
// and adversarial mutation regimes, with the adaptive controller both
// on and off. The executor halves assert the work-stealing invariants
// directly: no submitted task is ever lost or run twice, steals happen
// when load is imbalanced, and shutdown mid-steal drains cleanly. CI
// runs this file under -race at GOMAXPROCS 2 and 8.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// --- RunBatch conformance ---------------------------------------------

// TestBatchDifferentialOracle runs waves of RunBatch over the oracle
// workloads: within a wave the structure is stable (the Run contract),
// between waves it mutates per the regime. Every item of every batch
// must equal the sequential oracle.
func TestBatchDifferentialOracle(t *testing.T) {
	const waves, batch = 8, 5
	for _, kind := range []string{"list", "tree"} {
		for _, pattern := range []string{"predictable", "drifting", "adversarial"} {
			for _, adaptive := range []bool{false, true} {
				name := kind + "/" + pattern + "/fixed"
				if adaptive {
					name = kind + "/" + pattern + "/adaptive"
				}
				t.Run(name, func(t *testing.T) {
					for _, threads := range []int{2, 4} {
						for seed := int64(1); seed <= 3; seed++ {
							rng := rand.New(rand.NewSource(seed*4000 + int64(threads)))
							size := rng.Intn(600) + 40
							var w oracleWorkload
							if kind == "list" {
								w = newOracleList(rng, pattern, size)
							} else {
								w = newOracleTree(rng, pattern, size)
							}
							p, err := NewPool(w.loop(), PoolConfig{Config: Config{
								Threads:    threads,
								Options:    Options{Adaptive: adaptive},
								probeEvery: 3,
							}})
							if err != nil {
								t.Fatal(err)
							}
							starts := make([]any, batch)
							for wave := 0; wave < waves; wave++ {
								want := seqOracle(w.loop(), w.head())
								for i := range starts {
									starts[i] = w.head()
								}
								got, rerr := p.RunBatch(context.Background(), starts)
								if rerr != nil {
									t.Fatalf("threads=%d seed=%d wave=%d: %v", threads, seed, wave, rerr)
								}
								if len(got) != batch {
									t.Fatalf("threads=%d seed=%d wave=%d: %d results, want %d",
										threads, seed, wave, len(got), batch)
								}
								for i, g := range got {
									if g != want {
										t.Fatalf("threads=%d seed=%d wave=%d item=%d: got %+v want %+v",
											threads, seed, wave, i, g, want)
									}
								}
								w.mutate()
							}
							if st := p.Stats(); st.Invocations != waves*batch {
								t.Fatalf("invocations = %d, want %d", st.Invocations, waves*batch)
							}
							p.Close()
						}
					}
				})
			}
		}
	}
}

// TestBatchMixedStarts batches invocations that start at different
// nodes of one list (suffix traversals), so one recycled runner serves
// heterogeneous trip counts back to back and its stale predictions must
// be validated away, not trusted.
func TestBatchMixedStarts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := newOracleList(rng, "predictable", 900)
	p, err := NewPool(w.loop(), PoolConfig{Config: Config{Threads: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for wave := 0; wave < 6; wave++ {
		var starts []any
		for i := 0; i < len(w.nodes); i += 1 + len(w.nodes)/7 {
			starts = append(starts, any(w.nodes[i]))
		}
		got, rerr := p.RunBatch(context.Background(), starts)
		if rerr != nil {
			t.Fatal(rerr)
		}
		for i, g := range got {
			if want := seqOracle(w.loop(), starts[i]); g != want {
				t.Fatalf("wave %d item %d (start %d): got %+v want %+v", wave, i, i, g, want)
			}
		}
		w.mutate()
	}
}

// TestBatchFailureSemantics pins RunBatch's error contract: the
// completed prefix is returned, the first failing item's error
// surfaces wrapped with its index, and errors.Is/errors.As see through
// the wrapper — for body errors, contained panics, and cancellation.
func TestBatchFailureSemantics(t *testing.T) {
	errBoom := errors.New("boom")
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
		p, err := NewPool(mkloop(50), PoolConfig{Config: Config{Threads: 2}})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		// Items 0 and 1 start past the failing iteration and complete;
		// item 2 hits it.
		got, rerr := p.RunBatch(context.Background(), []int64{60, 70, 0, 80})
		if len(got) != 2 {
			t.Fatalf("completed prefix = %d items, want 2", len(got))
		}
		if !errors.Is(rerr, errBoom) {
			t.Fatalf("batch error %v does not unwrap to the body error", rerr)
		}
		// The pool stays usable after a poisoned batch.
		if got, rerr := p.RunBatch(context.Background(), []int64{60}); rerr != nil || got[0] != (60+99)*40/2 {
			t.Fatalf("pool unusable after failed batch: %v %v", got, rerr)
		}
	})
	t.Run("panic", func(t *testing.T) {
		loop := Loop[int64, int64]{
			Done: func(s int64) bool { return s >= 100 },
			Next: func(s int64) int64 { return s + 1 },
			Body: func(s int64, a int64) int64 {
				if s == 10 {
					panic("poisoned body")
				}
				return a + 1
			},
			Init:  func() int64 { return 0 },
			Merge: func(a, b int64) int64 { return a + b },
		}
		p, err := NewPool(loop, PoolConfig{Config: Config{Threads: 2}})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		_, rerr := p.RunBatch(context.Background(), []int64{50, 0})
		var pe *PanicError
		if !errors.As(rerr, &pe) {
			t.Fatalf("batch error %v does not unwrap to *PanicError", rerr)
		}
	})
	t.Run("cancellation", func(t *testing.T) {
		p, err := NewPool(mkloop(-1), PoolConfig{Config: Config{Threads: 2}})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		got, rerr := p.RunBatch(ctx, []int64{0, 1})
		if len(got) != 0 || !errors.Is(rerr, context.Canceled) {
			t.Fatalf("cancelled batch: %d results, err %v", len(got), rerr)
		}
	})
	t.Run("closed pool", func(t *testing.T) {
		p, err := NewPool(mkloop(-1), PoolConfig{Config: Config{Threads: 2}})
		if err != nil {
			t.Fatal(err)
		}
		p.Close()
		for _, starts := range [][]int64{{0}, nil} {
			if _, rerr := p.RunBatch(context.Background(), starts); !errors.Is(rerr, ErrPoolClosed) {
				t.Fatalf("batch of %d on closed pool: %v", len(starts), rerr)
			}
		}
		if _, rerr := p.Submit(context.Background(), 0).Wait(); !errors.Is(rerr, ErrPoolClosed) {
			t.Fatalf("submit on closed pool: %v", rerr)
		}
	})
	t.Run("empty batch", func(t *testing.T) {
		p, err := NewPool(mkloop(-1), PoolConfig{Config: Config{Threads: 2}})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if got, rerr := p.RunBatch(context.Background(), nil); got != nil || rerr != nil {
			t.Fatalf("empty batch: %v %v", got, rerr)
		}
	})
}

// --- Submit/Future conformance ----------------------------------------

// TestSubmitDifferentialOracle pipelines waves of Submits (the
// structure is quiesced between waves, mutated only once every future
// resolved) and checks every future's result and per-invocation stats
// against the sequential oracle.
func TestSubmitDifferentialOracle(t *testing.T) {
	const waves, width = 6, 6
	for _, pattern := range []string{"predictable", "drifting", "adversarial"} {
		for _, adaptive := range []bool{false, true} {
			name := pattern + "/fixed"
			if adaptive {
				name = pattern + "/adaptive"
			}
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(99))
				w := newOracleList(rng, pattern, 700)
				p, err := NewPool(w.loop(), PoolConfig{Config: Config{
					Threads:    4,
					Options:    Options{Adaptive: adaptive},
					probeEvery: 3,
				}})
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				futs := make([]*Future[oracleAcc], width)
				for wave := 0; wave < waves; wave++ {
					want := seqOracle(w.loop(), w.head())
					for i := range futs {
						futs[i] = p.Submit(context.Background(), w.head())
					}
					for i, f := range futs {
						got, rerr := f.Wait()
						if rerr != nil {
							t.Fatalf("wave %d future %d: %v", wave, i, rerr)
						}
						if got != want {
							t.Fatalf("wave %d future %d: got %+v want %+v", wave, i, got, want)
						}
						st := f.Stats()
						if st.Invocations != 1 {
							t.Fatalf("wave %d future %d: per-invocation Invocations = %d", wave, i, st.Invocations)
						}
						if st.TotalIters != want.count {
							t.Fatalf("wave %d future %d: per-invocation TotalIters = %d, want %d",
								wave, i, st.TotalIters, want.count)
						}
					}
					w.mutate()
				}
			})
		}
	}
}

// TestSubmitFutureSemantics covers the Future edge cases: Done
// select-ability, repeated Wait, pre-cancelled contexts, and panic
// containment through the async path.
func TestSubmitFutureSemantics(t *testing.T) {
	l := newTestList(800, 3)
	p, err := NewPool(xorLoop(), PoolConfig{Config: Config{Threads: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	want := sequential(xorLoop(), l.head)
	f := p.Submit(context.Background(), l.head)
	<-f.Done()
	for i := 0; i < 2; i++ { // Wait is repeatable
		if got, rerr := f.Wait(); rerr != nil || got != want {
			t.Fatalf("wait %d: %+v %v", i, got, rerr)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, rerr := p.Submit(ctx, l.head).Wait(); !errors.Is(rerr, context.Canceled) {
		t.Fatalf("pre-cancelled submit: %v", rerr)
	}

	// A panicking body resolves the future with *PanicError and leaves
	// the pool serving.
	bad := newTestList(600, 5)
	bad.nodes()[300].weight = -1
	loop := xorLoop()
	inner := loop.Body
	loop.Body = func(n *node, a sumAcc) sumAcc {
		if n.weight == -1 {
			panic("poisoned node")
		}
		return inner(n, a)
	}
	pp, err := NewPool(loop, PoolConfig{Config: Config{Threads: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Close()
	var pe *PanicError
	if _, rerr := pp.Submit(context.Background(), bad.head).Wait(); !errors.As(rerr, &pe) {
		t.Fatalf("async panic surfaced as %v, want *PanicError", rerr)
	}
	good := newTestList(500, 7)
	if got, rerr := pp.Submit(context.Background(), good.head).Wait(); rerr != nil || got != sequential(loop, good.head) {
		t.Fatalf("pool unusable after async panic: %+v %v", got, rerr)
	}
}

// TestCloseDrainsSubmits verifies the async-specific Close contract:
// submissions accepted before Close must resolve successfully even when
// Close races them, and submissions after Close resolve ErrPoolClosed.
func TestCloseDrainsSubmits(t *testing.T) {
	for round := 0; round < 8; round++ {
		l := newTestList(2000, int64(round))
		want := sequential(xorLoop(), l.head)
		p, err := NewPool(xorLoop(), PoolConfig{Config: Config{Threads: 4}})
		if err != nil {
			t.Fatal(err)
		}
		futs := make([]*Future[sumAcc], 6)
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
		if _, rerr := p.Submit(context.Background(), l.head).Wait(); !errors.Is(rerr, ErrPoolClosed) {
			t.Fatalf("round %d: submit after close: %v", round, rerr)
		}
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
	l := newTestList(L, 11)
	p, err := NewPool(xorLoop(), PoolConfig{Config: Config{Threads: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	bad := make(chan string, 1)
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := p.Stats()
			if st.TotalIters != st.Invocations*L {
				select {
				case bad <- "torn snapshot": // full buffer: already reported
				default:
				}
				return
			}
		}
	}()
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSub; i++ {
				if _, err := p.Run(context.Background(), l.head); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	select {
	case msg := <-bad:
		t.Fatalf("%s: a Stats aggregation interleaved with an in-flight invocation "+
			"(TotalIters != %d*Invocations)", msg, L)
	default:
	}
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
	l := newTestList(1000, 23)
	mk := func() *Pool[*node, sumAcc] {
		p, err := NewPool(xorLoop(), PoolConfig{Config: Config{Threads: 4}})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	single := mk()
	defer single.Close()
	for i := 0; i < items; i++ {
		if _, err := single.Run(context.Background(), l.head); err != nil {
			t.Fatal(err)
		}
	}
	batched := mk()
	defer batched.Close()
	starts := make([]*node, items)
	for i := range starts {
		starts[i] = l.head
	}
	if _, err := batched.RunBatch(context.Background(), starts); err != nil {
		t.Fatal(err)
	}
	ss, bs := single.Stats(), batched.Stats()
	if bs.Invocations != ss.Invocations || bs.TotalIters != ss.TotalIters {
		t.Fatalf("batched stats (inv=%d iters=%d) != sum of singles (inv=%d iters=%d)",
			bs.Invocations, bs.TotalIters, ss.Invocations, ss.TotalIters)
	}

	async := mk()
	defer async.Close()
	futs := make([]*Future[sumAcc], items)
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

// exactlyOnceTask flags double execution directly.
type exactlyOnceTask struct {
	runs atomic.Int32
	wg   *sync.WaitGroup
}

func (t *exactlyOnceTask) run() {
	t.runs.Add(1)
	t.wg.Done()
}

// TestExecutorNoLostOrDuplicatedTasks hammers the sharded executor from
// many submitters across a workers × GOMAXPROCS matrix and asserts
// every task ran exactly once, including through shutdown.
func TestExecutorNoLostOrDuplicatedTasks(t *testing.T) {
	for _, gmp := range []int{2, 8} {
		prev := runtime.GOMAXPROCS(gmp)
		for _, workers := range []int{1, 2, 8} {
			const submitters, perSub = 8, 200
			e := NewExecutor(workers)
			tasks := make([]exactlyOnceTask, submitters*perSub)
			var wg sync.WaitGroup
			wg.Add(len(tasks))
			var subs sync.WaitGroup
			for g := 0; g < submitters; g++ {
				subs.Add(1)
				go func(g int) {
					defer subs.Done()
					home := e.stripe(1)
					for i := 0; i < perSub; i++ {
						ti := &tasks[g*perSub+i]
						ti.wg = &wg
						submitTask(e, ti, home+uint32(i))
					}
				}(g)
			}
			subs.Wait()
			// Close while the backlog is still draining: mid-steal
			// shutdown must not lose or re-run anything.
			e.Close()
			wg.Wait()
			for i := range tasks {
				if n := tasks[i].runs.Load(); n != 1 {
					t.Fatalf("gmp=%d workers=%d: task %d ran %d times", gmp, workers, i, n)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// blockingTask parks a worker until released.
type blockingTask struct {
	started chan struct{}
	release chan struct{}
	wg      *sync.WaitGroup
}

func (t *blockingTask) run() {
	close(t.started)
	<-t.release
	t.wg.Done()
}

// TestExecutorStealsFromBusyShard forces the imbalance work stealing
// exists for: one shard's owner is stuck on a long task while its queue
// backs up, so an idle worker must steal the backlog and finish it even
// though it was never signaled for those jobs directly.
func TestExecutorStealsFromBusyShard(t *testing.T) {
	e := NewExecutor(4)
	defer e.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	blocker := &blockingTask{started: make(chan struct{}), release: make(chan struct{}), wg: &wg}
	e.enqueue(blocker, 0) // pin shard 0's owner
	<-blocker.started

	const backlog = 24
	tasks := make([]exactlyOnceTask, backlog)
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
	close(blocker.release)
	<-done
	for i := range tasks {
		if n := tasks[i].runs.Load(); n != 1 {
			t.Fatalf("task %d ran %d times", i, n)
		}
	}
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
			p, err := NewPool(xorLoop(), PoolConfig{Config: Config{Threads: 4}})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			var iters atomic.Int64
			var wg sync.WaitGroup
			errs := make(chan string, sessions)
			for g := 0; g < sessions; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					s, serr := p.Session()
					if serr != nil {
						t.Error(serr)
						return
					}
					defer s.Close()
					l := newTestList(500+37*g, int64(g*77+1))
					for inv := 0; inv < invocations; inv++ {
						want := sequential(xorLoop(), l.head)
						got, rerr := s.Run(context.Background(), l.head)
						if rerr != nil || got != want {
							errs <- "session result diverged under work stealing"
							return
						}
						iters.Add(int64(len(l.nodes())))
						l.churn()
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatalf("gmp=%d: %s", gmp, e)
			}
			st := p.Stats()
			if st.Invocations != sessions*invocations {
				t.Fatalf("gmp=%d: invocations = %d, want %d", gmp, st.Invocations, sessions*invocations)
			}
			if st.TotalIters != iters.Load() {
				t.Fatalf("gmp=%d: TotalIters = %d, want %d (lost or duplicated chunk work)",
					gmp, st.TotalIters, iters.Load())
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
		w := newOracleList(rng, "predictable", rng.Intn(500)+20)
		want := seqOracle(w.loop(), w.head())
		p, err := NewPool(w.loop(), PoolConfig{Config: Config{Threads: 3}})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var futs []*Future[oracleAcc]
		closed := false
		for _, op := range script {
			switch op % 5 {
			case 0: // submit on the shared (cancellable) context
				futs = append(futs, p.Submit(ctx, w.head()))
			case 1: // submit on an independent context
				futs = append(futs, p.Submit(context.Background(), w.head()))
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
			if got, rerr := p.Submit(context.Background(), w.head()).Wait(); rerr != nil || got != want {
				t.Fatalf("post-script submit: %+v %v", got, rerr)
			}
		}
		p.Close()
	})
}
