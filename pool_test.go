package spice

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// --- Executor ---------------------------------------------------------

// countTask counts its runs and signals wg after each.
type countTask struct {
	runs atomic.Int32
	wg   *sync.WaitGroup
}

func (t *countTask) run() {
	t.runs.Add(1)
	t.wg.Done()
}

// ranOnce fails t unless every task ran exactly once.
func ranOnce(t *testing.T, tasks []countTask) {
	t.Helper()
	for i := range tasks {
		if n := tasks[i].runs.Load(); n != 1 {
			t.Fatalf("task %d of %d ran %d times", i, len(tasks), n)
		}
	}
}

// blockTask occupies an executor worker until released.
type blockTask struct{ started, release chan struct{} }

func (b *blockTask) run() {
	close(b.started)
	<-b.release
}

// holdWorker queues a blockTask on e from shard hint on and waits until
// a worker runs it; release (idempotent) lets that worker go.
func holdWorker(e *Executor, hint uint32) (release func()) {
	hold := &blockTask{started: make(chan struct{}), release: make(chan struct{})}
	submitTask(e, hold, hint)
	<-hold.started
	return sync.OnceFunc(func() { close(hold.release) })
}

// drain waits until every entry queued on e was received and counted
// off (a worker counts an entry off after running it).
func drain(e *Executor) {
	for e.load.Load() != 0 {
		runtime.Gosched()
	}
}

// submitTask queues t on a bare executor from the hinted shard on.
// enqueue never waits, and here no invoker stands behind the entry to run
// what was not queued, so a full executor is retried.
func submitTask(e *Executor, t task, hint uint32) {
	for !e.enqueue(t, hint) {
		runtime.Gosched()
	}
}

func TestExecutorRunsTasks(t *testing.T) {
	e := NewExecutor(3)
	if e.Workers() != 3 {
		t.Fatalf("workers = %d", e.Workers())
	}
	var wg sync.WaitGroup
	tasks := make([]countTask, 100)
	wg.Add(len(tasks))
	for i := range tasks {
		tasks[i].wg = &wg
		submitTask(e, &tasks[i], uint32(i))
	}
	wg.Wait()
	ranOnce(t, tasks)
	e.Close()
	e.Close() // idempotent
	if panics(func() { e.enqueue(&tasks[0], 0) }) == nil {
		t.Fatal("submit on a closed executor did not panic")
	}
}

func TestExecutorMinimumOneWorker(t *testing.T) {
	e := NewExecutor(0)
	defer e.Close()
	if e.Workers() != 1 {
		t.Fatalf("workers = %d, want 1", e.Workers())
	}
}

// --- Runner lifecycle -------------------------------------------------

func TestRunnerCloseIdempotent(t *testing.T) {
	r, err := NewRunner(plainLoop(), Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	l := testList(100, 1)
	l.warm(t, r, 3)
	r.Close()
	r.Close()
}

func TestRunnersShareExecutor(t *testing.T) {
	e := NewExecutor(4)
	defer e.Close()
	r1 := newRunner(t, plainLoop(), Config{Threads: 4, Executor: e})
	r2 := newRunner(t, plainLoop(), Config{Threads: 4, Executor: e})
	l1, l2 := testList(300, 1), testList(400, 2)
	for i := 0; i < 10; i++ {
		l1.exact(t, r1)
		l2.exact(t, r2)
		l1.churn()
		l2.churn()
	}
	// Close on a non-owning runner must leave the shared executor alive.
	r1.Close()
	l2.exact(t, r2)
}

func TestConcurrentRunOnRunnerPanics(t *testing.T) {
	r := newRunner(t, plainLoop(), Config{Threads: 2})
	// Simulate an in-flight invocation and verify the guard trips.
	r.running.Store(true)
	defer r.running.Store(false)
	if panics(func() { r.MustRun(nil) }) == nil {
		t.Fatal("concurrent Run did not panic")
	}
}

// --- Pool -------------------------------------------------------------

func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(Loop[*mnode, tally]{}, PoolConfig{Config: Config{Threads: 2}}); err == nil {
		t.Error("empty loop accepted")
	}
	if _, err := NewPool(plainLoop(), PoolConfig{}); err != ErrNoParallelism {
		t.Error("zero threads accepted")
	}
	e := NewExecutor(1)
	defer e.Close()
	if _, err := NewPool(plainLoop(), PoolConfig{Config: Config{Threads: 2, Executor: e}}); err == nil {
		t.Error("external executor accepted")
	}
	// A fresh pool reports the configured width before any runner is
	// released, not zero.
	if eff := newPool(t, plainLoop(), Config{Threads: 4}).Stats().EffectiveThreads; eff != 4 {
		t.Errorf("fresh pool EffectiveThreads = %d, want 4", eff)
	}
}

// TestRuntimeDefaults pins what the runtime derives instead of taking
// from the caller: the shared pool's and a private runner's worker
// counts from the topology, the speculative cap from the last trip
// count, and the interval at which an adaptive runner whose gate is
// closed probes its rows.
func TestRuntimeDefaults(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, threads := range []int{1, 2, 4, 8} {
			p, err := NewPool(plainLoop(), PoolConfig{Config: Config{Threads: threads}})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := p.Workers(), max(procs-1, threads-1, 1); got != want {
				t.Errorf("GOMAXPROCS %d, Threads %d: pool workers = %d, want %d", procs, threads, got, want)
			}
			p.Close()
			r, err := NewRunner(plainLoop(), Config{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			if threads == 1 && r.exec != nil {
				t.Errorf("GOMAXPROCS %d: a width-1 runner started an executor", procs)
			}
			if want := max(min(threads-1, procs-1), 1); threads > 1 && r.exec.Workers() != want {
				t.Errorf("GOMAXPROCS %d, Threads %d: private workers = %d, want %d", procs, threads, r.exec.Workers(), want)
			}
			r.Close()
		}
	}

	r := newRunner(t, plainLoop(), Config{Threads: 4})
	if got := r.pred.specCap(r.cfg.maxSpec); got != 1<<20 {
		t.Errorf("cap before any trip count = %d, want %d", got, 1<<20)
	}
	r.MustRun(testList(3000, 1).head)
	if got := r.pred.specCap(r.cfg.maxSpec); got != 4*3000+1024 {
		t.Errorf("cap after a 3000-iteration trip = %d, want %d", got, 4*3000+1024)
	}

	a := newRunner(t, plainLoop(), Config{Threads: 4, Options: Options{Adaptive: true}})
	l := testList(3000, 2)
	a.MustRun(l.head) // predicts rows for the gate to close
	for k := range a.ctrl.score {
		closeRows(a.ctrl, k)
	}
	for inv := 1; inv <= 9; inv++ {
		a.MustRun(l.head)
		want := int64(1) // the 9th invocation probes every row and, clean, opens them
		if inv == 9 {
			want = 4
		}
		if eff := a.Stats().EffectiveThreads; eff != want {
			t.Fatalf("invocation %d after the gate closed: width %d, want %d", inv, eff, want)
		}
	}
}

func TestPoolSequentialSubmissionsReuseRunner(t *testing.T) {
	p := newPool(t, plainLoop(), Config{Threads: 4})
	l := testList(500, 3)
	for inv := 0; inv < 15; inv++ {
		l.exact(t, p)
		l.churn()
	}
	if n := p.Runners(); n != 1 {
		t.Errorf("sequential submissions created %d runners, want 1", n)
	}
	st := p.Stats()
	if st.Invocations != 15 {
		t.Errorf("aggregated invocations = %d", st.Invocations)
	}
	// Runner reuse keeps predictor state warm: later invocations run in
	// parallel chunks.
	if busy(st.LastWorks) < 2 {
		t.Errorf("last works %v: pooled runner never went parallel", st.LastWorks)
	}
}

// TestPoolConcurrentStress drives many concurrent submitters, each with
// its own randomly mutated linked list, through sessions of one Pool
// and asserts every result equals the sequential reference. Run under
// -race this is the acceptance test for the concurrent front door.
func TestPoolConcurrentStress(t *testing.T) {
	const (
		submitters  = 12
		invocations = 25
	)
	p := newPool(t, plainLoop(), Config{Threads: 4})
	cases := make([]mcase, submitters)
	for g := range cases {
		cases[g] = listCase(300+17*g, int64(1000+g), nil)
		cases[g].door, cases[g].via, cases[g].threads, cases[g].invs = "session", p, 4, invocations
		cases[g].edit = func(l *gen, inv int) {
			switch inv % 3 {
			case 0:
				l.churn()
			case 1:
				l.heavyChurn(0.4)
			case 2:
				if ns := l.nodes(); len(ns) > 1 {
					l.relink(ns[:len(ns)/2+1])
				}
			}
		}
	}
	parallel(t, cases...)

	st := p.Stats()
	if st.Invocations != submitters*invocations {
		t.Errorf("aggregated invocations = %d, want %d", st.Invocations, submitters*invocations)
	}
	if n := p.Runners(); n < 1 || n > submitters {
		t.Errorf("runners = %d, want 1..%d", n, submitters)
	}
}

// TestPoolSharedListConcurrent hammers bare Pool.Run from many
// goroutines over one shared list — the serving-traffic shape: reads
// race-free while in flight, mutation only in quiesced windows between
// rounds. Recycled predictions stay valid because every submission
// traverses the same structure.
func TestPoolSharedListConcurrent(t *testing.T) {
	const (
		submitters = 8
		rounds     = 10
		perRound   = 4
	)
	p := newPool(t, plainLoop(), Config{Threads: 4})
	l := testList(1500, 77)
	for round := 0; round < rounds; round++ {
		want := l.oracle()
		fanOut(submitters, func(int) {
			for inv := 0; inv < perRound; inv++ {
				if got := p.MustRun(l.head); got != want {
					t.Error("shared-list result diverged from sequential reference")
					return
				}
			}
		})
		if t.Failed() {
			t.FailNow()
		}
		l.churn() // quiesced window: nothing in flight
	}
	st := p.Stats()
	if st.Invocations != submitters*rounds*perRound {
		t.Errorf("invocations = %d, want %d", st.Invocations, submitters*rounds*perRound)
	}
}

// TestPoolStatsReadableUnderLoad reads aggregated stats while
// submissions are in flight (exercised for data races under -race).
func TestPoolStatsReadableUnderLoad(t *testing.T) {
	p := newPool(t, plainLoop(), Config{Threads: 4})
	cases := make([]mcase, 4)
	for g := range cases {
		cases[g] = listCase(400, int64(g), (*gen).churn)
		cases[g].door, cases[g].via, cases[g].threads, cases[g].invs = "session", p, 4, 20
	}
	whileRunning(t, func() string {
		if st := p.Stats(); st.Invocations < 0 || st.TotalIters < 0 {
			return "negative counters"
		}
		return ""
	}, func() { parallel(t, cases...) })
	if st := p.Stats(); st.Invocations != 80 {
		t.Errorf("invocations = %d, want 80", st.Invocations)
	}
}

// TestPoolStatsEffectiveThreadsNarrowSessionLast is the regression test
// for the Stats gauge bug: EffectiveThreads used to be copied from the
// most recently *released* runner, so a width-1 session closing last
// made the whole pool scrape as sequential even though a full-width
// runner sat idle. The gauge must report the widest runner.
func TestPoolStatsEffectiveThreadsNarrowSessionLast(t *testing.T) {
	p := newPool(t, plainLoop(), Config{Threads: 4})
	l := testList(400, 1)

	wide := openSession(t, p, 4)
	wide.MustRun(l.head)
	wide.Close()

	narrow := openSession(t, p, 1)
	narrow.MustRun(l.head)
	narrow.Close() // released last — the old code reported this runner's width

	if st := p.Stats(); st.EffectiveThreads != 4 {
		t.Fatalf("EffectiveThreads = %d after a narrow session closed last, want 4",
			st.EffectiveThreads)
	}
}

// --- Parallel squash recovery ----------------------------------------

// TestParallelSquashRecoveryForcedCap forces mis-speculation with a
// small speculative cap: every chunk is longer than the cap, so the
// chain breaks on a capped valid chunk and the remainder must be
// finished by recovery — in parallel chunks, not on one goroutine — with
// the result still exactly sequential.
func TestParallelSquashRecoveryForcedCap(t *testing.T) {
	st := final(mcase{build: func() *gen { return testList(4000, 8) }, threads: 4, maxSpec: 600, invs: 6}.run(t))
	if st.Recoveries == 0 {
		t.Fatal("capped chunks never triggered parallel recovery")
	}
	// The last round of a recovery finishes with a single uncapped chunk
	// once candidates run out, so "parallelized" means strictly more
	// committed chunks than rounds overall.
	if st.RecoveryChunks <= st.Recoveries {
		t.Errorf("recovery used %d chunks over %d rounds; remainder not parallelized",
			st.RecoveryChunks, st.Recoveries)
	}
	if st.TailIters == 0 {
		t.Error("no iterations attributed to recovery")
	}
}

// TestParallelSquashRecoveryOrganic reproduces the organic failure mode:
// the traversal grows far beyond the previous trip count mid-structure,
// the derived cap fires on a valid chunk, recovery finishes the
// remainder from the remaining predicted rows in parallel, and — because
// recovery chunks re-memoize — the invocation after next is balanced
// again with no further recovery.
func TestParallelSquashRecoveryOrganic(t *testing.T) {
	// Warm up (bootstrap plus enough invocations to memoize all rows),
	// then grow the list ~10x in the middle: the chunk spanning the
	// insertion exceeds the cap derived from the old trip count.
	sts := mcase{build: func() *gen { return testList(400, 19) }, threads: 4, invs: 7,
		edit: func(l *gen, inv int) {
			if inv == 3 {
				l.growMid(3600, 2654435761)
			}
		}}.run(t)
	before, after, final := sts[3], sts[4], sts[6]
	if after.Recoveries == before.Recoveries {
		t.Fatal("10x growth did not trigger parallel recovery")
	}
	if after.RecoveryChunks-before.RecoveryChunks < 2 {
		t.Errorf("recovery committed %d chunks; remainder not parallelized",
			after.RecoveryChunks-before.RecoveryChunks)
	}

	// Recovery re-memoized: within two invocations the split is balanced
	// again and no further recovery happens.
	if final.Recoveries != after.Recoveries {
		t.Errorf("recovery kept firing after re-memoization (%d -> %d)",
			after.Recoveries, final.Recoveries)
	}
	if busy(final.LastWorks) != 4 {
		t.Errorf("post-recovery works %v; want all four chunks active", final.LastWorks)
	}
	if imb := final.Imbalance(); imb > 1.5 {
		t.Errorf("post-recovery imbalance %.2f; recovery memoization failed to rebalance (works %v)",
			imb, final.LastWorks)
	}
}

// TestRecoveryThroughPool exercises the recovery path under concurrent
// submissions (race coverage for the recovery scheduler reuse).
func TestRecoveryThroughPool(t *testing.T) {
	p := newPool(t, plainLoop(), Config{Threads: 4, maxSpec: 300})
	cases := make([]mcase, 8)
	for g := range cases {
		cases[g] = listCase(2000, int64(100+g), (*gen).churn)
		cases[g].door, cases[g].via, cases[g].threads, cases[g].invs = "session", p, 4, 10
	}
	parallel(t, cases...)
	if st := p.Stats(); st.Recoveries == 0 {
		t.Error("cap of 300 on 2000-element lists never triggered recovery")
	}
}

// --- Adaptive sessions ------------------------------------------------

// TestPoolAdaptiveSessionStress drives concurrent sessions over
// distinct structures with the adaptive gate on: half the submitters
// traverse stable lists (must keep full width), half traverse fully
// unstable ones (must fall back), and every result must
// equal the sequential reference. Run under -race this is the
// acceptance test for the controller in the concurrent front door.
func TestPoolAdaptiveSessionStress(t *testing.T) {
	const submitters = 8
	p := newPool(t, plainLoop(), Config{Threads: 4, Options: Options{Adaptive: true}, probeEvery: 3})
	cases := make([]mcase, submitters)
	for g := range cases {
		cases[g] = listCase(600+31*g, int64(500+g), (*gen).churn)
		cases[g].door, cases[g].via, cases[g].threads, cases[g].adaptive, cases[g].invs = "session", p, 4, true, 20
		if g%2 == 1 { // fresh nodes every invocation: fully unstable
			cases[g].edit = func(l *gen, inv int) { l.head = testList(600+31*g, int64(9000+100*g+inv)).head }
		}
	}
	for g, sts := range parallel(t, cases...) {
		st := final(sts)
		if g%2 == 1 && st.SequentialFallbacks == 0 {
			t.Error("hostile session never fell back to sequential execution")
		}
		if g%2 == 0 && st.EffectiveThreads != 4 {
			t.Error("stable session lost parallel width to a hostile neighbour")
		}
	}
}

// TestSessionNoAdaptiveBleed is the regression guard for the
// runner-recycling path: a session that hammered a runner's confidence
// and probe clock on a hostile structure must hand back a fully
// reset runner, so the next session (which recycles it via the free
// list) starts at full width with neutral confidence.
func TestSessionNoAdaptiveBleed(t *testing.T) {
	p := newPool(t, plainLoop(), Config{Threads: 4, Options: Options{Adaptive: true}, probeEvery: 64})

	// Session 1: fully unstable traversal until the gate closes every row.
	s1 := openSession(t, p, 0)
	for inv := 0; inv < 30; inv++ {
		testList(800, int64(3000+inv)).exact(t, s1)
	}
	if eff := s1.Stats().EffectiveThreads; eff != 1 {
		t.Fatalf("hostile session's gate still open (eff=%d); bleed test needs a poisoned runner", eff)
	}
	r1 := s1.r
	s1.Close()

	// Session 2 recycles the same runner off the free list. With a huge
	// probe interval, any leftover gated confidence would
	// keep it sequential for the whole test — the reset must not leave
	// any.
	s2 := openSession(t, p, 0)
	if s2.r != r1 {
		t.Fatalf("free list did not recycle the poisoned runner (%p vs %p)", s2.r, r1)
	}
	if eff := s2.Stats().EffectiveThreads; eff != 4 {
		t.Fatalf("recycled runner starts at eff=%d, want 4", eff)
	}
	for k := range r1.pred.rows {
		if r1.pred.rows[k].valid {
			t.Fatal("recycled runner kept another session's predictions")
		}
		if !r1.ctrl.Admit(k) {
			t.Fatalf("recycled runner kept gated confidence for row %d", k)
		}
	}
	before := s2.Stats()
	l := testList(900, 4)
	for inv := 0; inv < 10; inv++ {
		l.exact(t, s2)
		l.churn()
	}
	st := s2.Stats()
	if st.SequentialFallbacks != before.SequentialFallbacks {
		t.Errorf("recycled runner fell back %d times on a stable list",
			st.SequentialFallbacks-before.SequentialFallbacks)
	}
	if st.EffectiveThreads != 4 {
		t.Errorf("recycled runner ended at eff=%d on a stable list", st.EffectiveThreads)
	}
}

// --- Steady-state allocation ------------------------------------------

// TestSteadyStateAllocations verifies the hot path reuses its buffers:
// once predictions are warm, Run on a stable list performs (nearly) no
// allocations — the seed runtime allocated results, proposals, works,
// plans, snapshots and goroutines every invocation.
func TestSteadyStateAllocations(t *testing.T) {
	l := testList(2000, 4)
	r := newRunner(t, plainLoop(), Config{Threads: 4})
	l.warm(t, r, 8) // warm predictor and buffers
	avg := testing.AllocsPerRun(20, func() { r.MustRun(l.head) })
	if avg > 4 {
		t.Errorf("steady-state Run allocates %.1f objects/op; hot path should reuse buffers", avg)
	}
}

// TestRoundOfOneAllocations: an invocation that runs on its caller alone
// goes through the same scheduler buffers and allocates nothing in
// steady state — on a width-1 runner (no plan, no executor), and on an
// adaptive runner the confidence gate leaves no row (the bootstrap plan,
// its candidates, promote).
func TestRoundOfOneAllocations(t *testing.T) {
	l := testList(2000, 4)
	want := l.oracle()
	t.Run("width1", func(t *testing.T) {
		r := newRunner(t, plainLoop(), Config{Threads: 1})
		r.MustRun(l.head)
		if avg := testing.AllocsPerRun(20, func() { r.MustRun(l.head) }); avg != 0 {
			t.Errorf("a width-1 Run allocates %.1f objects/op", avg)
		}
	})
	t.Run("gated", func(t *testing.T) {
		r := newRunner(t, plainLoop(), Config{Threads: 4, Options: Options{Adaptive: true}})
		l.warm(t, r, 4) // warm predictor and buffers
		for k := range r.ctrl.score {
			for r.ctrl.Admit(k) {
				r.ctrl.Miss(k)
			}
		}
		before := r.Stats()
		avg := testing.AllocsPerRun(20, func() {
			r.ctrl.narrowed = 0 // no probe: the gate stays closed
			if got := r.MustRun(l.head); got != want {
				t.Fatalf("gated Run = %+v, want %+v", got, want)
			}
		})
		if avg != 0 {
			t.Errorf("a gated Run allocates %.1f objects/op", avg)
		}
		if d := r.Stats().Delta(before); d.SequentialFallbacks != d.Invocations || d.Hits+d.Misses != 0 {
			t.Fatalf("%d of %d invocations were gated (%d chunks speculated); the test means all of them",
				d.SequentialFallbacks, d.Invocations, d.Hits+d.Misses)
		}
	})
}
