package spice

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// --- Executor ---------------------------------------------------------

type countTask struct {
	n  *atomic.Int64
	wg *sync.WaitGroup
}

func (t *countTask) run() {
	t.n.Add(1)
	t.wg.Done()
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
	var n atomic.Int64
	var wg sync.WaitGroup
	tasks := make([]countTask, 100)
	for i := range tasks {
		tasks[i] = countTask{n: &n, wg: &wg}
		wg.Add(1)
		submitTask(e, &tasks[i], uint32(i))
	}
	wg.Wait()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
	e.Close()
	e.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("submit on a closed executor did not panic")
		}
	}()
	e.enqueue(&tasks[0], 0)
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
	r, err := NewRunner(xorLoop(), Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	l := newTestList(100, 1)
	for i := 0; i < 3; i++ {
		r.MustRun(l.head)
	}
	r.Close()
	r.Close()
}

func TestRunnersShareExecutor(t *testing.T) {
	e := NewExecutor(4)
	defer e.Close()
	r1, err := NewRunner(xorLoop(), Config{Threads: 4, Executor: e})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(xorLoop(), Config{Threads: 4, Executor: e})
	if err != nil {
		t.Fatal(err)
	}
	l1, l2 := newTestList(300, 1), newTestList(400, 2)
	for i := 0; i < 10; i++ {
		want1, want2 := sequential(xorLoop(), l1.head), sequential(xorLoop(), l2.head)
		if got := r1.MustRun(l1.head); got != want1 {
			t.Fatalf("r1 inv %d mismatch", i)
		}
		if got := r2.MustRun(l2.head); got != want2 {
			t.Fatalf("r2 inv %d mismatch", i)
		}
		l1.churn()
		l2.churn()
	}
	// Close on a non-owning runner must leave the shared executor alive.
	r1.Close()
	if got := r2.MustRun(l2.head); got != sequential(xorLoop(), l2.head) {
		t.Fatal("shared executor unusable after sibling Close")
	}
	r2.Close()
}

func TestConcurrentRunOnRunnerPanics(t *testing.T) {
	r, err := NewRunner(xorLoop(), Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Simulate an in-flight invocation and verify the guard trips.
	r.running.Store(true)
	defer r.running.Store(false)
	defer func() {
		if recover() == nil {
			t.Fatal("concurrent Run did not panic")
		}
	}()
	r.MustRun(nil)
}

// --- Pool -------------------------------------------------------------

func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(Loop[*node, sumAcc]{}, PoolConfig{Config: Config{Threads: 2}}); err == nil {
		t.Error("empty loop accepted")
	}
	if _, err := NewPool(xorLoop(), PoolConfig{}); err != ErrNoParallelism {
		t.Error("zero threads accepted")
	}
	e := NewExecutor(1)
	defer e.Close()
	if _, err := NewPool(xorLoop(), PoolConfig{Config: Config{Threads: 2, Executor: e}}); err == nil {
		t.Error("external executor accepted")
	}
	// A fresh pool reports the configured width before any runner is
	// released, not zero.
	p, err := NewPool(xorLoop(), PoolConfig{Config: Config{Threads: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if eff := p.Stats().EffectiveThreads; eff != 4 {
		t.Errorf("fresh pool EffectiveThreads = %d, want 4", eff)
	}
}

// TestRuntimeDefaults pins what the runtime derives instead of taking
// from the caller: the shared pool's and a private runner's worker
// counts from the topology, the speculative cap from the last trip
// count, and the interval at which a throttled adaptive runner probes.
func TestRuntimeDefaults(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, threads := range []int{1, 2, 4, 8} {
			p, err := NewPool(xorLoop(), PoolConfig{Config: Config{Threads: threads}})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := p.Workers(), max(procs-1, threads-1, 1); got != want {
				t.Errorf("GOMAXPROCS %d, Threads %d: pool workers = %d, want %d", procs, threads, got, want)
			}
			p.Close()
			r, err := NewRunner(xorLoop(), Config{Threads: threads})
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

	r, err := NewRunner(xorLoop(), Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.pred.specCap(r.cfg.maxSpec); got != 1<<20 {
		t.Errorf("cap before any trip count = %d, want %d", got, 1<<20)
	}
	r.MustRun(newTestList(3000, 1).head)
	if got := r.pred.specCap(r.cfg.maxSpec); got != 4*3000+1024 {
		t.Errorf("cap after a 3000-iteration trip = %d, want %d", got, 4*3000+1024)
	}

	a, err := NewRunner(xorLoop(), Config{Threads: 4, Options: Options{Adaptive: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.ctrl.Observe(specGated) // demoted straight to width 1
	l := newTestList(3000, 2)
	for inv := 1; inv <= 9; inv++ {
		a.MustRun(l.head)
		want := int64(1) // the 9th invocation probes width 2 and, clean, promotes
		if inv == 9 {
			want = 2
		}
		if eff := a.Stats().EffectiveThreads; eff != want {
			t.Fatalf("invocation %d after the demotion: width %d, want %d", inv, eff, want)
		}
	}
}

func TestPoolSequentialSubmissionsReuseRunner(t *testing.T) {
	p, err := NewPool(xorLoop(), PoolConfig{Config: Config{Threads: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	l := newTestList(500, 3)
	for inv := 0; inv < 15; inv++ {
		want := sequential(xorLoop(), l.head)
		if got := p.MustRun(l.head); got != want {
			t.Fatalf("inv %d: got %+v want %+v", inv, got, want)
		}
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
	nonzero := 0
	for _, w := range st.LastWorks {
		if w > 0 {
			nonzero++
		}
	}
	if nonzero < 2 {
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
	p, err := NewPool(xorLoop(), PoolConfig{Config: Config{Threads: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	errs := make(chan string, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, serr := p.Session()
			if serr != nil {
				t.Error(serr)
				return
			}
			defer s.Close()
			l := newTestList(300+17*g, int64(1000+g))
			for inv := 0; inv < invocations; inv++ {
				want := sequential(xorLoop(), l.head)
				if got := s.MustRun(l.head); got != want {
					errs <- "submitter result diverged from sequential reference"
					return
				}
				switch inv % 3 {
				case 0:
					l.churn()
				case 1:
					l.heavyChurn(0.4)
				case 2:
					ns := l.nodes()
					if len(ns) > 1 {
						l.relink(ns[:len(ns)/2+1])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

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
	p, err := NewPool(xorLoop(), PoolConfig{Config: Config{Threads: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	l := newTestList(1500, 77)
	for round := 0; round < rounds; round++ {
		want := sequential(xorLoop(), l.head)
		var wg sync.WaitGroup
		errs := make(chan string, submitters)
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for inv := 0; inv < perRound; inv++ {
					if got := p.MustRun(l.head); got != want {
						errs <- "shared-list result diverged from sequential reference"
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
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
	p, err := NewPool(xorLoop(), PoolConfig{Config: Config{Threads: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var submitters sync.WaitGroup
	for g := 0; g < 4; g++ {
		submitters.Add(1)
		go func(g int) {
			defer submitters.Done()
			s, serr := p.Session()
			if serr != nil {
				t.Error(serr)
				return
			}
			defer s.Close()
			l := newTestList(400, int64(g))
			for inv := 0; inv < 20; inv++ {
				s.MustRun(l.head)
				l.churn()
			}
		}(g)
	}
	stop := make(chan struct{})
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
			if st.Invocations < 0 || st.TotalIters < 0 {
				t.Error("negative counters")
				return
			}
		}
	}()
	submitters.Wait()
	close(stop)
	reader.Wait()
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
	p, err := NewPool(xorLoop(), PoolConfig{Config: Config{Threads: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	l := newTestList(400, 1)

	wide, err := p.SessionWidth(4)
	if err != nil {
		t.Fatal(err)
	}
	wide.MustRun(l.head)
	wide.Close()

	narrow, err := p.SessionWidth(1)
	if err != nil {
		t.Fatal(err)
	}
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
	l := newTestList(4000, 8)
	r, err := NewRunner(xorLoop(), Config{Threads: 4, maxSpec: 600})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for inv := 0; inv < 6; inv++ {
		want := sequential(xorLoop(), l.head)
		if got := r.MustRun(l.head); got != want {
			t.Fatalf("inv %d: got %+v want %+v", inv, got, want)
		}
	}
	st := r.Stats()
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
	l := newTestList(400, 19)
	r, err := NewRunner(xorLoop(), Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Warm up: bootstrap plus enough invocations to memoize all rows.
	for inv := 0; inv < 4; inv++ {
		want := sequential(xorLoop(), l.head)
		if got := r.MustRun(l.head); got != want {
			t.Fatalf("warmup inv %d mismatch", inv)
		}
	}
	// Grow the list ~10x in the middle: the chunk spanning the insertion
	// exceeds the cap derived from the old trip count.
	ns := l.nodes()
	mid := len(ns) / 2
	grown := make([]*node, 0, len(ns)+3600)
	grown = append(grown, ns[:mid]...)
	for i := 0; i < 3600; i++ {
		grown = append(grown, &node{weight: int64(i * 2654435761)})
	}
	grown = append(grown, ns[mid:]...)
	l.relink(grown)

	before := r.Stats()
	want := sequential(xorLoop(), l.head)
	if got := r.MustRun(l.head); got != want {
		t.Fatalf("growth invocation: got %+v want %+v", got, want)
	}
	after := r.Stats()
	if after.Recoveries == before.Recoveries {
		t.Fatal("10x growth did not trigger parallel recovery")
	}
	if after.RecoveryChunks-before.RecoveryChunks < 2 {
		t.Errorf("recovery committed %d chunks; remainder not parallelized",
			after.RecoveryChunks-before.RecoveryChunks)
	}

	// Recovery re-memoized: within two invocations the split is balanced
	// again and no further recovery happens.
	for inv := 0; inv < 2; inv++ {
		want = sequential(xorLoop(), l.head)
		if got := r.MustRun(l.head); got != want {
			t.Fatalf("post-recovery inv %d mismatch", inv)
		}
	}
	final := r.Stats()
	if final.Recoveries != after.Recoveries {
		t.Errorf("recovery kept firing after re-memoization (%d -> %d)",
			after.Recoveries, final.Recoveries)
	}
	nonzero := 0
	for _, w := range final.LastWorks {
		if w > 0 {
			nonzero++
		}
	}
	if nonzero != 4 {
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
	p, err := NewPool(xorLoop(), PoolConfig{Config: Config{Threads: 4, maxSpec: 300}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	fail := make(chan struct{}, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, serr := p.Session()
			if serr != nil {
				t.Error(serr)
				return
			}
			defer s.Close()
			l := newTestList(2000, int64(100+g))
			for inv := 0; inv < 10; inv++ {
				want := sequential(xorLoop(), l.head)
				if got := s.MustRun(l.head); got != want {
					fail <- struct{}{}
					return
				}
				l.churn()
			}
		}(g)
	}
	wg.Wait()
	close(fail)
	if _, bad := <-fail; bad {
		t.Fatal("concurrent recovery produced a wrong result")
	}
	if st := p.Stats(); st.Recoveries == 0 {
		t.Error("cap of 300 on 2000-element lists never triggered recovery")
	}
}

// --- Adaptive sessions ------------------------------------------------

// TestPoolAdaptiveSessionStress drives concurrent sessions over
// distinct structures with adaptive throttling active: half the
// submitters traverse stable lists (must keep full width), half
// traverse fully unstable ones (must throttle), and every result must
// equal the sequential reference. Run under -race this is the
// acceptance test for the controller in the concurrent front door.
func TestPoolAdaptiveSessionStress(t *testing.T) {
	const submitters = 8
	p, err := NewPool(xorLoop(), PoolConfig{
		Config: Config{Threads: 4, Options: Options{Adaptive: true}, probeEvery: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	errs := make(chan string, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, serr := p.Session()
			if serr != nil {
				t.Error(serr)
				return
			}
			defer s.Close()
			hostile := g%2 == 1
			l := newTestList(600+31*g, int64(500+g))
			for inv := 0; inv < 20; inv++ {
				want := sequential(xorLoop(), l.head)
				if got := s.MustRun(l.head); got != want {
					errs <- "adaptive session result diverged from sequential reference"
					return
				}
				if hostile {
					l = newTestList(600+31*g, int64(9000+100*g+inv)) // fresh nodes: fully unstable
				} else {
					l.churn()
				}
			}
			st := s.Stats()
			if hostile && st.SequentialFallbacks == 0 {
				errs <- "hostile session never fell back to sequential execution"
			}
			if !hostile && st.EffectiveThreads != 4 {
				errs <- "stable session lost parallel width to a hostile neighbour"
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSessionNoAdaptiveBleed is the regression guard for the
// runner-recycling path: a session that hammered a runner's confidence
// and throttle state on a hostile structure must hand back a fully
// reset runner, so the next session (which recycles it via the free
// list) starts at full width with neutral confidence.
func TestSessionNoAdaptiveBleed(t *testing.T) {
	p, err := NewPool(xorLoop(), PoolConfig{
		Config: Config{Threads: 4, Options: Options{Adaptive: true}, probeEvery: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Session 1: fully unstable traversal until throttled to width 1.
	s1, err := p.Session()
	if err != nil {
		t.Fatal(err)
	}
	for inv := 0; inv < 30; inv++ {
		l := newTestList(800, int64(3000+inv))
		want := sequential(xorLoop(), l.head)
		if got := s1.MustRun(l.head); got != want {
			t.Fatalf("hostile inv %d mismatch", inv)
		}
	}
	if eff := s1.Stats().EffectiveThreads; eff != 1 {
		t.Fatalf("hostile session not throttled (eff=%d); bleed test needs a poisoned runner", eff)
	}
	r1 := s1.r
	s1.Close()

	// Session 2 recycles the same runner off the free list. With a huge
	// probe interval, any leftover throttle or gated confidence would
	// keep it sequential for the whole test — the reset must not leave
	// any.
	s2, err := p.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
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
		if !r1.pred.conf.Admit(k) {
			t.Fatalf("recycled runner kept gated confidence for row %d", k)
		}
	}
	before := s2.Stats()
	l := newTestList(900, 4)
	for inv := 0; inv < 10; inv++ {
		want := sequential(xorLoop(), l.head)
		if got := s2.MustRun(l.head); got != want {
			t.Fatalf("stable inv %d mismatch", inv)
		}
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
	l := newTestList(2000, 4)
	r, err := NewRunner(xorLoop(), Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for inv := 0; inv < 8; inv++ {
		r.MustRun(l.head) // warm predictor and buffers
	}
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
	l := newTestList(2000, 4)
	want := sequential(xorLoop(), l.head)
	t.Run("width1", func(t *testing.T) {
		r, err := NewRunner(xorLoop(), Config{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		r.MustRun(l.head)
		if avg := testing.AllocsPerRun(20, func() { r.MustRun(l.head) }); avg != 0 {
			t.Errorf("a width-1 Run allocates %.1f objects/op", avg)
		}
	})
	t.Run("gated", func(t *testing.T) {
		r, err := NewRunner(xorLoop(), Config{Threads: 4, Options: Options{Adaptive: true}})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for inv := 0; inv < 4; inv++ {
			r.MustRun(l.head) // warm predictor and buffers
		}
		for k := 0; k < 3; k++ {
			for r.pred.conf.Admit(k) {
				r.pred.conf.Miss(k)
			}
		}
		before := r.Stats()
		avg := testing.AllocsPerRun(20, func() {
			r.ctrl.Reset() // full width again: the gate, not the throttle, leaves one slot
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
