package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"spice"
	"spice/internal/workloads/circuit"
	"spice/internal/workloads/native"
)

// The ladder is the fixed set of probes every traced run repeats: the
// same small traversal pushed through each layer's public door, so the
// difference between two rungs is the cost of the layer between them.
const (
	smallNodes = 4096 // fixed cost dominates
	fitSmall   = 8192 // the two sizes of the fixed/slope fit
	fitLarge   = 65536
	histoNodes = 20000
)

// tally counts the ladder's verified operations.
type tally struct {
	attempted, failed int64
}

func (c *tally) check(got, want int64, err error) {
	c.attempted++
	if err != nil || got != want {
		c.failed++
	}
}

// timeOps times n calls of f and returns the per-call ns.
func timeOps(n int, f func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		f()
		out[i] = float64(time.Since(t0))
	}
	return out
}

// reps scales a probe's repeat count with the run length (base is the
// count for a 10 s run) and keeps enough for a median.
func reps(base int, seconds float64) int {
	return max(5, int(float64(base)*seconds/10))
}

// runnerP50 is the median op time of a Runner at the given width over a
// stable contiguous list of n nodes.
func runnerP50(c *tally, seed int64, n, width, ops int, ex *spice.Executor, gap time.Duration) (float64, error) {
	head, _ := slabList(rand.New(rand.NewSource(seed)), n, nil)
	want := sumRef(head)
	r, err := spice.NewRunner(native.Loop(), spice.Config{Threads: width, Executor: ex})
	if err != nil {
		return 0, err
	}
	defer r.Close()
	run := func() {
		got, err := r.Run(bg, head)
		c.check(got, want, err)
	}
	for i := 0; i < 8; i++ {
		run()
	}
	lat := make([]float64, 0, ops)
	for i := 0; i < ops; i++ {
		if gap > 0 {
			time.Sleep(gap) // long enough for the workers to park
		}
		t0 := time.Now()
		run()
		lat = append(lat, float64(time.Since(t0)))
	}
	return median(lat), nil
}

// ladderRuntime measures the runner, scheduler, executor and pool rungs.
func ladderRuntime(c *tally, seed int64, seconds float64) (map[string]float64, error) {
	m := map[string]float64{}
	W := targetWidth()
	ops := reps(150, seconds)

	for _, side := range []struct {
		width      int
		fixed, fit string
	}{
		{1, "runner.fixed_us_per_op", "runner.fit_ns_per_iter"},
		{W, "scheduler.fixed_us_per_op", "scheduler.fit_ns_per_iter"},
	} {
		t1, err := runnerP50(c, seed, fitSmall, side.width, ops, nil, 0)
		if err != nil {
			return nil, err
		}
		t2, err := runnerP50(c, seed, fitLarge, side.width, ops, nil, 0)
		if err != nil {
			return nil, err
		}
		fixed, slope := fit2(fitSmall, t1, fitLarge, t2)
		m[side.fixed] = fixed / 1e3
		m[side.fit] = slope
	}

	private, err := runnerP50(c, seed, smallNodes, W, 2*ops, nil, 0)
	if err != nil {
		return nil, err
	}
	cold, err := runnerP50(c, seed, smallNodes, W, ops, nil, time.Millisecond)
	if err != nil {
		return nil, err
	}
	ex := spice.NewExecutor(W - 1)
	shared, err := runnerP50(c, seed, smallNodes, W, 2*ops, ex, 0)
	ex.Close()
	if err != nil {
		return nil, err
	}
	m["executor.cold_wake_us"] = (cold - private) / 1e3
	m["executor.shared_vs_private"] = ratio(shared, private)

	pm, err := ladderPool(c, seed, ops)
	if err != nil {
		return nil, err
	}
	return m, mergeInto(m, pm)
}

// ladderPool drives one pool through its five doors on the small list.
func ladderPool(c *tally, seed int64, ops int) (map[string]float64, error) {
	head, _ := slabList(rand.New(rand.NewSource(seed)), smallNodes, nil)
	want := sumRef(head)
	pool, err := spice.NewPool(native.Loop(), spice.PoolConfig{Config: spice.Config{Threads: targetWidth()}})
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	m := map[string]float64{}

	run := func() {
		got, err := pool.Run(bg, head)
		c.check(got, want, err)
	}
	for i := 0; i < 8; i++ {
		run()
	}
	m["pool.run_us_small"] = median(timeOps(2*ops, run)) / 1e3

	sess, err := pool.Session()
	if err != nil {
		return nil, err
	}
	srun := func() {
		got, err := sess.Run(bg, head)
		c.check(got, want, err)
	}
	for i := 0; i < 8; i++ {
		srun()
	}
	m["pool.session_run_us_small"] = median(timeOps(2*ops, srun)) / 1e3
	sess.Close()

	before := pool.Stats()
	const batch = 64
	starts := make([]*node, batch)
	for i := range starts {
		starts[i] = head
	}
	perBatch := timeOps(max(5, ops/16), func() {
		accs, err := pool.RunBatch(bg, starts)
		for _, got := range accs {
			c.check(got, want, err)
		}
		if len(accs) != batch {
			c.check(0, 1, fmt.Errorf("short batch"))
		}
	})
	m["pool.batch_us_per_inv_small"] = median(perBatch) / batch / 1e3

	// Submit, eight deep: wait for the oldest future, submit a new one.
	const depth = 8
	n := 4 * ops
	ring := make([]*spice.Future[int64], depth)
	t0 := time.Now()
	for i := 0; i < n+depth; i++ {
		if f := ring[i%depth]; f != nil {
			got, err := f.Wait()
			c.check(got, want, err)
		}
		ring[i%depth] = nil
		if i < n {
			ring[i%depth] = pool.Submit(bg, head)
		}
	}
	m["pool.submit_us_per_inv_small"] = float64(time.Since(t0)) / float64(n) / 1e3
	d := pool.Stats().Delta(before)
	m["pool.ladder_shed_ratio"] = ratio(float64(d.BatchSheds), float64(d.Invocations))

	// Pool.Run from two submitters at once.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var lat []float64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local tally
			l := timeOps(ops, func() {
				got, err := pool.Run(bg, head)
				local.check(got, want, err)
			})
			mu.Lock()
			lat = append(lat, l...)
			c.attempted += local.attempted
			c.failed += local.failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	m["pool.run2_us_small"] = median(lat) / 1e3
	return m, nil
}

// ladderCells runs native's histo kernel (load, store and two
// reductions per node) with no node and with every node on the eight
// shared buckets, through an adaptive session. Each op is checked
// against a sequential replay of the same instance.
func ladderCells(c *tally, seed int64, seconds float64) (map[string]float64, error) {
	m := map[string]float64{}
	for _, regime := range []struct {
		key   string
		churn int
	}{{"none", 0}, {"dense", 256}} {
		k := tenantKind{kernel: "histo", churn: regime.churn, size: histoNodes, invocations: 1}
		oracle, err := newReplayer(k, seed)
		if err != nil {
			return nil, err
		}
		inst := native.ByName("histo").New(histoNodes, seed, regime.churn)
		s, release, err := sessionSeries(native.SpecLoop(), func() *node { return inst.Head }, targetWidth(), true, inst.Cells)
		if err != nil {
			oracle.close()
			return nil, err
		}
		var lat []float64
		var before spice.Stats
		for i, n := 0, reps(80, seconds); i < 8+n; i++ {
			if i == 8 {
				before = s.stats()
				lat = lat[:0]
			}
			t0 := time.Now()
			got, err := s.op()
			lat = append(lat, float64(time.Since(t0)))
			inst.Mutate()
			want, werr := oracle.job()
			if err == nil {
				err = werr
			}
			c.check(got, want, err)
		}
		d := s.stats().Delta(before)
		release()
		oracle.close()
		m["cells."+regime.key+"_wN_ns_per_iter"] = median(lat) / histoNodes
		if regime.key == "dense" {
			m["cells.dense_conflicts_per_op"] = ratio(float64(d.Conflicts), float64(d.Invocations))
			m["cells.dense_seq_fallback_ratio"] = ratio(float64(d.SequentialFallbacks), float64(d.Invocations))
		}
	}
	return m, nil
}

// ladderCircuit times the three series of both netlists and the pool
// set-up RunParallel pays on every call.
func ladderCircuit(c *tally, seconds float64) (map[string]float64, error) {
	m := map[string]float64{}
	for _, net := range []struct {
		prefix string
		mk     func() *circuit.Circuit
		steps  int
		runs   int
	}{
		{"circuit.", func() *circuit.Circuit { return circuit.RCLadder(ladderSections, ladderBranches) }, ladderSteps, reps(7, seconds)},
		{"circuit.rectifier_", func() *circuit.Circuit { return circuit.Rectifier(rectBundles) }, rectSteps, reps(3, seconds)},
	} {
		t, err := circuitTrio(net.mk, net.steps)
		if err != nil {
			return nil, err
		}
		// Round 0 runs the ref block first, which records the reference
		// waveform the parallel ops are compared with.
		before := [nSeries]spice.Stats{sW1: t.s[sW1].stats(), sWN: t.s[sWN].stats()}
		rs := t.round(0, net.runs, nil)
		a, f, err := t.verify()
		c.attempted += a
		c.failed += f
		if err != nil {
			return nil, err
		}
		d1 := t.s[sW1].stats().Delta(before[sW1])
		dN := t.s[sWN].stats().Delta(before[sWN])
		sweeps := ratio(float64(dN.Invocations), float64(net.runs))
		if s1 := ratio(float64(d1.Invocations), float64(net.runs)); s1 != sweeps {
			return nil, fmt.Errorf("%ssweeps_per_run: width 1 ran %v sweeps, width %d ran %v", net.prefix, s1, targetWidth(), sweeps)
		}
		seq, w1, wN := median(rs.lat[sRef]), median(rs.lat[sW1]), median(rs.lat[sWN])
		m[net.prefix+"seq_ms"] = seq / 1e6
		m[net.prefix+"w1_ms"] = w1 / 1e6
		m[net.prefix+"wN_ms"] = wN / 1e6
		m[net.prefix+"sweeps_per_run"] = sweeps
		if net.prefix == "circuit." {
			m["circuit.sweep_tax_us"] = (w1 - seq) / sweeps / 1e3
			m["circuit.hit_ratio"] = ratio(float64(dN.Hits), float64(dN.Hits+dN.Misses))
		}
	}

	setup := timeOps(reps(60, seconds), func() {
		pool, err := spice.NewPool(native.SpecLoop(), spice.PoolConfig{Config: spice.Config{
			Threads: targetWidth(), Options: spice.Options{Adaptive: true},
		}})
		if err != nil {
			c.check(0, 1, err)
			return
		}
		if sess, err := pool.SessionWidth(targetWidth()); err == nil {
			sess.Close()
		}
		pool.Close()
	})
	m["circuit.pool_setup_us"] = median(setup) / 1e3
	return m, nil
}

// ladderNative times the kernel work spiced does inside a job's service
// time: building an instance and churning it.
func ladderNative(seed int64, seconds float64) map[string]float64 {
	sum := native.ByName("sumlist")
	var inst *native.Instance
	build := timeOps(reps(7, seconds), func() { inst = sum.New(20000, seed, 8) })
	hostile := native.ByName("hostile").New(20000, seed, 4000)
	return map[string]float64{
		"native.build_ms_20k":      median(build) / 1e6,
		"native.mutate_us_sumlist": median(timeOps(reps(400, seconds), inst.Mutate)) / 1e3,
		"native.mutate_us_hostile": median(timeOps(reps(40, seconds), hostile.Mutate)) / 1e3,
	}
}
