package spice

// The benchmarks in this file measure the native runtime: the paper's
// two ablations (validation mode, re-memoization) as counterfactuals
// over one runner, per-invocation and per-iteration overhead, pool and
// batch throughput, the adaptive controller and the DOACROSS cell
// store. CI gates on their rows (allocs/op and the -faster orderings,
// see .github/workflows/ci.yml).
// The paper's tables and figures are benchmarked beside the harness
// that produces them (internal/harness/bench_test.go).
//
// Run: go test -run xxx -bench . -benchmem .

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// nativeChurnRun drives a width-4 runner over a churning list for 40
// invocations and returns its ablations (spice_test.go) as percentages:
// the invocations it squashed, and those positional validation and a
// memoize-once predictor would have. replaceFrac additionally replaces
// that fraction of the membership each invocation (node deletions, the
// failure mode re-memoization exists to absorb).
func nativeChurnRun(b *testing.B, replaceFrac float64) (member, positional, once float64) {
	rng := rand.New(rand.NewSource(21))
	type nd struct {
		w    int64
		next *nd
	}
	var head *nd
	var all []*nd
	for i := 0; i < 4000; i++ {
		head = &nd{w: rng.Int63n(1 << 20), next: head}
		all = append(all, head)
	}
	loop := Loop[*nd, int64]{
		Done:  func(n *nd) bool { return n == nil },
		Next:  func(n *nd) *nd { return n.next },
		Body:  func(n *nd, a int64) int64 { return a + n.w },
		Init:  func() int64 { return 0 },
		Merge: func(a, c int64) int64 { return a + c },
	}
	r, err := NewRunner(loop, Config{Threads: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	a := ablations[*nd, int64]{r: r}
	for inv := 0; inv < 40; inv++ {
		a.run(b, head)
		// Value churn.
		for k := 0; k < 200; k++ {
			all[rng.Intn(len(all))].w = rng.Int63n(1 << 20)
		}
		// Structural churn: insert and remove ~1% of nodes at random
		// positions, shifting every downstream node's position (harmless
		// to membership validation, fatal to positional validation).
		var ns []*nd
		for c := head; c != nil; c = c.next {
			ns = append(ns, c)
		}
		for k := 0; k < int(replaceFrac*float64(len(ns))); k++ {
			ns[rng.Intn(len(ns))] = &nd{w: rng.Int63n(1 << 20)}
		}
		for k := 0; k < len(ns)/100; k++ {
			pos := rng.Intn(len(ns) + 1)
			ns = append(ns[:pos], append([]*nd{{w: rng.Int63n(1 << 20)}}, ns[pos:]...)...)
			del := rng.Intn(len(ns))
			ns = append(ns[:del], ns[del+1:]...)
		}
		for i := range ns {
			if i+1 < len(ns) {
				ns[i].next = ns[i+1]
			} else {
				ns[i].next = nil
			}
		}
		head = ns[0]
	}
	pct := func(n int64) float64 { return float64(n) / 40 * 100 }
	return pct(a.member), pct(a.positional), pct(a.once)
}

// BenchmarkAblationValidationMode compares order-free membership
// validation (the paper's second insight) against positional validation
// over the same rows under structural churn.
func BenchmarkAblationValidationMode(b *testing.B) {
	var member, positional float64
	for i := 0; i < b.N; i++ {
		member, positional, _ = nativeChurnRun(b, 0)
	}
	b.ReportMetric(member, "membership_misspec_pct")
	b.ReportMetric(positional, "positional_misspec_pct")
}

// BenchmarkAblationMemoization compares per-invocation re-memoization
// (Section 4) against the memoize-once strawman, which keeps the first
// memoization's rows.
func BenchmarkAblationMemoization(b *testing.B) {
	var every, once float64
	for i := 0; i < b.N; i++ {
		every, _, once = nativeChurnRun(b, 0.10)
	}
	b.ReportMetric(every, "every_invocation_misspec_pct")
	b.ReportMetric(once, "memoize_once_misspec_pct")
}

// BenchmarkNativeRunner measures the native runtime's per-invocation
// overhead on a stable list (wall-clock; on a single-CPU host this
// measures bookkeeping, not parallel speedup).
func BenchmarkNativeRunner(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	type nd struct {
		w    int64
		next *nd
	}
	var head *nd
	for i := 0; i < 100_000; i++ {
		head = &nd{w: rng.Int63n(1 << 20), next: head}
	}
	loop := Loop[*nd, int64]{
		Done:  func(n *nd) bool { return n == nil },
		Next:  func(n *nd) *nd { return n.next },
		Body:  func(n *nd, a int64) int64 { return a + n.w },
		Init:  func() int64 { return 0 },
		Merge: func(a, c int64) int64 { return a + c },
	}
	for _, threads := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("t%d", threads), func(b *testing.B) {
			r, err := NewRunner(loop, Config{Threads: threads})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			ctx := context.Background()
			r.MustRun(head)  // bootstrap outside the timer
			b.ReportAllocs() // steady-state path reuses all buffers: ~0 allocs/op
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(ctx, head); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Stats().MisspecInvocations), "misspec")
		})
	}
}

// BenchmarkInvocationFloor is what an invocation costs before its first
// iteration: an 8-node list, so the op is the fixed path of
// runInvocation and scheduler.run for a round of one (arming, one latch
// add and done, the abort store, publish, release). t1 is Run on a
// width-1 runner, gated at 0 allocs/op; t2_shed is a 64-start
// Session.RunBatch on a width-2 pool, every item shed for being short
// (ns/inv is the per-invocation figure; the op allocates its result
// slice, so the row is not gated). The number to re-read whenever that
// fixed path changes.
func BenchmarkInvocationFloor(b *testing.B) {
	type nd struct {
		w    int64
		next *nd
	}
	var head *nd
	for i := 0; i < 8; i++ {
		head = &nd{w: int64(i), next: head}
	}
	loop := Loop[*nd, int64]{
		Done:  func(n *nd) bool { return n == nil },
		Next:  func(n *nd) *nd { return n.next },
		Body:  func(n *nd, a int64) int64 { return a + n.w },
		Init:  func() int64 { return 0 },
		Merge: func(a, c int64) int64 { return a + c },
	}
	ctx := context.Background()
	b.Run("t1", func(b *testing.B) {
		r, err := NewRunner(loop, Config{Threads: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		r.MustRun(head)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Run(ctx, head); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("t2_shed", func(b *testing.B) {
		const batchLen = 64
		p, err := NewPool(loop, PoolConfig{Config: Config{Threads: 2}})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		sess, err := p.Session()
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		starts := make([]*nd, batchLen)
		for i := range starts {
			starts[i] = head
		}
		if _, err := sess.RunBatch(ctx, starts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.RunBatch(ctx, starts); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchLen), "ns/inv")
		if st := sess.Stats(); st.BatchSheds != st.Invocations {
			b.Fatalf("%d of %d invocations shed", st.BatchSheds, st.Invocations)
		}
	})
}

// BenchmarkIterationOverhead isolates the runtime's per-iteration
// software overhead — the quantity the block-structured hot loop
// exists to minimize. One stable 100k-node list, fully predictable, is
// traversed by the sequential path (Threads:1) and by 2- and 4-chunk
// parallel invocations; the ns_iter metric is wall ns/op divided by
// the trip count. On a multi-core host the parallel rows divide the
// traversal across cores and ns_iter drops below sequential; on a
// single-CPU host the delta between rows is pure bookkeeping: chunk
// dispatch, the per-iteration successor-detection compare, and
// commit/validation — the overhead budget this benchmark gates.
//
// The seq/t2/t4 rows run the closure triple (three indirect calls per
// iteration); the scan_ rows run the same loop with its block form set
// (Loop.Scan), where a chunk's inner loop is the caller's compiled code.
func BenchmarkIterationOverhead(b *testing.B) {
	const listLen = 100_000
	rng := rand.New(rand.NewSource(5))
	type nd struct {
		w    int64
		next *nd
	}
	var head *nd
	for i := 0; i < listLen; i++ {
		head = &nd{w: rng.Int63n(1 << 20), next: head}
	}
	loop := Loop[*nd, int64]{
		Done:  func(n *nd) bool { return n == nil },
		Next:  func(n *nd) *nd { return n.next },
		Body:  func(n *nd, a int64) int64 { return a + n.w },
		Init:  func() int64 { return 0 },
		Merge: func(a, c int64) int64 { return a + c },
	}
	block := loop
	block.Scan = func(n *nd, a int64, _ *CellView, stop *nd, max int64) (*nd, int64, int64) {
		var k int64
		for ; k < max && n != nil && n != stop; k++ {
			a += n.w
			n = n.next
		}
		return n, a, k
	}
	for _, mode := range []struct {
		name    string
		loop    Loop[*nd, int64]
		threads int
	}{
		{"seq", loop, 1}, {"t2", loop, 2}, {"t4", loop, 4},
		{"scan_seq", block, 1}, {"scan_t2", block, 2}, {"scan_t4", block, 4},
	} {
		b.Run(mode.name, func(b *testing.B) {
			r, err := NewRunner(mode.loop, Config{Threads: mode.threads})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			ctx := context.Background()
			r.MustRun(head) // bootstrap memoization outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(ctx, head); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/listLen, "ns_iter")
		})
	}
}

// BenchmarkPoolThroughput measures the concurrent front door: N
// goroutines submit invocations over one shared 100k-element list
// through one Pool — persistent workers, recycled runner states, no
// goroutine spawned and (steady state) nothing allocated per
// invocation.
func BenchmarkPoolThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	type nd struct {
		w    int64
		next *nd
	}
	var head *nd
	for i := 0; i < 100_000; i++ {
		head = &nd{w: rng.Int63n(1 << 20), next: head}
	}
	loop := Loop[*nd, int64]{
		Done:  func(n *nd) bool { return n == nil },
		Next:  func(n *nd) *nd { return n.next },
		Body:  func(n *nd, a int64) int64 { return a + n.w },
		Init:  func() int64 { return 0 },
		Merge: func(a, c int64) int64 { return a + c },
	}
	for _, subs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("submitters_%d", subs), func(b *testing.B) {
			p, err := NewPool(loop, PoolConfig{Config: Config{Threads: 4}})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			// Warm one runner per submitter outside the timer.
			ctx := context.Background()
			var warm sync.WaitGroup
			for g := 0; g < subs; g++ {
				warm.Add(1)
				go func() {
					defer warm.Done()
					p.MustRun(head)
					p.MustRun(head)
				}()
			}
			warm.Wait()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < subs; g++ {
				n := b.N / subs
				if g < b.N%subs {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := p.Run(ctx, head); err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(p.Runners()), "runners")
		})
	}
}

// BenchmarkBatchThroughput measures the batched/async front door under
// high submitter concurrency: many *small* invocations — the regime
// where per-invocation fixed costs (runner acquisition, chunk dispatch,
// WaitGroup park/unpark) dominate the traversal itself — streamed by
// max(8, GOMAXPROCS) goroutines over one shared list. mode_run is the
// naive baseline (one Pool.Run per invocation); mode_batch amortizes
// acquisition over RunBatch slices and sheds speculation while the
// executor is saturated; mode_submit pipelines a window of Futures.
// The acceptance bar (CI compares against BENCH_pool.json) is
// mode_batch ≥ 1.5x mode_run throughput at 8+ submitters, with
// mode_run and mode_batch allocation-free per invocation.
func BenchmarkBatchThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	type nd struct {
		w    int64
		next *nd
	}
	var head *nd
	for i := 0; i < 600; i++ {
		head = &nd{w: rng.Int63n(1 << 20), next: head}
	}
	loop := Loop[*nd, int64]{
		Done:  func(n *nd) bool { return n == nil },
		Next:  func(n *nd) *nd { return n.next },
		Body:  func(n *nd, a int64) int64 { return a + n.w },
		Init:  func() int64 { return 0 },
		Merge: func(a, c int64) int64 { return a + c },
	}
	subs := runtime.GOMAXPROCS(0)
	if subs < 8 {
		subs = 8
	}
	const batchLen = 64
	newPool := func(b *testing.B) *Pool[*nd, int64] {
		p, err := NewPool(loop, PoolConfig{Config: Config{Threads: 4}})
		if err != nil {
			b.Fatal(err)
		}
		// Warm one runner per submitter outside the timer.
		var warm sync.WaitGroup
		for g := 0; g < subs; g++ {
			warm.Add(1)
			go func() {
				defer warm.Done()
				p.MustRun(head)
				p.MustRun(head)
			}()
		}
		warm.Wait()
		return p
	}
	// split hands submitter g its share of b.N invocations.
	split := func(n, g int) int {
		share := n / subs
		if g < n%subs {
			share++
		}
		return share
	}

	b.Run("mode_run", func(b *testing.B) {
		p := newPool(b)
		defer p.Close()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := 0; g < subs; g++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if _, err := p.Run(ctx, head); err != nil {
						b.Error(err)
						return
					}
				}
			}(split(b.N, g))
		}
		wg.Wait()
	})

	b.Run("mode_batch", func(b *testing.B) {
		p := newPool(b)
		defer p.Close()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := 0; g < subs; g++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				starts := make([]*nd, batchLen)
				for i := range starts {
					starts[i] = head
				}
				for n > 0 {
					k := batchLen
					if n < k {
						k = n
					}
					if _, err := p.RunBatch(ctx, starts[:k]); err != nil {
						b.Error(err)
						return
					}
					n -= k
				}
			}(split(b.N, g))
		}
		wg.Wait()
		b.StopTimer()
		b.ReportMetric(float64(p.Stats().BatchSheds), "batch_sheds")
	})

	b.Run("mode_submit", func(b *testing.B) {
		p := newPool(b)
		defer p.Close()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := 0; g < subs; g++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				const window = 4
				var futs [window]*Future[int64]
				for i := 0; i < n; i++ {
					if f := futs[i%window]; f != nil {
						if _, err := f.Wait(); err != nil {
							b.Error(err)
							return
						}
					}
					futs[i%window] = p.Submit(ctx, head)
				}
				for _, f := range futs {
					if f != nil {
						if _, err := f.Wait(); err != nil {
							b.Error(err)
							return
						}
					}
				}
			}(split(b.N, g))
		}
		wg.Wait()
	})
}

// BenchmarkAdaptiveStable is the friendly half of the adaptive
// acceptance pair: the paper's predictable workload (a stable 100k
// list) with the controller ON must match BenchmarkNativeRunner/t4's
// cost — the controller's bookkeeping is a handful of scalar updates
// per invocation and, like the rest of the steady-state path, performs
// zero allocations (CI gates this via benchjson).
func BenchmarkAdaptiveStable(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	type nd struct {
		w    int64
		next *nd
	}
	var head *nd
	for i := 0; i < 100_000; i++ {
		head = &nd{w: rng.Int63n(1 << 20), next: head}
	}
	loop := Loop[*nd, int64]{
		Done:  func(n *nd) bool { return n == nil },
		Next:  func(n *nd) *nd { return n.next },
		Body:  func(n *nd, a int64) int64 { return a + n.w },
		Init:  func() int64 { return 0 },
		Merge: func(a, c int64) int64 { return a + c },
	}
	r, err := NewRunner(loop, Config{Threads: 4, Options: Options{Adaptive: true}})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	r.MustRun(head) // bootstrap outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(ctx, head); err != nil {
			b.Fatal(err)
		}
	}
	st := r.Stats()
	b.ReportMetric(float64(st.EffectiveThreads), "eff_threads")
	b.ReportMetric(float64(st.SequentialFallbacks), "seq_fallbacks")
}

// BenchmarkAdaptiveAdversarial is the hostile half: every invocation
// traverses a different pre-built list (rotating through fresh node
// sets), so no chunk-start prediction can ever materialize. The
// sequential and fixed-width runners bound the comparison: fixed-width
// speculation squashes work on every invocation, while adaptive mode
// must shed speculation and track the sequential baseline (the
// acceptance bar is 1.3x its ns/op).
func BenchmarkAdaptiveAdversarial(b *testing.B) {
	const nLists, listLen = 8, 40_000
	rng := rand.New(rand.NewSource(23))
	type nd struct {
		w    int64
		next *nd
	}
	heads := make([]*nd, nLists)
	for l := range heads {
		for i := 0; i < listLen; i++ {
			heads[l] = &nd{w: rng.Int63n(1 << 20), next: heads[l]}
		}
	}
	loop := Loop[*nd, int64]{
		Done:  func(n *nd) bool { return n == nil },
		Next:  func(n *nd) *nd { return n.next },
		Body:  func(n *nd, a int64) int64 { return a + n.w },
		Init:  func() int64 { return 0 },
		Merge: func(a, c int64) int64 { return a + c },
	}
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"sequential", Config{Threads: 1}},
		{"fixed", Config{Threads: 4}},
		{"adaptive", Config{Threads: 4, Options: Options{Adaptive: true}}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			r, err := NewRunner(loop, mode.cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			ctx := context.Background()
			for l := range heads {
				r.MustRun(heads[l]) // settle into the adversarial steady state
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(ctx, heads[i%nLists]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := r.Stats()
			if st.TotalIters == 0 {
				b.Fatal("no iterations committed")
			}
			b.ReportMetric(float64(st.SquashedIters)/float64(st.Invocations), "squashed_per_inv")
			b.ReportMetric(float64(st.EffectiveThreads), "eff_threads")
			b.ReportMetric(float64(st.SequentialFallbacks), "seq_fallbacks")
		})
	}
}

// dcMix is the benchmark body's per-iteration compute: a short
// multiply-xorshift scramble standing in for the real work a DOACROSS
// iteration does between its loop-carried load and its store. Without
// it the body is a bare load+add+store and the cell-view buffering
// cost dominates both sides of the t2-vs-t1 comparison, which would
// measure the buffer, not speculation over a realistic body.
func dcMix(x int64) int64 {
	v := uint64(x)*0x9e3779b97f4a7c15 + 1
	for i := 0; i < 6; i++ {
		v ^= v >> 29
		v *= 0xbf58476d1ce4e5b9
	}
	return int64(v >> 33)
}

// dcBenchLoop mirrors dcLoop's cell and reduction semantics with
// dcMix folded into the stored value. Correctness coverage lives with
// dcLoop (oracle and fuzz tests); the benchmark only needs the same
// speculative machinery over a deterministic, realistically weighted
// body.
func dcBenchLoop() Loop[*dcnode, int64] {
	l := dcLoop()
	l.SpecBody = func(n *dcnode, a int64, v *CellView) int64 {
		x := v.Load(n.src) + dcMix(n.w)
		v.Store(n.dst, x)
		v.Reduce(0, n.w)
		v.Reduce(1, n.w)
		return a + x
	}
	return l
}

// BenchmarkDoacross measures the DOACROSS hot path over a 100k-node
// list: "none" runs every iteration against a private cell (the
// 0 allocs/op regime the pool bench gate enforces), "rare" adds one
// cross-node flow dependence every 64 nodes — conflicts only when a
// chunk boundary splits a pair, the regime where speculation must win
// (t2 < t1 on multi-core hosts; the conflict-regime spread itself is
// the bench/ ladder's cells.{none,dense}_* rungs). Structure and
// membership are stable, so the rows isolate the cell-view cost:
// buffering, read-set tracking, commit-time validation and the
// reduction merge.
func BenchmarkDoacross(b *testing.B) {
	const listLen = 100_000
	for _, regime := range []string{"none", "rare"} {
		for _, threads := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s_t%d", regime, threads), func(b *testing.B) {
				rng := rand.New(rand.NewSource(17))
				head, _, cells, _ := buildDoacross(rng, listLen, regime)
				loop := dcBenchLoop()
				loop.Cells = cells
				r, err := NewRunner(loop, Config{Threads: threads})
				if err != nil {
					b.Fatal(err)
				}
				defer r.Close()
				ctx := context.Background()
				r.MustRun(head) // bootstrap memoization outside the timer
				r.MustRun(head) // first parallel run sizes the cell views
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := r.Run(ctx, head); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				st := r.Stats()
				b.ReportMetric(float64(st.Conflicts)/float64(st.Invocations), "conflicts_per_inv")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/listLen, "ns_iter")
			})
		}
	}
}

// BenchmarkDoacrossStream is the benchmark of record's doacross_cells
// in one process: the closure accumulate loop (one Load and one Store a
// node, no reductions, no compute between them), 100k cells, a flow
// dependence every 64 nodes, invocations back to back. ref is the plain
// loop on a plain array, t1 and t2 a Runner of that width. Beside time
// it reports parks/op — how often an executor worker went to sleep per
// invocation. A stream of rounds a few microseconds apart should park
// nobody: about one park an op is the lease not covering the round
// (executor.go, invariant 5), and every park is a wake the next round's
// speculative chunk starts behind. 0 allocs/op is gated in CI.
func BenchmarkDoacrossStream(b *testing.B) {
	const listLen = 100_000
	build := func() (*dcnode, *Cells, []int64) {
		head, _, cells, shadow := buildDoacross(rand.New(rand.NewSource(17)), listLen, "rare")
		return head, cells, shadow
	}
	b.Run("ref", func(b *testing.B) {
		head, _, plain := build()
		var sink int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var a int64
			for n := head; n != nil; n = n.next {
				x := plain[n.src] + n.w
				plain[n.dst] = x
				a += x
			}
			sink += a
		}
		b.StopTimer()
		if sink == 0 {
			b.Fatal("empty accumulator")
		}
		b.ReportMetric(0, "parks/op")
	})
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("t%d", threads), func(b *testing.B) {
			head, cells, _ := build()
			loop := dcLoop()
			loop.Reductions = nil
			loop.Cells = cells
			loop.SpecBody = func(n *dcnode, a int64, v *CellView) int64 {
				x := v.Load(n.src) + n.w
				v.Store(n.dst, x)
				return a + x
			}
			r, err := NewRunner(loop, Config{Threads: threads})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			ctx := context.Background()
			for i := 0; i < 8; i++ {
				r.MustRun(head) // memoize, size the views, let the lease history fill
			}
			parked := func() int64 {
				if r.exec == nil {
					return 0 // width 1 has no workers
				}
				return r.exec.parks.Load()
			}
			parks := parked()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(ctx, head); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(parked()-parks)/float64(b.N), "parks/op")
		})
	}
}

// BenchmarkCellViewCommit measures what retiring one chunk costs the
// walk, per written cell: validate (the bitmap ANDs against one later
// view with reads in other cells) and copyOut (the buffered values into
// the store). dense is doacross_cells' shape (a contiguous run, every
// block full: the whole-block copy), scatter spreads the same number of
// writes over a 1M-cell store (a few bits per block, and the pass over
// the bitmap shows), hot8 is the circuit sweep's (eight cells of an
// 81-cell store). Neither step disarms a view, so the loop retires the
// same armed one again; 0 allocs/op is gated in CI.
func BenchmarkCellViewCommit(b *testing.B) {
	const writes = 50_000
	perm := rand.New(rand.NewSource(5)).Perm(1 << 20)
	run := make([]int, 2*writes)
	for i := range run {
		run[i] = i
	}
	for _, tc := range []struct {
		name          string
		size          int
		stores, loads []int // disjoint: the later view never conflicts
	}{
		{"dense", 2 * writes, run[:writes], run[writes:]},
		{"scatter", 1 << 20, perm[:writes], perm[writes : 2*writes]},
		{"hot8", 81, []int{3, 9, 17, 33, 40, 64, 71, 80}, []int{4, 10, 18, 34, 41, 65, 72, 79}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c := NewCells(tc.size)
			views := make([]CellView, 2)
			views[0].begin(c, nil)
			views[1].begin(c, nil)
			for _, i := range tc.stores {
				views[0].Store(i, int64(i))
			}
			for _, i := range tc.loads {
				views[1].Load(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if end, _, shared := views[0].validate(views[1:]); end != 1 || shared {
					b.Fatal("conflict where no read meets a write")
				}
				views[0].copyOut()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tc.stores)), "ns_cell")
		})
	}
}
