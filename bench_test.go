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
	"slices"
	"testing"
)

// benchList is seed's n-node list of weights below 2^20.
func benchList(seed int64, n int) *mnode {
	return newList(rand.New(rand.NewSource(seed)), n, 1<<20).head
}

// timeRuns times b.N invocations of r from head, allocations reported,
// after warm untimed ones (the bootstrap memoization, and whatever more
// the benchmark needs settled), and stops the timer.
func timeRuns[S comparable, A any](b *testing.B, r *Runner[S, A], head S, warm int) {
	b.Helper()
	for range warm {
		r.MustRun(head)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(ctx, head); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// timeShares times b.N operations split over subs goroutines, each
// handed its share n, allocations reported, and stops the timer.
func timeShares(b *testing.B, subs int, share func(n int) error) {
	b.ReportAllocs()
	b.ResetTimer()
	fanOut(subs, func(g int) {
		n := b.N / subs
		if g < b.N%subs {
			n++
		}
		if err := share(n); err != nil {
			b.Error(err)
		}
	})
	b.StopTimer()
}

// benchLoop sums the weights.
func benchLoop() Loop[*mnode, int64] {
	return Loop[*mnode, int64]{
		Done:  func(n *mnode) bool { return n == nil },
		Next:  func(n *mnode) *mnode { return n.next },
		Body:  func(n *mnode, a int64) int64 { return a + n.w },
		Init:  func() int64 { return 0 },
		Merge: func(a, c int64) int64 { return a + c },
	}
}

// warmPool is a width-4 pool over benchLoop with one runner warmed per
// submitter, outside the timer.
func warmPool(b *testing.B, head *mnode, subs int) *Pool[*mnode, int64] {
	p := newPool(b, benchLoop(), Config{Threads: 4})
	fanOut(subs, func(int) {
		p.MustRun(head)
		p.MustRun(head)
	})
	return p
}

// runShare is a submitter's share of plain Pool.Run invocations.
func runShare(p *Pool[*mnode, int64], head *mnode) func(n int) error {
	return func(n int) error {
		for range n {
			if _, err := p.Run(context.Background(), head); err != nil {
				return err
			}
		}
		return nil
	}
}

// nativeChurnRun drives a width-4 runner over a churning list for 40
// invocations and returns its ablations (spice_test.go) as percentages:
// the invocations it squashed, and those positional validation and a
// memoize-once predictor would have. replaceFrac additionally replaces
// that fraction of the membership each invocation (node deletions, the
// failure mode re-memoization exists to absorb).
func nativeChurnRun(b *testing.B, replaceFrac float64) (member, positional, once float64) {
	g := newList(rand.New(rand.NewSource(21)), 4000, 1<<20)
	a := ablations[*mnode, int64]{r: newRunner(b, benchLoop(), Config{Threads: 4})}
	for inv := 0; inv < 40; inv++ {
		a.run(b, g.head)
		// Value churn, then structural churn: the replaced fraction, and
		// ~1% of nodes inserted and removed at random positions, shifting
		// every downstream node's position (harmless to membership
		// validation, fatal to positional validation).
		g.churnValues(200)
		g.heavyChurn(replaceFrac)
		g.shift(g.len() / 100)
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
	head := benchList(5, 100_000)
	for _, threads := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("t%d", threads), func(b *testing.B) {
			r := newRunner(b, benchLoop(), Config{Threads: threads})
			timeRuns(b, r, head, 1) // steady-state path reuses all buffers: ~0 allocs/op
			b.ReportMetric(float64(r.Stats().MisspecInvocations), "misspec")
		})
	}
}

// BenchmarkInvocationFloor is what an invocation costs before its first
// iteration: an 8-node list, so the op is the fixed path of
// runInvocation and Runner.run for a round of one (arming, one latch
// add and done, the abort store, publish, release). t1 is Run on a
// width-1 runner, gated at 0 allocs/op; t2_shed is a 64-start
// Session.RunBatch on a width-2 pool, every item shed for being short
// (ns/inv is the per-invocation figure; the op allocates its result
// slice, so the row is not gated). The number to re-read whenever that
// fixed path changes.
func BenchmarkInvocationFloor(b *testing.B) {
	head, loop := benchList(1, 8), benchLoop()
	ctx := context.Background()
	b.Run("t1", func(b *testing.B) {
		timeRuns(b, newRunner(b, loop, Config{Threads: 1}), head, 1)
	})
	b.Run("t2_shed", func(b *testing.B) {
		const batchLen = 64
		sess := openSession(b, newPool(b, loop, Config{Threads: 2}), 0)
		starts := slices.Repeat([]*mnode{head}, batchLen)
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
// The scattered_ rows run the block form over a 200k-node list linked in
// shuffled order, past L2, where each iteration waits on a cache miss:
// at width 1 and 2 with one chunk per slot, with two (_paired) and with
// four (_deep) stepped in lockstep (Config.depth pins each; the runtime
// derives the depth from the same measurement). scattered_t1_deep is
// four chunks of one traversal on the invoking goroutine alone. The
// relinked_ rows are doall_churn's regime on adaptive runners of derived
// shape: a 100k-node list with a fifth of its nodes replaced and the
// list relinked in a fresh shuffled order before every invocation (the
// relinking untimed), where the split lands anywhere, a width that does
// not pay narrows to width 1, and the grouped rounds hunt the set of
// predicted starts; relinked_seq is the same list walked by one chunk.
func BenchmarkIterationOverhead(b *testing.B) {
	const listLen, scatterLen = 100_000, 200_000
	head, loop := benchList(5, listLen), benchLoop()
	block := loop
	block.Scan = func(n *mnode, a int64, _ *CellView, stop *mnode, max int64) (*mnode, int64, int64) {
		var k int64
		for ; k < max && n != nil && n != stop; k++ {
			a += n.w
			n = n.next
		}
		return n, a, k
	}
	scattered := scatteredList(5, scatterLen)
	for _, mode := range []struct {
		name string
		loop Loop[*mnode, int64]
		head *mnode
		cfg  Config
		n    int
	}{
		{"seq", loop, head, Config{Threads: 1}, listLen},
		{"t2", loop, head, Config{Threads: 2}, listLen},
		{"t4", loop, head, Config{Threads: 4}, listLen},
		{"scan_seq", block, head, Config{Threads: 1}, listLen},
		{"scan_t2", block, head, Config{Threads: 2}, listLen},
		{"scan_t4", block, head, Config{Threads: 4}, listLen},
		{"scattered_t1", block, scattered, Config{Threads: 1, depth: 1}, scatterLen},
		{"scattered_t1_deep", block, scattered, Config{Threads: 1, depth: 4}, scatterLen},
		{"scattered_t2", block, scattered, Config{Threads: 2, depth: 1}, scatterLen},
		{"scattered_t2_paired", block, scattered, Config{Threads: 2, depth: 2}, scatterLen},
		{"scattered_t2_deep", block, scattered, Config{Threads: 2, depth: 4}, scatterLen},
	} {
		b.Run(mode.name, func(b *testing.B) {
			timeRuns(b, newRunner(b, mode.loop, mode.cfg), mode.head, 1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(mode.n), "ns_iter")
		})
	}
	relinked := newRelinked(5, listLen)
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"relinked_seq", Config{Threads: 1, depth: 1}},
		{"relinked_t1", Config{Threads: 1, Options: Options{Adaptive: true}}},
		{"relinked_t2", Config{Threads: 2, Options: Options{Adaptive: true}}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			r := newRunner(b, block, mode.cfg)
			for range 2 * pairRecheck {
				r.MustRun(relinked.next())
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				head := relinked.next()
				b.StartTimer()
				if _, err := r.Run(ctx, head); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/listLen, "ns_iter")
		})
	}
}

// relinked is an n-node list in the hostile kernel's regime
// (internal/workloads/native): before every invocation a fifth of the
// nodes is replaced, drawn with replacement, and the list relinked in a
// fresh shuffled order, both drawn from the seeded source, so no
// invocation's starts die together with an earlier one's. Its nodes are
// one slab of n + n/5, order[:n] the list's and order[n:] the ones out
// of it, which keep their stale links as replaced nodes do; next
// allocates nothing.
type relinked struct {
	rng   *rand.Rand
	nodes []mnode
	order []int32
	n     int
}

// newRelinked builds seed's n-node list.
func newRelinked(seed int64, n int) *relinked {
	l := &relinked{rng: rand.New(rand.NewSource(seed)), nodes: make([]mnode, n+n/5), order: make([]int32, n+n/5), n: n}
	for i := range l.nodes {
		l.nodes[i].w = l.rng.Int63n(1 << 20)
		l.order[i] = int32(i)
	}
	return l
}

// next replaces a fifth of the list's nodes with nodes out of it, each
// at a position drawn with replacement (as the hostile kernel draws
// them, so about 18 % of the nodes leave), relinks the list in a fresh
// shuffled order and returns its head.
func (l *relinked) next() *mnode {
	live, out := l.order[:l.n], l.order[l.n:]
	for i := range out {
		j := l.rng.Intn(len(live))
		live[j], out[i] = out[i], live[j]
	}
	l.rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for i, at := range live[1:] {
		l.nodes[live[i]].next = &l.nodes[at]
	}
	l.nodes[live[len(live)-1]].next = nil
	return &l.nodes[live[0]]
}

// scatteredList is seed's n-node list of weights below 2^20, its nodes
// in one slab, linked in a shuffled order.
func scatteredList(seed int64, n int) *mnode {
	rng := rand.New(rand.NewSource(seed))
	slab := make([]mnode, n)
	order := rng.Perm(n)
	for i, at := range order {
		slab[at].w = rng.Int63n(1 << 20)
		if i+1 < n {
			slab[at].next = &slab[order[i+1]]
		}
	}
	return &slab[order[0]]
}

// BenchmarkPoolThroughput measures the concurrent front door: N
// goroutines submit invocations over one shared 100k-element list
// through one Pool — persistent workers, recycled runner states, no
// goroutine spawned and (steady state) nothing allocated per
// invocation.
func BenchmarkPoolThroughput(b *testing.B) {
	head := benchList(11, 100_000)
	for _, subs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("submitters_%d", subs), func(b *testing.B) {
			p := warmPool(b, head, subs)
			timeShares(b, subs, runShare(p, head))
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
	head := benchList(7, 600)
	subs := max(runtime.GOMAXPROCS(0), 8)
	const batchLen = 64
	ctx := context.Background()
	b.Run("mode_run", func(b *testing.B) {
		p := warmPool(b, head, subs)
		timeShares(b, subs, runShare(p, head))
	})
	b.Run("mode_batch", func(b *testing.B) {
		p := warmPool(b, head, subs)
		timeShares(b, subs, func(n int) error {
			starts := slices.Repeat([]*mnode{head}, batchLen)
			for ; n > 0; n -= batchLen {
				if _, err := p.RunBatch(ctx, starts[:min(n, batchLen)]); err != nil {
					return err
				}
			}
			return nil
		})
		b.ReportMetric(float64(p.Stats().BatchSheds), "batch_sheds")
	})
	b.Run("mode_submit", func(b *testing.B) {
		p := warmPool(b, head, subs)
		timeShares(b, subs, func(n int) error {
			const window = 4
			var futs [window]*Future[int64]
			for i := 0; i < n+window; i++ {
				if f := futs[i%window]; f != nil {
					if _, err := f.Wait(); err != nil {
						return err
					}
					futs[i%window] = nil
				}
				if i < n {
					futs[i%window] = p.Submit(ctx, head)
				}
			}
			return nil
		})
	})
}

// BenchmarkAdaptiveStable is the friendly half of the adaptive
// acceptance pair: the paper's predictable workload (a stable 100k
// list) with the controller ON must match BenchmarkNativeRunner/t4's
// cost — the controller's bookkeeping is a handful of scalar updates
// per invocation and, like the rest of the steady-state path, performs
// zero allocations (CI gates this via benchjson).
func BenchmarkAdaptiveStable(b *testing.B) {
	head := benchList(5, 100_000)
	r := newRunner(b, benchLoop(), Config{Threads: 4, Options: Options{Adaptive: true}})
	timeRuns(b, r, head, 1)
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
	heads := make([]*mnode, nLists)
	for l := range heads {
		heads[l] = newList(rng, listLen, 1<<20).head
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
			r := newRunner(b, benchLoop(), mode.cfg)
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

// dcBenchLoop is the matrix's cell loop (cellStep: its load, store and
// reductions) with dcMix folded into the stored value, on an int64
// accumulator. Correctness coverage lives with the cell loop (oracle and
// fuzz tests); the benchmark only needs the same speculative machinery
// over a deterministic, realistically weighted body.
func dcBenchLoop(cells *Cells) Loop[*mnode, int64] {
	l := benchLoop()
	l.Body, l.Cells = nil, cells
	l.SpecBody = func(n *mnode, a int64, v *CellView) int64 {
		x := v.Load(n.src) + dcMix(n.w)
		v.Store(n.dst, x)
		v.Reduce(0, n.w)
		v.Reduce(1, n.w)
		return a + x
	}
	l.Reductions = []Reduction{{Cell: 0, Kind: ReduceSum}, {Cell: 1, Kind: ReduceMax}}
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
				g := cellList(rand.New(rand.NewSource(17)), listLen, regime)
				head := g.head
				r := newRunner(b, dcBenchLoop(g.cells), Config{Threads: threads})
				timeRuns(b, r, head, 2) // the bootstrap, then the first parallel run sizes the cell views
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
	build := func() *gen { return cellList(rand.New(rand.NewSource(17)), listLen, "rare") }
	b.Run("ref", func(b *testing.B) {
		g := build()
		head, plain := g.head, g.model
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
			g := build()
			head, loop := g.head, dcBenchLoop(g.cells)
			loop.Reductions = nil
			loop.SpecBody = func(n *mnode, a int64, v *CellView) int64 {
				x := v.Load(n.src) + n.w
				v.Store(n.dst, x)
				return a + x
			}
			r := newRunner(b, loop, Config{Threads: threads})
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
			timeRuns(b, r, head, 0)
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
