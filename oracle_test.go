package spice

// The randomized differential-oracle suite: seeded generators produce
// pointer-chasing workloads (linked lists and threaded binary trees)
// whose structure mutates between invocations under three regimes —
// predictable (value churn only, the paper's friendly case), drifting
// (gradual structural churn), and adversarial (the entire structure is
// rebuilt from fresh nodes every invocation, so no prediction can ever
// materialize). Every generated case asserts that the parallel Run's
// output — the merged accumulator, its final value after the whole
// script, and an order-independent fingerprint of the visited nodes —
// equals the sequential oracle, with the adaptive controller both on
// and off. CI runs this file under -race.

import (
	"context"
	"math/rand"
	"testing"
)

// oracleAcc triple-checks a traversal: count and sum are the loop
// "output", fp is an order-independent fingerprint (xor of hashed
// values), so a chunk executing the right nodes in the wrong region
// cannot cancel out.
type oracleAcc struct {
	count int64
	sum   int64
	fp    uint64
}

// visit is one element's work, shared by every oracle loop's Body and
// its block form.
func (a oracleAcc) visit(v int64) oracleAcc {
	a.count++
	a.sum += v
	a.fp ^= oracleHash(v)
	return a
}

func oracleMerge(a, b oracleAcc) oracleAcc {
	return oracleAcc{a.count + b.count, a.sum + b.sum, a.fp ^ b.fp}
}

func oracleHash(v int64) uint64 {
	x := uint64(v) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	return x
}

// oracleWorkload is one generated structure plus its mutation script.
type oracleWorkload interface {
	// loop returns the traversal Loop over the current structure.
	loop() Loop[any, oracleAcc]
	// head returns the current traversal start.
	head() any
	// mutate advances the structure one invocation step.
	mutate()
}

// --- Linked-list workload ---------------------------------------------

type onode struct {
	v    int64
	next *onode
}

type oracleList struct {
	rng     *rand.Rand
	pattern string
	nodes   []*onode
}

func newOracleList(rng *rand.Rand, pattern string, size int) *oracleList {
	l := &oracleList{rng: rng, pattern: pattern}
	l.rebuild(size)
	return l
}

func (l *oracleList) rebuild(size int) {
	l.nodes = l.nodes[:0]
	for i := 0; i < size; i++ {
		l.nodes = append(l.nodes, &onode{v: l.rng.Int63n(1 << 30)})
	}
	l.relink()
}

func (l *oracleList) relink() {
	for i := range l.nodes {
		if i+1 < len(l.nodes) {
			l.nodes[i].next = l.nodes[i+1]
		} else {
			l.nodes[i].next = nil
		}
	}
}

func (l *oracleList) head() any {
	if len(l.nodes) == 0 {
		return (*onode)(nil)
	}
	return l.nodes[0]
}

func (l *oracleList) loop() Loop[any, oracleAcc] {
	return Loop[any, oracleAcc]{
		Done: func(s any) bool { return s.(*onode) == nil },
		Next: func(s any) any { return s.(*onode).next },
		Body: func(s any, a oracleAcc) oracleAcc { return a.visit(s.(*onode).v) },
		// The block form. A block that hunts nothing passes the nil
		// interface as stop, which no state equals — the traversal's last
		// state is a typed nil pointer.
		Scan: func(s any, a oracleAcc, _ *CellView, stop any, max int64) (any, oracleAcc, int64) {
			n := s.(*onode)
			var k int64
			for ; k < max && n != nil && any(n) != stop; k++ {
				a = a.visit(n.v)
				n = n.next
			}
			return n, a, k
		},
		Init:  func() oracleAcc { return oracleAcc{} },
		Merge: oracleMerge,
	}
}

func (l *oracleList) mutate() {
	switch l.pattern {
	case "predictable":
		// Value churn only: membership and order stable.
		for k := 0; k < len(l.nodes)/20+1; k++ {
			l.nodes[l.rng.Intn(len(l.nodes))].v = l.rng.Int63n(1 << 30)
		}
	case "drifting":
		// Insert and delete ~3% of nodes at random positions, plus
		// value churn: predictions decay gradually.
		for k := 0; k < len(l.nodes)/33+1; k++ {
			pos := l.rng.Intn(len(l.nodes) + 1)
			l.nodes = append(l.nodes[:pos],
				append([]*onode{{v: l.rng.Int63n(1 << 30)}}, l.nodes[pos:]...)...)
			del := l.rng.Intn(len(l.nodes))
			l.nodes = append(l.nodes[:del], l.nodes[del+1:]...)
		}
		for k := 0; k < len(l.nodes)/50+1; k++ {
			l.nodes[l.rng.Intn(len(l.nodes))].v = l.rng.Int63n(1 << 30)
		}
		l.relink()
	case "adversarial":
		// Fully unstable: fresh nodes, fresh length, every invocation.
		l.rebuild(l.rng.Intn(2*len(l.nodes)+16) + 1)
	}
}

// --- Threaded-tree workload -------------------------------------------

// tnode is a binary-tree node threaded for preorder traversal: the
// loop chases thread pointers, which is how Spice sees any tree walk
// (a pointer-chasing sequence that cannot be indexed).
type tnode struct {
	v           int64
	left, right *tnode
	thread      *tnode
}

type oracleTree struct {
	rng     *rand.Rand
	pattern string
	root    *tnode
	size    int
}

func newOracleTree(rng *rand.Rand, pattern string, size int) *oracleTree {
	t := &oracleTree{rng: rng, pattern: pattern, size: size}
	t.root = t.build(size)
	t.rethread()
	return t
}

// build grows a random-shaped tree of n fresh nodes.
func (t *oracleTree) build(n int) *tnode {
	if n <= 0 {
		return nil
	}
	nl := t.rng.Intn(n)
	return &tnode{
		v:     t.rng.Int63n(1 << 30),
		left:  t.build(nl),
		right: t.build(n - 1 - nl),
	}
}

// rethread rebuilds the preorder thread chain.
func (t *oracleTree) rethread() {
	var prev *tnode
	var walk func(*tnode)
	walk = func(n *tnode) {
		if n == nil {
			return
		}
		if prev != nil {
			prev.thread = n
		}
		prev = n
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	if prev != nil {
		prev.thread = nil
	}
}

func (t *oracleTree) head() any {
	if t.root == nil {
		return (*tnode)(nil)
	}
	return t.root
}

func (t *oracleTree) loop() Loop[any, oracleAcc] {
	return Loop[any, oracleAcc]{
		Done: func(s any) bool { return s.(*tnode) == nil },
		Next: func(s any) any { return s.(*tnode).thread },
		Body: func(s any, a oracleAcc) oracleAcc { return a.visit(s.(*tnode).v) },
		Scan: func(s any, a oracleAcc, _ *CellView, stop any, max int64) (any, oracleAcc, int64) {
			n := s.(*tnode)
			var k int64
			for ; k < max && n != nil && any(n) != stop; k++ {
				a = a.visit(n.v)
				n = n.thread
			}
			return n, a, k
		},
		Init:  func() oracleAcc { return oracleAcc{} },
		Merge: oracleMerge,
	}
}

// each runs f over every node (preorder).
func (t *oracleTree) each(f func(*tnode)) {
	for n := t.root; n != nil; n = n.thread {
		f(n)
	}
}

func (t *oracleTree) mutate() {
	switch t.pattern {
	case "predictable":
		t.each(func(n *tnode) {
			if t.rng.Intn(10) == 0 {
				n.v = t.rng.Int63n(1 << 30)
			}
		})
	case "drifting":
		// Swap the children of ~5% of nodes: local traversal-order
		// drift with stable membership (the case membership validation
		// tolerates and positional validation does not).
		t.each(func(n *tnode) {
			if t.rng.Intn(20) == 0 {
				n.left, n.right = n.right, n.left
			}
		})
		t.rethread()
	case "adversarial":
		t.root = t.build(t.rng.Intn(2*t.size+16) + 1)
		t.rethread()
	}
}

// --- The differential suite -------------------------------------------

// seqOracle executes the loop sequentially by direct walk — the oracle
// every parallel run is compared against.
func seqOracle(l Loop[any, oracleAcc], head any) oracleAcc {
	acc := l.Init()
	for s := head; !l.Done(s); s = l.Next(s) {
		acc = l.Body(s, acc)
	}
	return acc
}

// newOracleWorkload builds the kind's generated structure.
func newOracleWorkload(rng *rand.Rand, kind, pattern string, size int) oracleWorkload {
	if kind == "list" {
		return newOracleList(rng, pattern, size)
	}
	return newOracleTree(rng, pattern, size)
}

// oracleLoop is the workload's loop with its block form (Loop.Scan) set
// or stripped.
func oracleLoop(w oracleWorkload, scan bool) Loop[any, oracleAcc] {
	l := w.loop()
	if !scan {
		l.Scan = nil
	}
	return l
}

// TestDifferentialOracle is the randomized suite: for every workload
// kind × mutation pattern × adaptive mode × thread count × seed, a
// mutation script runs interleaved with invocations, and every
// invocation's parallel result must equal the sequential oracle.
//
// Beyond the accumulator, the suite pins the Stats contract of the
// block-structured hot loop: committed iterations must conserve
// exactly (TotalIters equals the oracle's summed trip counts — a
// block-boundary spill that dropped or double-counted an iteration
// would break the equality), every invocation is counted, and the
// hit/hit+miss ledgers stay consistent with the number of invocations
// that ran.
//
// Every case runs twice, with the loop's block form (Loop.Scan) set and
// with it stripped, and the two runs' counters must agree after every
// invocation.
func TestDifferentialOracle(t *testing.T) {
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
							closure := differentialCase(t, kind, pattern, adaptive, threads, seed, false)
							block := differentialCase(t, kind, pattern, adaptive, threads, seed, true)
							for inv := range closure {
								if closure[inv] != block[inv] {
									t.Fatalf("threads=%d seed=%d inv=%d: counters differ\nclosures: %s\nScan:     %s",
										threads, seed, inv, closure[inv], block[inv])
								}
							}
						}
					}
				})
			}
		}
	}
}

// differentialCase runs one generated case and returns the counters
// after every invocation.
func differentialCase(t *testing.T, kind, pattern string, adaptive bool, threads int, seed int64, scan bool) []string {
	const invocations = 12
	rng := rand.New(rand.NewSource(seed*1000 + int64(threads)))
	w := newOracleWorkload(rng, kind, pattern, rng.Intn(700)+50)
	r, err := NewRunner(oracleLoop(w, scan), Config{
		Threads:    threads,
		Options:    Options{Adaptive: adaptive},
		probeEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var finalGot, finalWant oracleAcc
	var wantTotal int64
	var lines []string
	for inv := 0; inv < invocations; inv++ {
		want := seqOracle(w.loop(), w.head())
		got, rerr := r.Run(context.Background(), w.head())
		if rerr != nil {
			t.Fatalf("threads=%d seed=%d scan=%v inv=%d: %v", threads, seed, scan, inv, rerr)
		}
		if got != want {
			t.Fatalf("threads=%d seed=%d scan=%v inv=%d: got %+v want %+v",
				threads, seed, scan, inv, got, want)
		}
		finalGot, finalWant = got, want
		wantTotal += want.count
		lines = append(lines, statsLine(r.Stats()))
		w.mutate()
	}
	if finalGot != finalWant || finalGot.count == 0 {
		t.Fatalf("final accumulator: got %+v want %+v", finalGot, finalWant)
	}
	st := r.Stats()
	if st.Invocations != invocations {
		t.Fatalf("invocations = %d", st.Invocations)
	}
	if st.TotalIters != wantTotal {
		t.Fatalf("threads=%d seed=%d scan=%v: TotalIters = %d, oracle trips sum to %d",
			threads, seed, scan, st.TotalIters, wantTotal)
	}
	if st.Hits+st.Misses > st.Invocations*int64(threads-1)+st.Recoveries*int64(threads-1) {
		t.Fatalf("verdict ledger overflows dispatch capacity: hits=%d misses=%d inv=%d rec=%d",
			st.Hits, st.Misses, st.Invocations, st.Recoveries)
	}
	checkConservation(t, st)
	if works := st.LastWorks; len(works) != threads {
		t.Fatalf("LastWorks width = %d, want %d", len(works), threads)
	}
	return lines
}

// TestAdaptiveFallsBackOnAdversarial asserts the controller's
// load-shedding behaviour, not just correctness: on a fully unstable
// list no prediction ever materializes, so the runner must stop
// speculating (sequential fallbacks accumulate, effective width drops
// to 1) instead of squashing forever.
func TestAdaptiveFallsBackOnAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := newOracleList(rng, "adversarial", 1200)
	r, err := NewRunner(w.loop(), Config{Threads: 4, Options: Options{Adaptive: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for inv := 0; inv < 40; inv++ {
		want := seqOracle(w.loop(), w.head())
		got, rerr := r.Run(context.Background(), w.head())
		if rerr != nil || got != want {
			t.Fatalf("inv %d: got %+v want %+v err %v", inv, got, want, rerr)
		}
		w.mutate()
	}
	st := r.Stats()
	if st.EffectiveThreads != 1 {
		t.Errorf("EffectiveThreads = %d, want 1 after sustained losses", st.EffectiveThreads)
	}
	if st.SequentialFallbacks == 0 {
		t.Error("no sequential fallbacks recorded on a fully unstable workload")
	}
	if st.Misses == 0 {
		t.Error("no misses recorded despite guaranteed mis-speculation")
	}
	// The fixed-width runner on the same script squashes far more work.
	rngF := rand.New(rand.NewSource(7))
	wF := newOracleList(rngF, "adversarial", 1200)
	rf, err := NewRunner(wF.loop(), Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	for inv := 0; inv < 40; inv++ {
		if _, rerr := rf.Run(context.Background(), wF.head()); rerr != nil {
			t.Fatal(rerr)
		}
		wF.mutate()
	}
	if fixed, ad := rf.Stats().SquashedIters, st.SquashedIters; fixed <= ad {
		t.Errorf("fixed-width squashed %d !> adaptive squashed %d; throttling saved nothing", fixed, ad)
	}
}

// TestAdaptiveReexpandsAfterRestabilization drives an adversarial
// phase until the controller is fully throttled, then stabilizes the
// structure and asserts probes promote the width back to full — with
// every invocation still matching the oracle.
func TestAdaptiveReexpandsAfterRestabilization(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := newOracleList(rng, "adversarial", 1500)
	r, err := NewRunner(w.loop(), Config{Threads: 4, Options: Options{Adaptive: true}, probeEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	run := func(inv int) {
		t.Helper()
		want := seqOracle(w.loop(), w.head())
		got, rerr := r.Run(context.Background(), w.head())
		if rerr != nil || got != want {
			t.Fatalf("inv %d: got %+v want %+v err %v", inv, got, want, rerr)
		}
	}
	for inv := 0; inv < 25; inv++ {
		run(inv)
		w.mutate()
	}
	if eff := r.Stats().EffectiveThreads; eff != 1 {
		t.Fatalf("adversarial phase left EffectiveThreads = %d", eff)
	}
	w.pattern = "predictable" // re-stabilize: structure now fixed
	for inv := 0; inv < 40; inv++ {
		run(100 + inv)
		w.mutate()
	}
	st := r.Stats()
	if st.EffectiveThreads != 4 {
		t.Errorf("EffectiveThreads = %d after re-stabilization, want 4", st.EffectiveThreads)
	}
	if st.Hits == 0 {
		t.Error("re-expansion recorded no hits")
	}
	nonzero := 0
	for _, wk := range st.LastWorks {
		if wk > 0 {
			nonzero++
		}
	}
	if nonzero != 4 {
		t.Errorf("last works %v: re-expanded runner not using all chunks", st.LastWorks)
	}
}

// TestAdaptiveTightCapIsNotMisspec guards the cap/misprediction
// distinction: with a cap (maxSpec) far below the chunk span on a stable
// list, every invocation squashes chunks behind the capped leader and
// finishes via recovery — capacity artifacts, not mispredictions. The
// controller must keep full width (and the rows their confidence)
// instead of demoting a perfectly predictable workload to sequential.
func TestAdaptiveTightCapIsNotMisspec(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	w := newOracleList(rng, "predictable", 4000)
	r, err := NewRunner(w.loop(), Config{
		Threads: 4, Options: Options{Adaptive: true},
		maxSpec: 300, probeEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for inv := 0; inv < 25; inv++ {
		want := seqOracle(w.loop(), w.head())
		got, rerr := r.Run(context.Background(), w.head())
		if rerr != nil || got != want {
			t.Fatalf("inv %d: got %+v want %+v err %v", inv, got, want, rerr)
		}
		w.mutate()
	}
	st := r.Stats()
	if st.Recoveries == 0 {
		t.Fatal("cap of 300 on a 4000-element list never triggered recovery; test premise broken")
	}
	if st.EffectiveThreads != 4 {
		t.Errorf("EffectiveThreads = %d: cap-induced squashes read as misprediction", st.EffectiveThreads)
	}
	if st.SequentialFallbacks != 0 {
		t.Errorf("%d sequential fallbacks on a stable (if capped) workload", st.SequentialFallbacks)
	}
}

// TestPredictableWorkloadKeepsFullWidth guards the other side of the
// bargain: with adaptive mode on, a stable workload must keep
// speculating at full width (no spurious throttling).
func TestPredictableWorkloadKeepsFullWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	w := newOracleList(rng, "predictable", 2000)
	r, err := NewRunner(w.loop(), Config{Threads: 4, Options: Options{Adaptive: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for inv := 0; inv < 30; inv++ {
		want := seqOracle(w.loop(), w.head())
		got, rerr := r.Run(context.Background(), w.head())
		if rerr != nil || got != want {
			t.Fatalf("inv %d mismatch (%v)", inv, rerr)
		}
		w.mutate()
	}
	st := r.Stats()
	if st.EffectiveThreads != 4 {
		t.Errorf("EffectiveThreads = %d on a stable workload", st.EffectiveThreads)
	}
	if st.SequentialFallbacks != 0 {
		t.Errorf("%d sequential fallbacks on a stable workload", st.SequentialFallbacks)
	}
	if st.Hits == 0 {
		t.Error("no hits recorded")
	}
}
