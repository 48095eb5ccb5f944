package spice

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// node is the test list element.
type node struct {
	weight int64
	next   *node
}

// testList is a mutable linked list with deterministic churn.
type testList struct {
	head *node
	rng  *rand.Rand
	free []*node
}

func newTestList(n int, seed int64) *testList {
	l := &testList{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < n; i++ {
		l.head = &node{weight: l.rng.Int63n(1_000_000), next: l.head}
	}
	return l
}

func (l *testList) nodes() []*node {
	var out []*node
	for c := l.head; c != nil; c = c.next {
		out = append(out, c)
	}
	return out
}

func (l *testList) relink(ns []*node) {
	l.head = nil
	for i := len(ns) - 1; i >= 0; i-- {
		ns[i].next = nil
		if i+1 < len(ns) {
			ns[i].next = ns[i+1]
		}
	}
	if len(ns) > 0 {
		l.head = ns[0]
	} else {
		l.head = nil
	}
}

// churn removes the minimum node and reinserts it with a fresh weight at
// a random position (the otter dynamics).
func (l *testList) churn() {
	ns := l.nodes()
	if len(ns) == 0 {
		return
	}
	minI := 0
	for i, nd := range ns {
		if nd.weight < ns[minI].weight {
			minI = i
		}
	}
	nd := ns[minI]
	ns = append(ns[:minI], ns[minI+1:]...)
	nd.weight = l.rng.Int63n(1_000_000)
	pos := 0
	if len(ns) > 0 {
		pos = l.rng.Intn(len(ns) + 1)
	}
	ns = append(ns[:pos], append([]*node{nd}, ns[pos:]...)...)
	l.relink(ns)
}

// heavyChurn replaces a large fraction of the membership.
func (l *testList) heavyChurn(frac float64) {
	ns := l.nodes()
	n := int(frac * float64(len(ns)))
	for k := 0; k < n && len(ns) > 0; k++ {
		i := l.rng.Intn(len(ns))
		ns[i] = &node{weight: l.rng.Int63n(1_000_000)}
	}
	l.relink(ns)
}

// grow inserts ~5% new nodes at random positions.
func (l *testList) grow() {
	ns := l.nodes()
	for k := 0; k < len(ns)/20+2; k++ {
		pos := l.rng.Intn(len(ns) + 1)
		ns = append(ns[:pos], append([]*node{{weight: l.rng.Int63n(1_000_000)}}, ns[pos:]...)...)
	}
	l.relink(ns)
}

// sumAcc is the test accumulator: a sum plus an order-insensitive xor
// fingerprint (merge must be associative over iteration order).
type sumAcc struct {
	sum int64
	fp  int64
}

// For merge associativity the fingerprint must be order-insensitive per
// merge; use xor in Body too.
func xorLoop() Loop[*node, sumAcc] {
	return Loop[*node, sumAcc]{
		Done:  func(n *node) bool { return n == nil },
		Next:  func(n *node) *node { return n.next },
		Body:  xorStep,
		Init:  func() sumAcc { return sumAcc{} },
		Merge: func(a, b sumAcc) sumAcc { return sumAcc{a.sum + b.sum, a.fp ^ b.fp} },
	}
}

func xorStep(n *node, a sumAcc) sumAcc {
	a.sum += n.weight
	a.fp ^= n.weight * 2654435761
	return a
}

// xorScanLoop is xorLoop with the block form set (Loop.Scan).
func xorScanLoop() Loop[*node, sumAcc] {
	l := xorLoop()
	l.Scan = func(n *node, a sumAcc, _ *CellView, stop *node, max int64) (*node, sumAcc, int64) {
		var k int64
		for ; k < max && n != nil && n != stop; k++ {
			a = xorStep(n, a)
			n = n.next
		}
		return n, a, k
	}
	return l
}

// checkConservation asserts the accounting identities every Stats
// snapshot satisfies, whatever the speculation, conflict or fault
// regime that produced it.
func checkConservation(t *testing.T, st Stats) {
	t.Helper()
	if st.ConflictIters > st.SquashedIters {
		t.Fatalf("ConflictIters %d > SquashedIters %d", st.ConflictIters, st.SquashedIters)
	}
	if st.Reclaimed > st.Hits+st.Misses {
		t.Fatalf("Reclaimed %d > Hits %d + Misses %d", st.Reclaimed, st.Hits, st.Misses)
	}
}

func sequential(l Loop[*node, sumAcc], head *node) sumAcc {
	acc := l.Init()
	for s := head; !l.Done(s); s = l.Next(s) {
		acc = l.Body(s, acc)
	}
	return acc
}

func TestNewRunnerValidation(t *testing.T) {
	if _, err := NewRunner(Loop[*node, sumAcc]{}, Config{Threads: 2}); err == nil {
		t.Error("empty loop accepted")
	}
	if _, err := NewRunner(xorLoop(), Config{Threads: 0}); err != ErrNoParallelism {
		t.Error("zero threads accepted")
	}
	r, err := NewRunner(xorLoop(), Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
}

func TestSequentialEquivalenceStableList(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 8} {
		l := newTestList(500, 42)
		r, _ := NewRunner(xorLoop(), Config{Threads: threads})
		defer r.Close()
		for inv := 0; inv < 20; inv++ {
			want := sequential(xorLoop(), l.head)
			got := r.MustRun(l.head)
			if got != want {
				t.Fatalf("threads=%d inv=%d: got %+v want %+v", threads, inv, got, want)
			}
			l.churn()
		}
		st := r.Stats()
		if st.Invocations != 20 {
			t.Errorf("invocations = %d", st.Invocations)
		}
		if threads > 1 && st.MisspecInvocations > 4 {
			t.Errorf("threads=%d: misspec %d/20 too high for mild churn",
				threads, st.MisspecInvocations)
		}
	}
}

func TestParallelChunksActuallyUsed(t *testing.T) {
	l := newTestList(800, 7)
	r, _ := NewRunner(xorLoop(), Config{Threads: 4})
	defer r.Close()
	for inv := 0; inv < 10; inv++ {
		r.MustRun(l.head)
		l.churn()
	}
	st := r.Stats()
	nonzero := 0
	for _, w := range st.LastWorks {
		if w > 0 {
			nonzero++
		}
	}
	if nonzero != 4 {
		t.Fatalf("last works = %v; want all four chunks active", st.LastWorks)
	}
	if imb := st.Imbalance(); imb > 1.3 {
		t.Errorf("imbalance = %.2f; want near-balanced chunks", imb)
	}
}

func TestHeavyChurnStillCorrect(t *testing.T) {
	l := newTestList(300, 99)
	r, _ := NewRunner(xorLoop(), Config{Threads: 4})
	defer r.Close()
	for inv := 0; inv < 15; inv++ {
		want := sequential(xorLoop(), l.head)
		if got := r.MustRun(l.head); got != want {
			t.Fatalf("inv %d: got %+v want %+v", inv, got, want)
		}
		l.heavyChurn(0.9)
	}
	if r.Stats().MisspecInvocations == 0 {
		t.Error("heavy churn should cause mis-speculation")
	}
}

func TestDanglingCycleRecovered(t *testing.T) {
	// A predicted start node is unlinked into a self-cycle: the
	// speculative chunk spins until the cap fires; the runner must
	// still return the sequential result via squash or tail re-run.
	l := newTestList(400, 3)
	r, _ := NewRunner(xorLoop(), Config{Threads: 4, maxSpec: 2000})
	defer r.Close()
	r.MustRun(l.head) // bootstrap
	want1 := sequential(xorLoop(), l.head)
	if got := r.MustRun(l.head); got != want1 {
		t.Fatalf("pre-cycle: got %+v want %+v", got, want1)
	}
	// Unlink the middle ~half of nodes and make one of them a cycle;
	// almost surely hits at least one predicted row.
	ns := l.nodes()
	mid := ns[len(ns)/2]
	mid.next = mid // self-cycle off-list
	l.relink(append(ns[:len(ns)/2], ns[3*len(ns)/4:]...))
	want := sequential(xorLoop(), l.head)
	if got := r.MustRun(l.head); got != want {
		t.Fatalf("post-cycle: got %+v want %+v", got, want)
	}
	// And the invocation after recovers to parallel execution.
	want = sequential(xorLoop(), l.head)
	if got := r.MustRun(l.head); got != want {
		t.Fatalf("recovery: got %+v want %+v", got, want)
	}
}

func TestGrowingListTracksBoundaries(t *testing.T) {
	l := newTestList(200, 5)
	r, _ := NewRunner(xorLoop(), Config{Threads: 4})
	defer r.Close()
	for inv := 0; inv < 30; inv++ {
		want := sequential(xorLoop(), l.head)
		if got := r.MustRun(l.head); got != want {
			t.Fatalf("inv %d mismatch", inv)
		}
		l.grow()
	}
	st := r.Stats()
	if imb := st.Imbalance(); imb > 1.5 {
		t.Errorf("final imbalance %.2f; boundaries failed to track growth (works %v)",
			imb, st.LastWorks)
	}
}

// positions maps every state of the traversal from s to its global
// position, the index the validation rules below read.
func positions[S comparable](s S, done func(S) bool, next func(S) S) map[S]int64 {
	at := map[S]int64{}
	for i := int64(0); !done(s); s, i = next(s), i+1 {
		at[s] = i
	}
	return at
}

// membershipRejects reports whether membership validation, the runtime's
// one rule, squashes an invocation that speculates on every valid row
// over the traversal index describes: the chain breaks at the first row
// whose start is gone, or sits behind the previous row's, where the chunk
// hunting it walks past the end without finding it.
func membershipRejects[S comparable](rows []row[S], index map[S]int64) bool {
	prev := int64(0)
	for _, rw := range rows {
		if !rw.valid {
			continue
		}
		at, ok := index[rw.start]
		if !ok || at < prev {
			return true
		}
		prev = at
	}
	return false
}

// positionalRejects reports whether positional validation, the ablation
// of the paper's second insight, would squash the same invocation: it
// accepts chunk k+1 only when row k's start sits at exactly its memoized
// global position, by induction from chunk 0, whose start is exact.
func positionalRejects[S comparable](rows []row[S], index map[S]int64) bool {
	for _, rw := range rows {
		if at, ok := index[rw.start]; rw.valid && (!ok || at != rw.pos) {
			return true
		}
	}
	return false
}

// ablations drives one re-memoizing membership runner (no adaptive
// gate, so every valid row is on the chain) and counts the invocations
// it squashed beside those the paper's two ablations would have, as
// counterfactuals over its state: positional validation over the rows
// it speculated on, and membership over the rows of its first
// memoization, which are all a memoize-once predictor ever has.
type ablations[S comparable, A any] struct {
	r                        *Runner[S, A]
	first                    []row[S] // the first memoization's rows (nil until one exists)
	member, positional, once int64
}

// run executes and tallies one invocation from head. It fails tb unless
// membershipRejects predicted the runner's squash exactly, and unless
// positional validation would have squashed wherever the runner did.
func (a *ablations[S, A]) run(tb testing.TB, head S) A {
	tb.Helper()
	index := positions(head, a.r.loop.Done, a.r.loop.Next)
	member := membershipRejects(a.r.pred.rows, index)
	positional := positionalRejects(a.r.pred.rows, index)
	if a.first != nil && membershipRejects(a.first, index) {
		a.once++
	}
	before := a.r.Stats()
	acc, err := a.r.Run(context.Background(), head)
	if err != nil {
		tb.Fatal(err)
	}
	squashed := a.r.Stats().MisspecInvocations > before.MisspecInvocations
	if squashed != member || (squashed && !positional) {
		tb.Fatalf("invocation %d: squashed %v; membership rule %v, positional rule %v",
			before.Invocations, squashed, member, positional)
	}
	if squashed {
		a.member++
	}
	if positional {
		a.positional++
	}
	if a.first == nil && a.r.pred.havePredictions() {
		a.first = slices.Clone(a.r.pred.rows)
	}
	return acc
}

// listAblations runs ablations over invocations of a 400-node list at
// the given width, with change applied between invocations, and checks
// every result against the sequential loop.
func listAblations(t *testing.T, threads int, seed int64, invocations int, change func(*testList)) ablations[*node, sumAcc] {
	t.Helper()
	l := newTestList(400, seed)
	r, err := NewRunner(xorLoop(), Config{Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	a := ablations[*node, sumAcc]{r: r}
	for inv := 0; inv < invocations; inv++ {
		want := sequential(xorLoop(), l.head)
		if got := a.run(t, l.head); got != want {
			t.Fatalf("threads=%d inv=%d: got %+v want %+v", threads, inv, got, want)
		}
		change(l)
	}
	return a
}

// TestMembershipBeatsPositionalUnderChurn is the paper's second insight:
// insertions and deletions shift positions, so positional validation over
// the rows the runner speculated on would have squashed 13 of 25
// invocations where membership squashed none, and per invocation at every
// width and under every kind of change, membership squashes only where
// positional validation would have (ablations.run).
func TestMembershipBeatsPositionalUnderChurn(t *testing.T) {
	a := listAblations(t, 4, 11, 25, (*testList).churn)
	if a.member >= a.positional {
		t.Errorf("membership squashed %d invocations, positional validation %d; "+
			"the paper's second insight should show", a.member, a.positional)
	}
	t.Logf("of 25 invocations, membership squashed %d, positional validation would have %d", a.member, a.positional)
	for _, threads := range []int{2, 3, 4, 8} {
		listAblations(t, threads, 11, 25, (*testList).churn)
		listAblations(t, threads, 11, 25, (*testList).grow)
		listAblations(t, threads, 11, 25, func(l *testList) { l.heavyChurn(0.15) })
	}
}

// TestMemoizeOnceDegrades is Section 4's re-memoization: when 15% of the
// membership is replaced per invocation, the rows of the first
// memoization break the chain in 26 of 30 invocations, the rows
// re-memoized every invocation in 9.
func TestMemoizeOnceDegrades(t *testing.T) {
	a := listAblations(t, 4, 17, 30, func(l *testList) { l.heavyChurn(0.15) })
	if a.once <= a.member {
		t.Errorf("memoize-once would have squashed %d invocations, re-memoization squashed %d; "+
			"re-memoization should adapt (Section 4)", a.once, a.member)
	}
	t.Logf("of 30 invocations, re-memoization squashed %d, memoize-once would have %d", a.member, a.once)
}

func TestEmptyAndTinyLists(t *testing.T) {
	r, _ := NewRunner(xorLoop(), Config{Threads: 4})
	defer r.Close()
	if got := r.MustRun(nil); got != (sumAcc{}) {
		t.Errorf("empty list: %+v", got)
	}
	one := &node{weight: 5}
	if got := r.MustRun(one); got.sum != 5 {
		t.Errorf("one node: %+v", got)
	}
	l := newTestList(3, 1)
	for inv := 0; inv < 5; inv++ {
		want := sequential(xorLoop(), l.head)
		if got := r.MustRun(l.head); got != want {
			t.Fatalf("tiny inv %d mismatch", inv)
		}
		l.churn()
	}
}

// TestQuickEquivalence is the property test: any mutation script applied
// between invocations preserves sequential equivalence.
func TestQuickEquivalence(t *testing.T) {
	f := func(seed int64, threads uint8) bool {
		tc := int(threads%7) + 2
		rng := rand.New(rand.NewSource(seed))
		l := newTestList(int(rng.Int63n(300))+1, seed)
		r, err := NewRunner(xorLoop(), Config{Threads: tc})
		if err != nil {
			return false
		}
		defer r.Close()
		for inv := 0; inv < 8; inv++ {
			want := sequential(xorLoop(), l.head)
			if got := r.MustRun(l.head); got != want {
				t.Logf("seed=%d threads=%d inv=%d: got %+v want %+v", seed, tc, inv, got, want)
				return false
			}
			switch rng.Intn(4) {
			case 0:
				l.churn()
			case 1:
				l.heavyChurn(rng.Float64())
			case 2: // shuffle
				ns := l.nodes()
				rng.Shuffle(len(ns), func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
				l.relink(ns)
			case 3: // truncate
				ns := l.nodes()
				if len(ns) > 1 {
					l.relink(ns[:rng.Intn(len(ns))+1])
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStatsSnapshotIsolated(t *testing.T) {
	l := newTestList(100, 2)
	r, _ := NewRunner(xorLoop(), Config{Threads: 2})
	defer r.Close()
	r.MustRun(l.head)
	st := r.Stats()
	if len(st.LastWorks) > 0 {
		st.LastWorks[0] = -99
	}
	if r.Stats().LastWorks[0] == -99 {
		t.Error("Stats() must return a copy")
	}
	if (Stats{}).Imbalance() != 1 {
		t.Error("empty imbalance should be 1")
	}
}
