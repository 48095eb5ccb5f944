package spice

// The differential matrix behind the package's tests. Spice's contract
// is that an invocation commits exactly what sequential execution would,
// whatever the speculation, and nearly every test here checks it on
// some structure, under some edit, through some front door. This file
// holds what they share:
//
//   - one generator (gen): a seeded list or threaded tree of mnode, with
//     the DOACROSS cells each node loads and stores, the loop over it
//     (gen.loop), and the edits made between invocations — the named
//     mutation regimes (gen.mutate) and the scripted changes;
//   - one oracle (gen.oracle): the sequential loop over the structure as
//     its links stand, with a shadow array for cells and reductions;
//   - one driver (mcase.run): a case's invocations along the axes loop
//     form, front door, width, chunks per slot (depth), regime,
//     Adaptive, cap and cell regime,
//     asserting every result, every cell and the accounting identities
//     (checkConservation) after each, and returning the counters.
//
// The test files list their cases and keep the assertions no other test
// makes. CI runs the package under -race at GOMAXPROCS 1, 2 and 8.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// mnode is the node of every generated structure: a weight, the cells a
// cell loop loads (src) and stores (dst), and the link every loop
// follows — a list's successor, or a threaded tree's preorder thread.
type mnode struct {
	w        int64
	src, dst int
	next     *mnode
}

// tnode is a tree node: the mnode the loop sees, and the tree's shape.
type tnode struct {
	mnode
	left, right *tnode
}

// tally is the accumulator of every generated loop: the iterations, the
// sum of the values they fold and an order-independent fingerprint of
// those values, so a chunk that ran the right nodes in the wrong region
// cannot cancel out.
type tally struct {
	n, sum int64
	fp     uint64
}

func (a tally) visit(x int64) tally { return tally{a.n + 1, a.sum + x, a.fp ^ hash(x)} }

func hash(x int64) uint64 {
	h := uint64(x) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// dcReserved is the cell layout of a cell loop: cells 0 and 1 hold its
// reductions, node i's own cell is dcReserved+i.
const dcReserved = 2

// gen is one generated structure: its head, the seeded source that built
// it and draws its edits, the loop it is for (body: "" for a plain Body
// folding the weights, or one of gen.loop's cell loops), and a cell
// loop's store beside the shadow array the oracle keeps.
type gen struct {
	rng   *rand.Rand
	bound int64 // weights are drawn in [0, bound)
	head  *mnode
	root  *tnode // a tree's root (nil for a list)
	size  int    // a tree's size at build, which an adversarial rebuild draws from
	body  string
	cells *Cells
	model []int64
}

// newList builds an n-node list whose weights rng draws below bound,
// each draw prepended (the first drawn ends up last).
func newList(rng *rand.Rand, n int, bound int64) *gen {
	g := &gen{rng: rng, bound: bound}
	for range n {
		g.head = &mnode{w: rng.Int63n(bound), next: g.head}
	}
	return g
}

// regimeList builds an n-node list of weights below 2^30 that runs in
// the order rng draws them: the lists of the mutation regimes.
func regimeList(rng *rand.Rand, n int) *gen {
	g := newList(rng, n, 1<<30)
	ns := g.nodes()
	slices.Reverse(ns)
	g.relink(ns)
	return g
}

// testList is seed's n-node list of weights below 10^6, the lists the
// churn edits were written for.
func testList(n int, seed int64) *gen {
	return newList(rand.New(rand.NewSource(seed)), n, 1_000_000)
}

// newTree builds a random-shaped n-node tree, threaded in preorder: the
// loop chases the threads, which is how Spice sees any tree walk.
func newTree(rng *rand.Rand, n int) *gen {
	g := &gen{rng: rng, bound: 1 << 30, size: n}
	g.root = g.subtree(n)
	g.rethread()
	return g
}

func (g *gen) subtree(n int) *tnode {
	if n <= 0 {
		return nil
	}
	nl := g.rng.Intn(n)
	return &tnode{mnode{w: g.rng.Int63n(g.bound)}, g.subtree(nl), g.subtree(n - 1 - nl)}
}

// shape is kind's structure ("list" or "tree") of n nodes from rng.
func shape(rng *rand.Rand, kind string, n int) *gen {
	if kind == "tree" {
		return newTree(rng, n)
	}
	return regimeList(rng, n)
}

// cellList is rng's n-node list wired for a cell loop's conflict regime:
// every node loads and stores its own cell, except that under "rare"
// every 64th loads its predecessor's (a flow dependence that conflicts
// only when a chunk boundary splits the pair) and under "dense" all of
// them share four.
func cellList(rng *rand.Rand, n int, regime string) *gen {
	g := newList(rng, n, 1<<20)
	for i, nd := range g.nodes() {
		nd.src, nd.dst = dcReserved+i, dcReserved+i
		switch {
		case regime == "rare" && i > 0 && i%64 == 0:
			nd.src--
		case regime == "dense":
			nd.dst = dcReserved + i%4
			nd.src = nd.dst
		}
	}
	g.body = "cells"
	g.bind(dcReserved + n)
	return g
}

// storeList is the n-node list of the "store" loop: node i stores its
// weight to cell dst(i) of a size-cell store; stamp sets the weights.
func storeList(n, size int, dst func(int) int) *gen {
	ns := make([]*mnode, n)
	for i := range ns {
		ns[i] = &mnode{dst: dst(i)}
	}
	g := &gen{body: "store"}
	g.relink(ns)
	g.bind(size)
	return g
}

// bind gives the structure a fresh size-cell store and its shadow.
func (g *gen) bind(size int) { g.cells, g.model = NewCells(size), make([]int64, size) }

// plainLoop is the loop of a plain structure, for tests that build the
// loop before the structure.
func plainLoop() Loop[*mnode, tally] { return (&gen{}).loop(false) }

// hookLoop is the plain loop with hook called before every iteration.
func hookLoop(hook func(n *mnode)) Loop[*mnode, tally] {
	l := plainLoop()
	l.Body = func(n *mnode, a tally) tally {
		hook(n)
		return a.visit(n.w)
	}
	return l
}

// loop is the structure's loop, its block form set when scan is: for a
// plain structure a Body folding each weight; otherwise a SpecBody bound
// to the store — "cells" a load, a store and a Sum and a Max over the
// weight; "sums" the same with the Max redeclared as a Sum (Reduce's
// inline path); "accum" the same plus a Min in the store's last cell,
// its block form folding through CellView.Accumulators; "store" one
// store and no load, so that no chunk ever conflicts.
func (g *gen) loop(scan bool) Loop[*mnode, tally] {
	l := Loop[*mnode, tally]{
		Done:  func(n *mnode) bool { return n == nil },
		Next:  func(n *mnode) *mnode { return n.next },
		Init:  func() tally { return tally{} },
		Merge: func(a, b tally) tally { return tally{a.n + b.n, a.sum + b.sum, a.fp ^ b.fp} },
		Cells: g.cells,
	}
	step := cellStep
	switch g.body {
	case "":
		step = func(n *mnode, a tally, _ *CellView) tally { return a.visit(n.w) }
		l.Body = func(n *mnode, a tally) tally { return a.visit(n.w) }
	case "store":
		step = storeStep
	case "accum":
		step = func(n *mnode, a tally, v *CellView) tally { v.Reduce(2, n.w); return cellStep(n, a, v) }
	}
	if g.body != "" {
		l.SpecBody = step
	}
	if g.body != "" && g.body != "store" {
		l.Reductions = []Reduction{{0, ReduceSum}, {1, ReduceMax}}
	}
	switch g.body {
	case "sums":
		l.Reductions[1].Kind = ReduceSum
	case "accum":
		l.Reductions = append(l.Reductions, Reduction{len(g.model) - 1, ReduceMin})
	}
	if scan {
		l.Scan = scanOf(step)
		if g.body == "accum" {
			l.Scan = accumScan
		}
	}
	return l
}

func cellStep(n *mnode, a tally, v *CellView) tally {
	x := v.Load(n.src) + n.w
	v.Store(n.dst, x)
	v.Reduce(0, n.w)
	v.Reduce(1, n.w)
	return a.visit(x)
}

func storeStep(n *mnode, a tally, v *CellView) tally {
	v.Store(n.dst, n.w)
	return a.visit(n.w)
}

// scanOf is the block form of a loop whose every iteration is step.
func scanOf(step func(*mnode, tally, *CellView) tally) func(*mnode, tally, *CellView, *mnode, int64) (*mnode, tally, int64) {
	return func(n *mnode, a tally, v *CellView, stop *mnode, lim int64) (*mnode, tally, int64) {
		var k int64
		for ; k < lim && n != nil && n != stop; k++ {
			a, n = step(n, a, v), n.next
		}
		return n, a, k
	}
}

// accumScan is the "accum" loop's block form: its folds go into the
// Accumulators slice, each with its declared operator, where the
// SpecBody calls Reduce.
func accumScan(n *mnode, a tally, v *CellView, stop *mnode, lim int64) (*mnode, tally, int64) {
	r := v.Accumulators()
	var k int64
	for ; k < lim && n != nil && n != stop; k++ {
		x := v.Load(n.src) + n.w
		v.Store(n.dst, x)
		r[0] += n.w
		r[1], r[2] = max(r[1], n.w), min(r[2], n.w)
		a, n = a.visit(x), n.next
	}
	return n, a, k
}

// prefix runs the first k iterations of the sequential loop (every one
// for k < 0) over the structure as its links stand, so a hand-made edit
// counts, applying a cell loop's stores and reductions to the shadow as
// the plain program would. It returns the accumulator.
func (g *gen) prefix(k int) tally {
	var a tally
	m, body := g.model, g.body
	for n := g.head; n != nil && k != 0; n, k = n.next, k-1 {
		x := n.w
		if body == "store" {
			m[n.dst] = x
		} else if body != "" {
			x += m[n.src]
			m[n.dst] = x
			m[0] += n.w
			if body == "sums" {
				m[1] += n.w
			} else {
				m[1] = max(m[1], n.w)
			}
			if body == "accum" {
				m[len(m)-1] = min(m[len(m)-1], n.w)
			}
		}
		a = a.visit(x)
	}
	return a
}

// oracle is the whole sequential loop (prefix).
func (g *gen) oracle() tally { return g.prefix(-1) }

// checkCells fails t unless every cell of the store equals its shadow.
func (g *gen) checkCells(t testing.TB, tag string) {
	t.Helper()
	assertCellsEqual(t, tag, g.cells, g.model)
}

// assertCellsEqual fails t unless store c holds want.
func assertCellsEqual(t testing.TB, tag string, c *Cells, want []int64) {
	t.Helper()
	for i, x := range want {
		if got := c.At(i); got != x {
			t.Fatalf("%s: cell %d = %d, want %d", tag, i, got, x)
		}
	}
}

// door is what invocations go through: a Runner, a Session or a Pool.
type door interface {
	Run(context.Context, *mnode) (tally, error)
	Stats() Stats
}

// exact runs one invocation through d and fails t unless it returns the
// oracle's accumulator and leaves every cell as the shadow has it.
func (g *gen) exact(t testing.TB, d door) {
	t.Helper()
	want := g.oracle()
	if got, err := d.Run(context.Background(), g.head); err != nil || got != want {
		t.Fatalf("Run = %+v, %v; want %+v", got, err, want)
	}
	if g.cells != nil {
		g.checkCells(t, "after Run")
	}
}

// warm runs n invocations through d, each held to the oracle (exact).
func (g *gen) warm(t testing.TB, d door, n int) {
	t.Helper()
	for range n {
		g.exact(t, d)
	}
}

// --- Edits ------------------------------------------------------------

// nodes returns the nodes in traversal order, following the links.
func (g *gen) nodes() []*mnode {
	ns := make([]*mnode, 0, g.len())
	for n := g.head; n != nil; n = n.next {
		ns = append(ns, n)
	}
	return ns
}

// len counts the nodes, following the links.
func (g *gen) len() (k int) {
	for n := g.head; n != nil; n = n.next {
		k++
	}
	return k
}

// relink makes ns the traversal, in order.
func (g *gen) relink(ns []*mnode) {
	g.head = nil
	for i := len(ns) - 1; i >= 0; i-- {
		ns[i].next, g.head = g.head, ns[i]
	}
}

// preorder returns the tree's nodes in preorder.
func (g *gen) preorder() (ts []*tnode) {
	var walk func(*tnode)
	walk = func(n *tnode) {
		if n != nil {
			ts = append(ts, n)
			walk(n.left)
			walk(n.right)
		}
	}
	walk(g.root)
	return ts
}

// rethread threads the tree in preorder.
func (g *gen) rethread() {
	ts := g.preorder()
	ns := make([]*mnode, len(ts))
	for i, n := range ts {
		ns[i] = &n.mnode
	}
	g.relink(ns)
}

// each is an edit that ignores the invocation number.
func each(edit func(*gen)) func(*gen, int) { return func(g *gen, _ int) { edit(g) } }

// regime is the edit of a mutation regime (mutate).
func regime(name string) func(*gen, int) { return func(g *gen, _ int) { g.mutate(name) } }

// mutate applies one step of a mutation regime: "predictable" redraws
// weights, membership and order stable (the paper's friendly case);
// "drifting" moves about 3 % of a list's nodes, or swaps the children of
// about 5 % of a tree's (order drifts, membership holds), so predictions
// decay gradually; "adversarial" rebuilds the structure from fresh nodes
// of a fresh size, so no prediction ever materializes.
func (g *gen) mutate(regime string) {
	ns, tree := g.nodes(), g.root != nil
	switch {
	case regime == "predictable" && tree:
		for _, n := range g.preorder() {
			if g.rng.Intn(10) == 0 {
				n.w = g.rng.Int63n(g.bound)
			}
		}
	case regime == "predictable":
		for k := 0; k < len(ns)/20+1; k++ {
			ns[g.rng.Intn(len(ns))].w = g.rng.Int63n(g.bound)
		}
	case regime == "drifting" && tree:
		for _, n := range g.preorder() {
			if g.rng.Intn(20) == 0 {
				n.left, n.right = n.right, n.left
			}
		}
		g.rethread()
	case regime == "drifting":
		g.shift(len(ns)/33 + 1)
		g.churnValues(len(ns)/50 + 1)
	case regime == "adversarial" && tree:
		g.root = g.subtree(g.rng.Intn(2*g.size+16) + 1)
		g.rethread()
	case regime == "adversarial":
		g.head = regimeList(g.rng, g.rng.Intn(2*len(ns)+16)+1).head
	}
}

// churn removes the lightest node and reinserts it, freshly weighted, at
// a random position (the otter dynamics).
func (g *gen) churn() {
	ns := g.nodes()
	if len(ns) == 0 {
		return
	}
	i := 0
	for j, n := range ns {
		if n.w < ns[i].w {
			i = j
		}
	}
	n := ns[i]
	ns = slices.Delete(ns, i, i+1)
	n.w = g.rng.Int63n(g.bound)
	pos := 0
	if len(ns) > 0 {
		pos = g.rng.Intn(len(ns) + 1)
	}
	g.relink(slices.Insert(ns, pos, n))
}

// shift inserts k fresh nodes at random positions, each followed by
// the unlinking of a random node, so membership drifts and every
// position behind an edit moves.
func (g *gen) shift(k int) {
	ns := g.nodes()
	for ; k > 0; k-- {
		ns = slices.Insert(ns, g.rng.Intn(len(ns)+1), &mnode{w: g.rng.Int63n(g.bound)})
		del := g.rng.Intn(len(ns))
		ns = slices.Delete(ns, del, del+1)
	}
	g.relink(ns)
}

// heavyChurn replaces that fraction of the nodes with fresh ones.
func (g *gen) heavyChurn(frac float64) {
	ns := g.nodes()
	for k := 0; k < int(frac*float64(len(ns))); k++ {
		ns[g.rng.Intn(len(ns))] = &mnode{w: g.rng.Int63n(g.bound)}
	}
	g.relink(ns)
}

// grow inserts about 5 % fresh nodes at random positions.
func (g *gen) grow() {
	ns := g.nodes()
	for k := 0; k < len(ns)/20+2; k++ {
		ns = slices.Insert(ns, g.rng.Intn(len(ns)+1), &mnode{w: g.rng.Int63n(g.bound)})
	}
	g.relink(ns)
}

// growMid inserts k nodes in the middle, node i weighing i·step: growth
// that takes a chunk past the cap derived from the last trip count.
func (g *gen) growMid(k int, step int64) {
	ns, mid := g.nodes(), make([]*mnode, k)
	for i := range mid {
		mid[i] = &mnode{w: int64(i) * step}
	}
	g.relink(slices.Insert(ns, len(ns)/2, mid...))
}

// dropThird unlinks every third node.
func (g *gen) dropThird() {
	ns := g.nodes()
	kept := ns[:0]
	for i, n := range ns {
		if i%3 != 2 {
			kept = append(kept, n)
		}
	}
	g.relink(kept)
}

// cutThird unlinks the middle third of the list and returns its nodes,
// which still lead back into the list.
func (g *gen) cutThird() []*mnode {
	ns := g.nodes()
	cut := slices.Clone(ns[len(ns)/3 : 2*len(ns)/3])
	g.relink(append(ns[:len(ns)/3], ns[2*len(ns)/3:]...))
	return cut
}

// shuffle relinks the nodes in a random order.
func (g *gen) shuffle() {
	ns := g.nodes()
	g.rng.Shuffle(len(ns), func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
	g.relink(ns)
}

// truncate keeps a random non-empty prefix.
func (g *gen) truncate() {
	if ns := g.nodes(); len(ns) > 1 {
		g.relink(ns[:g.rng.Intn(len(ns))+1])
	}
}

// selfCycle unlinks the third quarter of the list and points its first
// node at itself: a predicted start that, speculated on, spins off the
// list until the cap stops it.
func (g *gen) selfCycle() {
	ns := g.nodes()
	mid := ns[len(ns)/2]
	mid.next = mid
	g.relink(append(ns[:len(ns)/2], ns[3*len(ns)/4:]...))
}

// churnValues redraws k random weights.
func (g *gen) churnValues(k int) {
	ns := g.nodes()
	for ; k > 0; k-- {
		ns[g.rng.Intn(len(ns))].w = g.rng.Int63n(g.bound)
	}
}

// stamp gives node i of op the weight op·2^32 + i + 1, which no other
// node or op has.
func (g *gen) stamp(op int) {
	for n, i := g.head, int64(op)<<32; n != nil; n, i = n.next, i+1 {
		n.w = i + 1
	}
}

// --- Failures ---------------------------------------------------------

// errBoom is the error a failing iteration returns.
var errBoom = errors.New("boom")

// fail ends an iteration the way exit names: "error" returns errBoom,
// "panic" panics, "cancel" cancels the invocation's context and lets the
// iteration run on (nil).
func fail(exit string, cancel context.CancelFunc) error {
	switch exit {
	case "error":
		return errBoom
	case "panic":
		panic("trapped iteration")
	case "cancel":
		cancel()
	}
	return nil
}

// checkExit fails t unless err is what an invocation that failed on
// exit returns: errBoom, a *PanicError, or context.Canceled.
func checkExit(t testing.TB, err error, exit string) {
	t.Helper()
	switch exit {
	case "error":
		wantErr(t, err, errBoom)
	case "panic":
		wantPanic(t, err)
	case "cancel":
		wantErr(t, err, context.Canceled)
	}
}

// wantErr fails t unless err is target (errors.Is).
func wantErr(t testing.TB, err, target error) {
	t.Helper()
	if !errors.Is(err, target) {
		t.Fatalf("err = %v, want %v", err, target)
	}
}

// panics runs f and returns what it panicked with (nil if it returned).
func panics(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// wantPanic fails t unless err is a contained panic, and returns it.
func wantPanic(t testing.TB, err error) *PanicError {
	t.Helper()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	return pe
}

// --- The driver -------------------------------------------------------

// mcase is one case of the matrix: a structure, the edit made after
// every invocation, and the axes the invocations run along.
type mcase struct {
	build    func() *gen
	scan     bool                 // the loop's block form (Loop.Scan) set
	door     string               // "" (a Runner), "session", "pool", "batch" (Pool.RunBatch) or "submit" (Pool.Submit)
	via      *Pool[*mnode, tally] // the pool behind a pool door when the test shares one (nil: run builds its own)
	threads  int
	adaptive bool
	maxSpec  int64 // Config.maxSpec (0: the derived cap)
	probe    int   // Config.probeEvery (0: the derived interval)
	depth    int   // Config.depth: 1 to 4 chunks per slot (0: the derived depth)
	narrow   bool  // the door's runner starts narrowed to width 1 (narrow, adaptive_test.go)
	invs     int   // invocations, or waves of them for "batch" and "submit"
	wave     int   // invocations per wave ("batch" and "submit"; plain loops only)
	edit     func(g *gen, inv int)
}

func (c mcase) String() string {
	return fmt.Sprintf("%s t%d cap%d adaptive=%v scan=%v depth=%d", cmp.Or(c.door, "runner"), c.threads, c.maxSpec, c.adaptive, c.scan, c.depth)
}

// run drives the case through a door it opens and closes. After every
// invocation (or wave) every result must equal the oracle's, every cell
// its shadow, and the counters must conserve; at the end every
// invocation must be counted and the committed iterations must be the
// oracle's trip counts, not all zero. It returns the counters after
// every invocation.
func (c mcase) run(t testing.TB) []Stats {
	t.Helper()
	ctx, g := context.Background(), c.build()
	cfg := Config{Threads: c.threads, Options: Options{Adaptive: c.adaptive}, maxSpec: c.maxSpec, probeEvery: c.probe, depth: c.depth}
	var d door
	var p *Pool[*mnode, tally]
	var rn *Runner[*mnode, tally] // the runner door's (checkDepths)
	if c.door == "" {
		r := newRunner(t, g.loop(c.scan), cfg)
		defer r.Close()
		d, rn = r, r
	} else {
		if p = c.via; p == nil {
			p = newPool(t, g.loop(c.scan), cfg)
			defer p.Close()
		}
		d = p
		if c.door == "session" {
			s := openSession(t, p, 0)
			defer s.Close()
			d = s
		}
	}
	if c.narrow {
		var r *Runner[*mnode, tally]
		switch d := d.(type) {
		case *Runner[*mnode, tally]:
			r = d
		case *Session[*mnode, tally]:
			r = d.r
		default: // the runner every Pool.Run of the case gets back
			var err error
			if r, err = p.acquireRunner(c.threads, false); err != nil {
				t.Fatal(err)
			}
			p.release(r)
		}
		narrow(&r.pairing)
	}
	wave, base := max(c.wave, 1), d.Stats() // a recycled runner's session counts from its last session's totals
	var sts []Stats
	hunted := false // the runner door's has hunted the set: its slots may carry more than its depth
	var iters int64
	for inv := 0; inv < c.invs; inv++ {
		want := g.oracle()
		var got []tally
		var err error
		switch c.door {
		case "batch":
			got, err = p.RunBatch(ctx, slices.Repeat([]*mnode{g.head}, wave))
		case "submit":
			futs := make([]*Future[tally], wave)
			for i := range futs {
				futs[i] = p.Submit(ctx, g.head)
			}
			for i, f := range futs {
				a, ferr := f.Wait()
				got, err = append(got, a), cmp.Or(err, ferr)
				if st := f.Stats(); ferr == nil && (st.Invocations != 1 || st.TotalIters != want.n) {
					t.Fatalf("%v inv %d future %d: Invocations %d TotalIters %d, want 1 and %d", c, inv, i, st.Invocations, st.TotalIters, want.n)
				}
			}
		default:
			a, rerr := d.Run(ctx, g.head)
			got, err = []tally{a}, rerr
		}
		if err != nil || len(got) != wave {
			t.Fatalf("%v inv %d: %d of %d results, %v", c, inv, len(got), wave, err)
		}
		for i, a := range got {
			if a != want {
				t.Fatalf("%v inv %d item %d: got %+v want %+v", c, inv, i, a, want)
			}
		}
		if g.cells != nil {
			g.checkCells(t, fmt.Sprintf("%v inv %d", c, inv))
		}
		st := d.Stats().Delta(base)
		checkConservation(t, st, c.threads, c.depth)
		if c.door == "" && len(st.LastWorks) != c.threads {
			t.Fatalf("%v inv %d: LastWorks %v, want one entry per thread", c, inv, st.LastWorks)
		}
		if hunted = hunted || rn != nil && rn.anyStop; rn != nil && !hunted {
			checkDepths(t, rn, fmt.Sprintf("%v inv %d", c, inv))
		}
		sts = append(sts, st)
		iters += int64(wave) * want.n
		if c.edit != nil {
			c.edit(g, inv)
		}
	}
	if st := d.Stats().Delta(base); st.Invocations != int64(c.invs*wave) || st.TotalIters != iters || iters == 0 {
		t.Fatalf("%v: Invocations %d TotalIters %d; the oracle ran %d invocations of %d iterations in all",
			c, st.Invocations, st.TotalIters, c.invs*wave, iters)
	}
	return sts
}

// twin runs the case with the loop's block form stripped, then set, and
// fails t unless the two agree on every counter after every invocation:
// Scan moves none. It returns the counters of the first run.
func (c mcase) twin(t testing.TB) []Stats {
	t.Helper()
	c.scan = false
	closures := c.run(t)
	c.scan = true
	for inv, st := range c.run(t) {
		if a, b := statsLine(closures[inv]), statsLine(st); a != b {
			t.Fatalf("%v inv %d: counters differ\nclosures: %s\nScan:     %s", c, inv, a, b)
		}
	}
	return closures
}

// parallel runs the cases at once, each on a goroutine of its own, and
// fails t with the first failure among them. It returns every case's
// counters (mcase.run).
func parallel(t *testing.T, cases ...mcase) [][]Stats {
	t.Helper()
	out := make([][]Stats, len(cases))
	var failed atomic.Pointer[string]
	fanOut(len(cases), func(i int) { out[i] = cases[i].run(goroutineTB{t, &failed}) })
	if msg := failed.Load(); msg != nil {
		t.Fatal(*msg)
	}
	return out
}

// goroutineTB is t for a case on a goroutine the test started, where
// Fatal must not be called: the failure is kept for the test's own
// goroutine to report, and ends the case's.
type goroutineTB struct {
	testing.TB
	failed *atomic.Pointer[string]
}

func (g goroutineTB) Fatalf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	g.failed.CompareAndSwap(nil, &msg)
	runtime.Goexit()
}

func (g goroutineTB) Fatal(args ...any) { g.Fatalf("%s", fmt.Sprint(args...)) }

// fanOut runs f(0) … f(n−1), each on a goroutine of its own, and
// waits for them all.
func fanOut(n int, f func(g int)) {
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(g)
		}()
	}
	wg.Wait()
}

// whileRunning calls probe over and over, on a goroutine of its own,
// until run returns, and fails t with the first complaint probe makes.
func whileRunning(t *testing.T, probe func() string, run func()) {
	t.Helper()
	var complaint atomic.Pointer[string]
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if msg := probe(); msg != "" {
				complaint.Store(&msg)
				return
			}
		}
	}()
	run()
	close(stop)
	<-done
	if msg := complaint.Load(); msg != nil {
		t.Fatal(*msg)
	}
}

// final is the counters after a case's last invocation.
func final(sts []Stats) Stats { return sts[len(sts)-1] }

// busy counts the chunks that committed work (Stats.LastWorks).
func busy(works []int64) (n int) {
	for _, w := range works {
		if w > 0 {
			n++
		}
	}
	return n
}

// checkConservation fails t unless st satisfies every accounting
// identity, whatever the speculation, conflict or fault regime behind
// it: a conflict squash is a squash, a reclaim is a verdict, no round
// judges more chunks than it dispatches (setFanout·depth·threads − 1
// when its slots carry several chunks, as a round that hunts the set
// does, threads − 1 otherwise), a paired round is a round, conflict
// iterations need a conflict, and width 1 meets no conflict. depth is
// the runner's pinned Config.depth, or 0 for a derived one, whose slots
// carry up to maxDepth chunks a lane.
func checkConservation(t testing.TB, st Stats, threads, depth int) {
	t.Helper()
	if depth == 0 {
		depth = maxDepth
	}
	rounds := st.Invocations + st.Recoveries
	switch spec, extra := int64(threads-1), int64((setFanout*depth-1)*threads); {
	case st.PairedRounds > rounds:
		t.Fatalf("PairedRounds %d > Invocations %d + Recoveries %d", st.PairedRounds, st.Invocations, st.Recoveries)
	case st.Hits+st.Misses > rounds*spec+st.PairedRounds*extra:
		t.Fatalf("Hits %d + Misses %d > (Invocations %d + Recoveries %d) × %d + PairedRounds %d × %d",
			st.Hits, st.Misses, st.Invocations, st.Recoveries, spec, st.PairedRounds, extra)
	case st.ConflictIters > st.SquashedIters:
		t.Fatalf("ConflictIters %d > SquashedIters %d", st.ConflictIters, st.SquashedIters)
	case st.Reclaimed > st.Hits+st.Misses:
		t.Fatalf("Reclaimed %d > Hits %d + Misses %d", st.Reclaimed, st.Hits, st.Misses)
	case st.Conflicts == 0 && st.ConflictIters != 0:
		t.Fatalf("ConflictIters %d with no conflict", st.ConflictIters)
	case spec == 0 && st.Conflicts != 0:
		t.Fatalf("a width-1 run reported %d conflicts", st.Conflicts)
	}
}

// checkDepths fails t unless every slot of r carried at most its depth
// of chunks, the chunks it keeps in flight (chunkJob.depth, min(width,
// pairing.depth)): true of every round of index order, where a slot
// carries at most the runner's depth, so that depth is the slot's width
// there. Only a round that hunts the set carries more.
func checkDepths[A any](t testing.TB, r *Runner[*mnode, A], tag string) {
	t.Helper()
	for i := range r.jobs {
		if j := &r.jobs[i]; j.width > j.depth {
			t.Fatalf("%s: slot %d carried %d chunks at depth %d", tag, i, j.width, j.depth)
		}
	}
}

// statsLine formats every Stats field that repeats exactly from run to
// run — all of them except Reclaimed, which counts chunks the invoker
// won from a late worker and so depends on the Go scheduler. PairedRounds
// is written only when rounds were paired, so a depth-1 line reads as it
// did before the counter existed (pinnedRounds hashes these lines).
func statsLine(st Stats) string {
	line := fmt.Sprintf("inv=%d mis=%d sq=%d tail=%d tot=%d rec=%d rch=%d hit=%d miss=%d "+
		"conf=%d ci=%d sf=%d shed=%d ret=%d eff=%d works=%v",
		st.Invocations, st.MisspecInvocations, st.SquashedIters, st.TailIters, st.TotalIters,
		st.Recoveries, st.RecoveryChunks, st.Hits, st.Misses,
		st.Conflicts, st.ConflictIters, st.SequentialFallbacks, st.BatchSheds, st.RunnersRetired,
		st.EffectiveThreads, st.LastWorks)
	if st.PairedRounds > 0 {
		line += fmt.Sprintf(" paired=%d", st.PairedRounds)
	}
	return line
}

// --- Plumbing ---------------------------------------------------------

// newRunner builds a runner that t's cleanup closes.
func newRunner[S comparable, A any](t testing.TB, loop Loop[S, A], cfg Config) *Runner[S, A] {
	t.Helper()
	r, err := NewRunner(loop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// newPool builds a pool that t's cleanup closes.
func newPool[S comparable, A any](t testing.TB, loop Loop[S, A], cfg Config) *Pool[S, A] {
	t.Helper()
	p, err := NewPool(loop, PoolConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// openSession opens a session of p at width (0: the pool's) that t's
// cleanup closes.
func openSession[S comparable, A any](t testing.TB, p *Pool[S, A], width int) *Session[S, A] {
	t.Helper()
	s, err := p.SessionWidth(cmp.Or(width, p.cfg.Threads))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}
