package spice

// DOACROSS differential-oracle suite: speculative loops whose bodies
// carry loop-ordered state through a Cells store (conflict-checked
// reads/writes plus reductions) must produce bit-exact sequential
// results across every conflict regime — none, rare (sparse cross-node
// flow deps that only conflict when a chunk boundary splits a pair),
// and dense (a handful of shared cells every iteration hammers) — with
// the adaptive controller both on and off and at widths 1, 2 and 8.
// CI runs this file under -race at GOMAXPROCS 1, 2 and 8.

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// dcReserved mirrors the cell layout every test here uses: cells 0 and
// 1 are the Sum and Max reduction accumulators, data cells follow.
const dcReserved = 2

type dcnode struct {
	w        int64
	src, dst int
	next     *dcnode
}

// dcLoop is the universal DOACROSS test body: a read-modify-write
// through the cell store plus both reductions over the node weight.
func dcLoop() Loop[*dcnode, int64] {
	return Loop[*dcnode, int64]{
		Done:     func(n *dcnode) bool { return n == nil },
		Next:     func(n *dcnode) *dcnode { return n.next },
		SpecBody: dcStep,
		Init:     func() int64 { return 0 },
		Merge:    func(a, b int64) int64 { return a + b },
		Reductions: []Reduction{
			{Cell: 0, Kind: ReduceSum},
			{Cell: 1, Kind: ReduceMax},
		},
	}
}

func dcStep(n *dcnode, a int64, v *CellView) int64 {
	x := v.Load(n.src) + n.w
	v.Store(n.dst, x)
	v.Reduce(0, n.w)
	v.Reduce(1, n.w)
	return a + x
}

// dcScanLoop is dcLoop with the block form set (Loop.Scan).
func dcScanLoop() Loop[*dcnode, int64] {
	l := dcLoop()
	l.Scan = func(n *dcnode, a int64, v *CellView, stop *dcnode, max int64) (*dcnode, int64, int64) {
		var k int64
		for ; k < max && n != nil && n != stop; k++ {
			a = dcStep(n, a, v)
			n = n.next
		}
		return n, a, k
	}
	return l
}

// buildDoacross builds a size-node list wired for the conflict regime,
// plus the live store and an equally-sized shadow array for the
// sequential reference model.
func buildDoacross(rng *rand.Rand, size int, regime string) (*dcnode, []*dcnode, *Cells, []int64) {
	nodes := make([]*dcnode, size)
	var head *dcnode
	for i := size - 1; i >= 0; i-- {
		n := &dcnode{w: rng.Int63n(1 << 20), next: head}
		head = n
		nodes[i] = n
	}
	for i, n := range nodes {
		own := dcReserved + i
		n.src, n.dst = own, own
		switch regime {
		case "rare":
			if i > 0 && i%64 == 0 {
				n.src = dcReserved + i - 1
			}
		case "dense":
			n.dst = dcReserved + i%4
			n.src = n.dst
		}
	}
	ncells := dcReserved + size
	return head, nodes, NewCells(ncells), make([]int64, ncells)
}

// dcReference executes dcLoop's semantics sequentially against the
// shadow array — the independent model every parallel run must match.
func dcReference(head *dcnode, cells []int64) int64 {
	return dcReferenceSums(head, cells, false)
}

// dcReferenceSums is dcReference for a dcLoop whose second reduction
// was redeclared as a Sum when allSum is set (the all-ReduceSum
// declaration takes Reduce's inline path).
func dcReferenceSums(head *dcnode, cells []int64, allSum bool) int64 {
	var acc int64
	for n := head; n != nil; n = n.next {
		x := cells[n.src] + n.w
		cells[n.dst] = x
		acc += x
		cells[0] += n.w
		if allSum {
			cells[1] += n.w
		} else if n.w > cells[1] {
			cells[1] = n.w
		}
	}
	return acc
}

// assertCellsEqual compares the live store against the shadow model.
func assertCellsEqual(t *testing.T, tag string, c *Cells, shadow []int64) {
	t.Helper()
	for i := range shadow {
		if c.At(i) != shadow[i] {
			t.Fatalf("%s: cell %d = %d, want %d", tag, i, c.At(i), shadow[i])
		}
	}
}

// TestDoacrossOracle is the differential matrix: conflict regime ×
// adaptive × width, eight invocations each with value churn between
// them, asserting the accumulator, every cell, and counter
// conservation after every invocation.
func TestDoacrossOracle(t *testing.T) {
	for _, regime := range []string{"none", "rare", "dense"} {
		for _, adaptive := range []bool{false, true} {
			for _, threads := range []int{1, 2, 8} {
				name := fmt.Sprintf("%s/adaptive=%v/t%d", regime, adaptive, threads)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(42))
					head, nodes, cells, shadow := buildDoacross(rng, 600, regime)
					loop := dcLoop()
					loop.Cells = cells
					r, err := NewRunner(loop, Config{
						Threads:    threads,
						Options:    Options{Adaptive: adaptive},
						probeEvery: 2,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					var iters int64
					for inv := 0; inv < 8; inv++ {
						want := dcReference(head, shadow)
						got, rerr := r.Run(context.Background(), head)
						if rerr != nil {
							t.Fatalf("inv %d: %v", inv, rerr)
						}
						if got != want {
							t.Fatalf("inv %d: acc = %d, want %d", inv, got, want)
						}
						assertCellsEqual(t, fmt.Sprintf("inv %d", inv), cells, shadow)
						iters += int64(len(nodes))
						for k := 0; k < 30; k++ {
							nodes[rng.Intn(len(nodes))].w = rng.Int63n(1 << 20)
						}
					}
					st := r.Stats()
					if st.TotalIters != iters {
						t.Fatalf("TotalIters = %d, want %d", st.TotalIters, iters)
					}
					checkConservation(t, st)
					if st.Conflicts == 0 && st.ConflictIters != 0 {
						t.Fatalf("ConflictIters %d with zero Conflicts", st.ConflictIters)
					}
					if threads == 1 && st.Conflicts != 0 {
						t.Fatalf("width-1 run reported %d conflicts", st.Conflicts)
					}
				})
			}
		}
	}
}

// TestDoacrossDenseConflictsObserved pins the counters to the conflict
// machinery: a dense regime at fixed width 8 must actually take the
// squash-and-recover path (conflicts observed), and still match the
// model exactly.
func TestDoacrossDenseConflictsObserved(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	head, nodes, cells, shadow := buildDoacross(rng, 2000, "dense")
	loop := dcLoop()
	loop.Cells = cells
	r, err := NewRunner(loop, Config{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for inv := 0; inv < 12; inv++ {
		want := dcReference(head, shadow)
		got, rerr := r.Run(context.Background(), head)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if got != want {
			t.Fatalf("inv %d: acc = %d, want %d", inv, got, want)
		}
		assertCellsEqual(t, fmt.Sprintf("inv %d", inv), cells, shadow)
		for k := 0; k < 20; k++ {
			nodes[rng.Intn(len(nodes))].w = rng.Int63n(1 << 20)
		}
	}
	st := r.Stats()
	if st.Conflicts == 0 {
		t.Fatal("dense regime at width 8 observed no conflicts; the conflict path was never exercised")
	}
	if st.ConflictIters == 0 {
		t.Fatalf("ConflictIters = %d (SquashedIters %d)", st.ConflictIters, st.SquashedIters)
	}
	checkConservation(t, st)
}

// accLoop is the accessor's differential loop: dcLoop's Load/Store
// recurrence with a Sum, a Max and a Min over the node weight (the Min in
// the store's last cell), its SpecBody folding through Reduce and its
// block form through the Accumulators slice, each slot with its declared
// operator.
func accLoop(cells *Cells) Loop[*dcnode, int64] {
	l := dcLoop()
	l.Cells = cells
	l.Reductions = append(l.Reductions, Reduction{Cell: cells.Size() - 1, Kind: ReduceMin})
	l.SpecBody = func(n *dcnode, a int64, v *CellView) int64 {
		v.Reduce(2, n.w)
		return dcStep(n, a, v)
	}
	l.Scan = func(n *dcnode, a int64, v *CellView, stop *dcnode, max int64) (*dcnode, int64, int64) {
		r := v.Accumulators()
		var k int64
		for ; k < max && n != nil && n != stop; k++ {
			x := v.Load(n.src) + n.w
			v.Store(n.dst, x)
			r[0] += n.w
			if n.w > r[1] {
				r[1] = n.w
			}
			if n.w < r[2] {
				r[2] = n.w
			}
			a += x
			n = n.next
		}
		return n, a, k
	}
	return l
}

// TestScanAccumulatorsDifferential holds a block form that folds into
// CellView.Accumulators to the closure form that calls Reduce: twin
// runners, one with Scan set and one with it stripped, beside the
// sequential model, over both conflicting layouts (rare and dense, so
// squashed and re-executed chunks discard and re-seed their slices),
// widths 1 (the direct view), 2 and 4, adaptive off and on, under a cap
// small enough to force later rounds. Every result and every cell must
// equal the model's, and every repeatable counter the stripped twin's.
func TestScanAccumulatorsDifferential(t *testing.T) {
	const size = 600
	var seen Stats
	for _, regime := range []string{"rare", "dense"} {
		for _, threads := range []int{1, 2, 4} {
			for _, adaptive := range []bool{false, true} {
				tag := fmt.Sprintf("%s/t%d/adaptive=%v", regime, threads, adaptive)
				var sides [2]struct {
					head  *dcnode
					nodes []*dcnode
					cells *Cells
					r     *Runner[*dcnode, int64]
				}
				for i := range sides {
					s := &sides[i]
					// One more cell than buildDoacross lays out: the Min.
					s.head, s.nodes, _, _ = buildDoacross(rand.New(rand.NewSource(11)), size, regime)
					s.cells = NewCells(dcReserved + size + 1)
					loop := accLoop(s.cells)
					if i == 1 {
						loop.Scan = nil
					}
					r, err := NewRunner(loop, Config{
						Threads: threads, Options: Options{Adaptive: adaptive},
						maxSpec: 70, probeEvery: 2,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					s.r = r
				}
				shadow := make([]int64, dcReserved+size+1)
				minCell := len(shadow) - 1
				rng := rand.New(rand.NewSource(12))
				for inv := 0; inv < 6; inv++ {
					want := dcReference(sides[0].head, shadow[:minCell])
					for n := sides[0].head; n != nil; n = n.next {
						shadow[minCell] = min(shadow[minCell], n.w)
					}
					for i, s := range sides {
						got, err := s.r.Run(context.Background(), s.head)
						if err != nil {
							t.Fatalf("%s inv %d side %d: %v", tag, inv, i, err)
						}
						if got != want {
							t.Fatalf("%s inv %d side %d: acc = %d, want %d", tag, inv, i, got, want)
						}
						assertCellsEqual(t, fmt.Sprintf("%s inv %d side %d", tag, inv, i), s.cells, shadow)
					}
					if a, b := statsLine(sides[0].r.Stats()), statsLine(sides[1].r.Stats()); a != b {
						t.Fatalf("%s inv %d: counters differ\nScan:     %s\nclosures: %s", tag, inv, a, b)
					}
					// Signed weights, so the Min moves below the cell's zero
					// and the Max does not always.
					for k := 0; k < 30; k++ {
						i, w := rng.Intn(size), rng.Int63n(1<<20)-(1<<19)
						sides[0].nodes[i].w, sides[1].nodes[i].w = w, w
					}
				}
				st := sides[0].r.Stats()
				checkConservation(t, st)
				seen = seen.Plus(st)
			}
		}
	}
	// The premise: chunks were squashed on conflicts and re-executed, the
	// cap forced later rounds, and speculative chunks committed.
	if seen.Conflicts == 0 || seen.Recoveries == 0 || seen.Hits == 0 || seen.SquashedIters == 0 {
		t.Errorf("the matrix lost its premise: %+v", seen)
	}
}

// TestDoacrossErrorPartialExecution: a surfaced body error must leave
// the store exactly as sequential execution would — every iteration
// before the erroring one applied (including reduction folds), nothing
// at or after it.
func TestDoacrossErrorPartialExecution(t *testing.T) {
	errBoom := errors.New("boom")
	const size, errAt = 900, 637
	for _, threads := range []int{1, 8} {
		t.Run(fmt.Sprintf("t%d", threads), func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			head, nodes, cells, shadow := buildDoacross(rng, size, "rare")
			loop := dcLoop()
			loop.Cells = cells
			var arm bool
			loop.SpecBody = nil
			loop.SpecBodyErr = func(n *dcnode, a int64, v *CellView) (int64, error) {
				if arm && n == nodes[errAt] {
					return a, errBoom
				}
				x := v.Load(n.src) + n.w
				v.Store(n.dst, x)
				v.Reduce(0, n.w)
				v.Reduce(1, n.w)
				return a + x, nil
			}
			r, err := NewRunner(loop, Config{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			// Two clean invocations memoize predictions so the erroring one
			// actually dispatches speculative chunks at width > 1.
			for inv := 0; inv < 2; inv++ {
				want := dcReference(head, shadow)
				got, rerr := r.Run(context.Background(), head)
				if rerr != nil {
					t.Fatal(rerr)
				}
				if got != want {
					t.Fatalf("clean inv %d: acc = %d, want %d", inv, got, want)
				}
			}
			arm = true
			// Model the partial prefix: iterations 0..errAt-1 only.
			for i := 0; i < errAt; i++ {
				n := nodes[i]
				shadow[n.dst] = shadow[n.src] + n.w
				shadow[0] += n.w
				if n.w > shadow[1] {
					shadow[1] = n.w
				}
			}
			if _, rerr := r.Run(context.Background(), head); !errors.Is(rerr, errBoom) {
				t.Fatalf("error invocation returned %v, want %v", rerr, errBoom)
			}
			assertCellsEqual(t, "after error", cells, shadow)
		})
	}
}

// redKinds is every reduction kind, in declaration order.
var redKinds = []ReductionKind{ReduceSum, ReduceProduct, ReduceAnd, ReduceOr, ReduceXor, ReduceMin, ReduceMax}

// redModel is the hand-folded reference of the reduction oracle: one
// plain int64 per kind, updated the way a sequential program would.
type redModel [7]int64

// redSeed gives every accumulator a pre-existing value that is not its
// identity, so a fold that overwrote instead of combining would show.
var redSeed = redModel{1000, 3, -1 &^ 0xf0, 0x0f, 0x5555, 1 << 40, -(1 << 40)}

// redArg is the value iteration i folds into kind k.
func redArg(k int, w int64) int64 {
	h := int64(oracleHash(w))
	switch redKinds[k] {
	case ReduceProduct:
		return h | 1 // odd: the running product never collapses to zero
	case ReduceAnd:
		return h | 0x0f0f0f0f0f0f0f0f
	case ReduceOr:
		return h & 0x00ff00ff
	default:
		return h
	}
}

// apply folds reductions [from, to) of one iteration with weight w.
func (m *redModel) apply(w int64, from, to int) {
	for k := from; k < to; k++ {
		x := redArg(k, w)
		switch redKinds[k] {
		case ReduceSum:
			m[k] += x
		case ReduceProduct:
			m[k] *= x
		case ReduceAnd:
			m[k] &= x
		case ReduceOr:
			m[k] |= x
		case ReduceXor:
			m[k] ^= x
		case ReduceMin:
			if x < m[k] {
				m[k] = x
			}
		case ReduceMax:
			if x > m[k] {
				m[k] = x
			}
		}
	}
}

// TestReductionOracleEveryExit is the reduction half of the exactness
// contract on every way an invocation can end. Reductions are
// privatized in the sequential path too, so the store must receive the
// fold on each exit — a normal return, a body error at iteration k, a
// body panic at k, and a cancellation raised in k — and hold exactly
// the updates sequential execution would have applied: every iteration
// before k, the failing one up to its failure point, nothing after
// (for a cancellation: exactly a prefix of the iteration order, ending
// at the poll point that observed it). Checked for all seven kinds at once (a mixed declaration: the
// out-of-line Reduce), for an all-Sum declaration (the inline one), at
// width 1 (the direct view) and at widths 2 and 4, both with chunks
// that run to their match and with a cap small enough that the failing
// iteration is reached through squash and recovery rounds.
func TestReductionOracleEveryExit(t *testing.T) {
	const size, failAt, split = 4096, 2500, 3
	errBoom := errors.New("boom")
	for _, decl := range []string{"mixed", "sums"} {
		nred := len(redKinds)
		if decl == "sums" {
			nred = 3
		}
		for _, threads := range []int{1, 2, 4} {
			for _, maxSpec := range []int64{0, 300} {
				for _, exit := range []string{"normal", "error", "panic", "cancel"} {
					name := fmt.Sprintf("%s/t%d/cap%d/%s", decl, threads, maxSpec, exit)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(77))
						_, nodes, _, _ := buildDoacross(rng, size, "none")
						head := nodes[0]
						cells := NewCells(nred)
						var model redModel
						reseed := func() {
							model = redSeed
							for k := 0; k < nred; k++ {
								cells.Set(k, redSeed[k])
							}
						}
						// The sums declaration folds the three arguments of
						// kinds 0..2 into three Sum cells.
						fold := func(m *redModel, w int64, from, to int) {
							if decl == "mixed" {
								m.apply(w, from, to)
								return
							}
							for k := from; k < to; k++ {
								m[k] += redArg(k, w)
							}
						}
						var armed bool
						var onDirect, onSums bool // width 1: the view the body last ran against
						var cancel context.CancelFunc
						loop := Loop[*dcnode, int64]{
							Done: func(n *dcnode) bool { return n == nil },
							Next: func(n *dcnode) *dcnode { return n.next },
							SpecBodyErr: func(n *dcnode, a int64, v *CellView) (int64, error) {
								if threads == 1 {
									onDirect, onSums = v.direct, v.sums != nil
								}
								for k := 0; k < split; k++ {
									v.Reduce(k, redArg(k, n.w))
								}
								if armed && n == nodes[failAt] {
									switch exit {
									case "error":
										return a, errBoom
									case "panic":
										panic("reduction oracle")
									case "cancel":
										cancel()
									}
								}
								for k := split; k < nred; k++ {
									v.Reduce(k, redArg(k, n.w))
								}
								return a + 1, nil
							},
							Init:  func() int64 { return 0 },
							Merge: func(a, b int64) int64 { return a + b },
							Cells: cells,
						}
						for k := 0; k < nred; k++ {
							kind := ReduceSum
							if decl == "mixed" {
								kind = redKinds[k]
							}
							loop.Reductions = append(loop.Reductions, Reduction{Cell: k, Kind: kind})
						}
						r, err := NewRunner(loop, Config{Threads: threads, maxSpec: maxSpec})
						if err != nil {
							t.Fatal(err)
						}
						defer r.Close()
						clean := func(tag string) {
							reseed()
							for _, n := range nodes {
								fold(&model, n.w, 0, nred)
							}
							got, rerr := r.Run(context.Background(), head)
							if rerr != nil || got != size {
								t.Fatalf("%s: acc %d err %v", tag, got, rerr)
							}
							assertCellsEqual(t, tag, cells, model[:nred])
						}
						// Two clean invocations memoize predictions so the
						// armed one dispatches speculative chunks at width > 1.
						clean("warm-up 0")
						clean("warm-up 1")
						if threads == 1 && (!onDirect || onSums != (decl == "sums")) {
							t.Fatalf("direct view took the wrong Reduce path for the %s declaration", decl)
						}
						if exit == "normal" {
							return
						}

						reseed()
						ctx, cancelFn := context.WithCancel(context.Background())
						cancel = cancelFn
						defer cancelFn()
						armed = true
						_, rerr := r.Run(ctx, head)
						armed = false
						var pe *PanicError
						switch exit {
						case "error":
							if !errors.Is(rerr, errBoom) {
								t.Fatalf("err = %v, want %v", rerr, errBoom)
							}
						case "panic":
							if !errors.As(rerr, &pe) {
								t.Fatalf("err = %v, want *PanicError", rerr)
							}
						case "cancel":
							if !errors.Is(rerr, context.Canceled) {
								t.Fatalf("err = %v, want context.Canceled", rerr)
							}
						}
						if exit != "cancel" {
							// Every iteration before k, and the failing one up
							// to its failure point.
							for i := 0; i < failAt; i++ {
								fold(&model, nodes[i].w, 0, nred)
							}
							fold(&model, nodes[failAt].w, 0, split)
							assertCellsEqual(t, "after "+exit, cells, model[:nred])
						} else {
							// Cancellation is observed at a poll point, by
							// whichever chunk polls first — at width 1 after
							// iteration k, at wider widths possibly by a chunk
							// logically before the speculative one that
							// cancelled. Either way the store must hold exactly
							// a prefix of the iteration order.
							holds := func() bool {
								for k := 0; k < nred; k++ {
									if cells.At(k) != model[k] {
										return false
									}
								}
								return true
							}
							prefix := -1
							for i := 0; i <= size && prefix < 0; i++ {
								if holds() {
									prefix = i
								} else if i < size {
									fold(&model, nodes[i].w, 0, nred)
								}
							}
							if prefix < 0 || threads == 1 && prefix <= failAt {
								t.Fatalf("after cancel: store holds prefix %d (-1: none) of the iteration order, cancelled in iteration %d", prefix, failAt)
							}
						}
						clean("after " + exit)
					})
				}
			}
		}
	}
}

// TestDoacrossBindCells covers the binding surface: a speculative loop
// with no store fails with ErrNoCells, an out-of-range reduction cell
// fails with ErrBadReduction, and BindCells supplies a store after
// construction.
func TestDoacrossBindCells(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	head, _, cells, shadow := buildDoacross(rng, 200, "none")

	r, err := NewRunner(dcLoop(), Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, rerr := r.Run(context.Background(), head); !errors.Is(rerr, ErrNoCells) {
		t.Fatalf("unbound speculative run returned %v, want ErrNoCells", rerr)
	}
	r.BindCells(cells)
	want := dcReference(head, shadow)
	got, rerr := r.Run(context.Background(), head)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if got != want {
		t.Fatalf("acc = %d, want %d", got, want)
	}
	assertCellsEqual(t, "after bind", cells, shadow)
	r.Close()

	bad := dcLoop()
	bad.Reductions = []Reduction{{Cell: 10_000, Kind: ReduceSum}}
	bad.Cells = cells
	rb, err := NewRunner(bad, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if _, rerr := rb.Run(context.Background(), head); !errors.Is(rerr, ErrBadReduction) {
		t.Fatalf("out-of-range reduction returned %v, want ErrBadReduction", rerr)
	}
}

// TestStoreOutOfRangeContained: a view's buffers only grow, so a runner
// that once served a 1024-cell store still has room for cell 100 when
// it is re-bound to a 16-cell one. The store to cell 100 must panic in
// the body — where the chunk's containment turns it into *PanicError,
// at every width and whether the chunk is chunk 0 or a speculative one
// — and not later, at commit, on the invoking goroutine where nothing
// recovers it.
func TestStoreOutOfRangeContained(t *testing.T) {
	const size = 1200
	nodes := make([]*dcnode, size)
	var head *dcnode
	for i := size - 1; i >= 0; i-- {
		head = &dcnode{w: int64(i), dst: -1, next: head}
		nodes[i] = head
	}
	loop := dcLoop()
	loop.Reductions = nil
	loop.SpecBody = func(n *dcnode, a int64, v *CellView) int64 {
		if n.dst >= 0 {
			v.Store(n.dst, 1)
		}
		return a + n.w
	}
	const want = size * (size - 1) / 2
	for _, threads := range []int{1, 2, 4} {
		for _, at := range []int{0, size - 3} { // chunk 0, then the last (speculative) chunk
			t.Run(fmt.Sprintf("t%d/node%d", threads, at), func(t *testing.T) {
				r, err := NewRunner(loop, Config{Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				r.BindCells(NewCells(1024))
				for inv := 0; inv < 4; inv++ { // trains the predictor and grows every view
					if got := r.MustRun(head); got != want {
						t.Fatalf("training run = %d, want %d", got, want)
					}
				}
				if threads > 1 && r.Stats().Hits == 0 {
					t.Fatal("training runs committed no speculative chunk: the test would not reach a buffered view")
				}
				small := NewCells(16)
				r.BindCells(small)
				nodes[at].dst = 100
				_, rerr := r.Run(context.Background(), head)
				nodes[at].dst = -1
				var pe *PanicError
				if !errors.As(rerr, &pe) {
					t.Fatalf("store to cell 100 of a 16-cell store returned %v, want *PanicError", rerr)
				}
				for i := 0; i < small.Size(); i++ {
					if small.At(i) != 0 {
						t.Fatalf("cell %d = %d after the contained panic, want 0", i, small.At(i))
					}
				}
				if got := r.MustRun(head); got != want {
					t.Fatalf("run after the contained panic = %d, want %d", got, want)
				}
			})
		}
	}
}

// TestDoacrossLoopValidation: a loop must declare exactly one body
// form, and cell/reduction declarations require a speculative body.
func TestDoacrossLoopValidation(t *testing.T) {
	base := dcLoop()

	both := base
	both.Body = func(n *dcnode, a int64) int64 { return a }
	if _, err := NewRunner(both, Config{Threads: 2}); err == nil {
		t.Fatal("Body+SpecBody accepted")
	}

	plain := Loop[*dcnode, int64]{
		Done:  base.Done,
		Next:  base.Next,
		Body:  func(n *dcnode, a int64) int64 { return a + n.w },
		Init:  base.Init,
		Merge: base.Merge,
		Cells: NewCells(4),
	}
	if _, err := NewRunner(plain, Config{Threads: 2}); err == nil {
		t.Fatal("Cells on a non-speculative loop accepted")
	}
	plain.Cells = nil
	plain.Reductions = []Reduction{{Cell: 0, Kind: ReduceSum}}
	if _, err := NewRunner(plain, Config{Threads: 2}); err == nil {
		t.Fatal("Reductions on a non-speculative loop accepted")
	}
}

// cellSet lists the cells named by a view's read-set (word picks .r) or
// write-set (.w).
func cellSet(v *CellView, word func(cellBits) uint64) []int {
	var cells []int
	for b, blk := range v.bits {
		for w := word(blk); w != 0; w &= w - 1 {
			cells = append(cells, b<<6+bits.TrailingZeros64(w))
		}
	}
	return cells
}

func readSet(v *CellView) []int  { return cellSet(v, func(b cellBits) uint64 { return b.r }) }
func writeSet(v *CellView) []int { return cellSet(v, func(b cellBits) uint64 { return b.w }) }

// retire is the scheduler's treatment of one committed view in
// miniature — validate against the views behind it, land the buffer,
// fold the reductions — for tests that drive views by hand. It returns
// validate's verdict: the index in later of the first conflicting view.
func retire(v *CellView, later []CellView) int {
	end, _, _ := v.validate(later)
	v.copyOut()
	v.fold()
	return end
}

// poisonUnwritten overwrites the buffered value of every cell the view
// has no write bit for, so a copy-out that moved a cell — or a whole
// block — the chunk never stored to shows in the store.
func poisonUnwritten(v *CellView) {
	for i := range v.wval {
		if v.bits[i>>6].w&(1<<(i&63)) == 0 {
			v.wval[i] = -0x5ca1ab1e
		}
	}
}

// TestCellViewSemantics unit-tests the speculative memory itself:
// store-to-load forwarding, buffered invisibility, the per-cell
// read-set, conflict probing at commit (first conflicting chunk, same
// round only) and ordered commits.
func TestCellViewSemantics(t *testing.T) {
	c := NewCells(200)
	c.Set(3, 30)
	views := make([]CellView, 4) // one round: chunk 0 and three speculative chunks
	for i := range views {
		views[i].begin(c, nil)
	}
	w, r, far := &views[0], &views[2], &views[3]

	// Forwarding: the reader's own store satisfies its later load without
	// entering the read-set or touching the store.
	r.Store(5, 55)
	if got := r.Load(5); got != 55 {
		t.Fatalf("forwarded load = %d, want 55", got)
	}
	if c.At(5) != 0 {
		t.Fatal("buffered store reached the store before commit")
	}
	if got := readSet(r); len(got) != 0 {
		t.Fatalf("forwarded load entered the read-set: %v", got)
	}

	// Fall-through read: recorded once, sees the pre-round value even
	// though chunk 0 has a buffered write to the same cell — and stays a
	// read when the chunk later overwrites the cell itself.
	w.Store(3, 99)
	if got := r.Load(3); got != 30 {
		t.Fatalf("fall-through load = %d, want 30", got)
	}
	r.Load(3)
	r.Store(3, 31)
	if got := readSet(r); len(got) != 1 || got[0] != 3 {
		t.Fatalf("read-set = %v, want [3]", got)
	}
	// The last chunk reads the same cell and one chunk 0 never writes; the
	// chunk in between reads a neighbour in the same block.
	far.Load(3)
	far.Load(130)
	views[1].Load(4)
	w.Store(131, 7)

	// Chunk 0 commits: cell 3 lands, the first chunk that read it is the
	// conflict (index 1 of the probed views) and the one behind it, though
	// it read the cell too, is not reported ahead of it.
	if got := retire(w, views[1:]); got != 1 {
		t.Fatalf("commit flagged later[%d], want later[1]", got)
	}
	if c.At(3) != 99 || c.At(131) != 7 {
		t.Fatalf("commit left cells 3, 131 = %d, %d, want 99, 7", c.At(3), c.At(131))
	}
	// The walk narrows probing to the chunks before the conflict; the one
	// left read only a neighbouring cell, and commits cleanly itself.
	if got := retire(&views[1], views[2:2]); got != 0 {
		t.Fatalf("probing no views returned %d", got)
	}

	// A chunk armed in the NEXT round reads the committed value, and no
	// commit of this round writes it — the previous round's commit is not
	// a conflict because its view is not among the probed ones.
	for i := range views {
		views[i].begin(c, nil)
	}
	if got := views[1].Load(3); got != 99 {
		t.Fatalf("next-round load = %d, want 99", got)
	}
	views[0].Store(4, 1)
	if got := retire(&views[0], views[1:]); got != 3 {
		t.Fatalf("next-round read of a committed cell flagged as conflict (later[%d])", got)
	}
	// The squashed chunks of the first round left nothing behind.
	if c.At(5) != 0 || c.At(3) != 99 {
		t.Fatalf("a squashed chunk's writes reached the store: cells 5, 3 = %d, %d", c.At(5), c.At(3))
	}
}

// TestCellViewReductionMerge: private accumulators start at the kind's
// identity and fold into their cells in commit order.
func TestCellViewReductionMerge(t *testing.T) {
	c := NewCells(4)
	c.Set(0, 100) // pre-existing Sum accumulator value
	c.Set(1, 7)   // pre-existing Max
	red := []Reduction{{Cell: 0, Kind: ReduceSum}, {Cell: 1, Kind: ReduceMax}}

	var a, b CellView
	a.begin(c, red)
	b.begin(c, red)
	a.Reduce(0, 5)
	a.Reduce(1, 3)
	b.Reduce(0, 10)
	b.Reduce(1, 42)
	retire(&a, nil)
	retire(&b, nil)
	if got := c.At(0); got != 115 {
		t.Fatalf("Sum cell = %d, want 115", got)
	}
	if got := c.At(1); got != 42 {
		t.Fatalf("Max cell = %d, want 42", got)
	}

	// A chunk that never calls Reduce folds the identity — a no-op.
	var idle CellView
	idle.begin(c, red)
	retire(&idle, nil)
	if c.At(0) != 115 || c.At(1) != 42 {
		t.Fatalf("identity fold changed cells: %d, %d", c.At(0), c.At(1))
	}
}
