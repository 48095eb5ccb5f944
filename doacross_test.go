package spice

// DOACROSS differential-oracle suite: speculative loops whose bodies
// carry loop-ordered state through a Cells store (conflict-checked
// reads/writes plus reductions) must produce bit-exact sequential
// results across every conflict regime — none, rare (sparse cross-node
// flow deps that only conflict when a chunk boundary splits a pair),
// and dense (a handful of shared cells every iteration hammers) — with
// the adaptive controller both on and off and at widths 1, 2 and 8. The
// structures, the cell loop and its shadow-array model are the matrix's
// (matrix_test.go). CI runs this file under -race at GOMAXPROCS 1, 2
// and 8.

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// cellCase is seed's n-node cell-loop case for a conflict regime, with
// churn of its weights redrawn after every invocation.
func cellCase(seed int64, n int, regime string, churn int) mcase {
	return mcase{
		build: func() *gen { return cellList(rand.New(rand.NewSource(seed)), n, regime) },
		edit:  func(g *gen, _ int) { g.churnValues(churn) },
	}
}

// TestDoacrossOracle is the differential matrix: conflict regime ×
// adaptive × width, eight invocations each with value churn between
// them; the driver asserts the accumulator, every cell, and counter
// conservation after every invocation.
func TestDoacrossOracle(t *testing.T) {
	for _, regime := range []string{"none", "rare", "dense"} {
		for _, adaptive := range []bool{false, true} {
			for _, threads := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/adaptive=%v/t%d", regime, adaptive, threads), func(t *testing.T) {
					c := cellCase(42, 600, regime, 30)
					c.threads, c.adaptive, c.probe, c.invs = threads, adaptive, 2, 8
					c.run(t)
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
	c := cellCase(7, 2000, "dense", 20)
	c.threads, c.invs = 8, 12
	st := final(c.run(t))
	if st.Conflicts == 0 {
		t.Fatal("dense regime at width 8 observed no conflicts; the conflict path was never exercised")
	}
	if st.ConflictIters == 0 {
		t.Fatalf("ConflictIters = %d (SquashedIters %d)", st.ConflictIters, st.SquashedIters)
	}
}

// TestScanAccumulatorsDifferential holds a block form that folds into
// CellView.Accumulators to the closure form that calls Reduce (the
// "accum" loop: the cell loop's recurrence with a Sum, a Max and a Min
// over the node weight): twin runs, Scan set and stripped, beside the
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
				seen = seen.Plus(final(mcase{
					build: func() *gen {
						// One more cell than cellList lays out, for the Min; the
						// edits draw from a source of their own.
						g := cellList(rand.New(rand.NewSource(11)), size, regime)
						g.body, g.rng = "accum", rand.New(rand.NewSource(12))
						g.bind(dcReserved + size + 1)
						return g
					},
					// Signed weights, so the Min moves below the cell's zero
					// and the Max does not always.
					edit: func(g *gen, _ int) {
						ns := g.nodes()
						for k := 0; k < 30; k++ {
							i, w := g.rng.Intn(size), g.rng.Int63n(1<<20)-(1<<19)
							ns[i].w = w
						}
					},
					threads: threads, adaptive: adaptive, maxSpec: 70, probe: 2, invs: 6,
				}.twin(t)))
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
	const size, errAt = 900, 637
	for _, threads := range []int{1, 8} {
		t.Run(fmt.Sprintf("t%d", threads), func(t *testing.T) {
			g := cellList(rand.New(rand.NewSource(9)), size, "rare")
			ns := g.nodes()
			loop := g.loop(false)
			var arm bool
			loop.SpecBody = nil
			loop.SpecBodyErr = func(n *mnode, a tally, v *CellView) (tally, error) {
				if arm && n == ns[errAt] {
					return a, errBoom
				}
				return cellStep(n, a, v), nil
			}
			r := newRunner(t, loop, Config{Threads: threads})
			// Two clean invocations memoize predictions so the erroring one
			// actually dispatches speculative chunks at width > 1.
			g.exact(t, r)
			g.exact(t, r)
			arm = true
			g.prefix(errAt) // the partial prefix: iterations 0..errAt-1 only
			_, rerr := r.Run(context.Background(), g.head)
			checkExit(t, rerr, "error")
			g.checkCells(t, "after error")
		})
	}
}

// redKinds is every reduction kind, in declaration order.
var redKinds = []ReductionKind{ReduceSum, ReduceProduct, ReduceAnd, ReduceOr, ReduceXor, ReduceMin, ReduceMax}

// redModel is the reference of the reduction oracle: one plain int64 per
// reduction, folded the way a sequential program would, each with its
// kind's operator (ReductionKind.fold, which TestReductionKindFold holds
// to hand-computed values).
type redModel [7]int64

// redSeed gives every accumulator a pre-existing value that is not its
// identity, so a fold that overwrote instead of combining would show.
var redSeed = redModel{1000, 3, -1 &^ 0xf0, 0x0f, 0x5555, 1 << 40, -(1 << 40)}

// redArg is the value iteration i folds into kind k.
func redArg(k int, w int64) int64 {
	h := int64(hash(w))
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
	for _, decl := range []string{"mixed", "sums"} {
		// The sums declaration folds the arguments of kinds 0..2 into three
		// Sum cells.
		kinds := redKinds
		if decl == "sums" {
			kinds = []ReductionKind{ReduceSum, ReduceSum, ReduceSum}
		}
		nred := len(kinds)
		// fold applies reductions [from, to) of an iteration of weight w.
		fold := func(m *redModel, w int64, from, to int) {
			for k := from; k < to; k++ {
				m[k] = kinds[k].fold(m[k], redArg(k, w))
			}
		}
		for _, threads := range []int{1, 2, 4} {
			for _, maxSpec := range []int64{0, 300} {
				for _, exit := range []string{"normal", "error", "panic", "cancel"} {
					t.Run(fmt.Sprintf("%s/t%d/cap%d/%s", decl, threads, maxSpec, exit), func(t *testing.T) {
						nodes := newList(rand.New(rand.NewSource(77)), size, 1<<20).nodes()
						head := nodes[0]
						cells := NewCells(nred)
						var model redModel
						reseed := func() {
							model = redSeed
							for k := 0; k < nred; k++ {
								cells.Set(k, redSeed[k])
							}
						}
						var trap *mnode           // the failing iteration's node, once armed
						var onDirect, onSums bool // width 1: the view the body last ran against
						var cancel context.CancelFunc
						loop := Loop[*mnode, int64]{
							Done: func(n *mnode) bool { return n == nil },
							Next: func(n *mnode) *mnode { return n.next },
							SpecBodyErr: func(n *mnode, a int64, v *CellView) (int64, error) {
								if threads == 1 {
									onDirect, onSums = v.direct, v.sums != nil
								}
								for k := 0; k < split; k++ {
									v.Reduce(k, redArg(k, n.w))
								}
								if n == trap {
									if err := fail(exit, cancel); err != nil {
										return a, err
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
						for k, kind := range kinds {
							loop.Reductions = append(loop.Reductions, Reduction{Cell: k, Kind: kind})
						}
						r := newRunner(t, loop, Config{Threads: threads, maxSpec: maxSpec})
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
						defer cancelFn()
						cancel, trap = cancelFn, nodes[failAt]
						_, rerr := r.Run(ctx, head)
						trap = nil
						checkExit(t, rerr, exit)
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
	g := cellList(rand.New(rand.NewSource(3)), 200, "none")
	loop := g.loop(false)
	loop.Cells = nil
	r := newRunner(t, loop, Config{Threads: 2})
	_, rerr := r.Run(context.Background(), g.head)
	wantErr(t, rerr, ErrNoCells)
	r.BindCells(g.cells)
	g.exact(t, r)

	bad := g.loop(false)
	bad.Reductions = []Reduction{{Cell: 10_000, Kind: ReduceSum}}
	rb := newRunner(t, bad, Config{Threads: 2})
	_, rerr = rb.Run(context.Background(), g.head)
	wantErr(t, rerr, ErrBadReduction)
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
	g := testList(size, 1)
	ns := g.nodes()
	for _, n := range ns {
		n.dst = -1
	}
	loop := g.loop(false)
	loop.Body, loop.SpecBody = nil, func(n *mnode, a tally, v *CellView) tally {
		if n.dst >= 0 {
			v.Store(n.dst, 1)
		}
		return a.visit(n.w)
	}
	for _, threads := range []int{1, 2, 4} {
		for _, at := range []int{0, size - 3} { // chunk 0, then the last (speculative) chunk
			t.Run(fmt.Sprintf("t%d/node%d", threads, at), func(t *testing.T) {
				r := newRunner(t, loop, Config{Threads: threads})
				r.BindCells(NewCells(1024))
				g.warm(t, r, 4) // trains the predictor and grows every view
				if threads > 1 && r.Stats().Hits == 0 {
					t.Fatal("training runs committed no speculative chunk: the test would not reach a buffered view")
				}
				small := NewCells(16)
				r.BindCells(small)
				ns[at].dst = 100
				_, rerr := r.Run(context.Background(), g.head)
				ns[at].dst = -1
				wantPanic(t, rerr)
				assertCellsEqual(t, "after the contained panic", small, make([]int64, small.Size()))
				g.exact(t, r)
			})
		}
	}
}

// TestDoacrossLoopValidation: a loop must declare exactly one body
// form, cell/reduction declarations require a speculative body, and a
// reduction kind outside ReduceSum…ReduceMax is refused at construction
// with ErrBadReduction (fold would treat it as a Max, Identity as a
// Sum).
func TestDoacrossLoopValidation(t *testing.T) {
	base := cellList(rand.New(rand.NewSource(1)), 4, "none").loop(false)

	both := base
	both.Body = func(n *mnode, a tally) tally { return a }
	if _, err := NewRunner(both, Config{Threads: 2}); err == nil {
		t.Fatal("Body+SpecBody accepted")
	}

	plain := plainLoop()
	plain.Cells = NewCells(4)
	if _, err := NewRunner(plain, Config{Threads: 2}); err == nil {
		t.Fatal("Cells on a non-speculative loop accepted")
	}
	plain.Cells = nil
	plain.Reductions = []Reduction{{Cell: 0, Kind: ReduceSum}}
	if _, err := NewRunner(plain, Config{Threads: 2}); err == nil {
		t.Fatal("Reductions on a non-speculative loop accepted")
	}

	for _, kind := range []ReductionKind{ReduceSum - 1, ReduceMax + 1} {
		bad := base
		bad.Reductions = []Reduction{{Cell: 0, Kind: kind}}
		_, err := NewRunner(bad, Config{Threads: 2})
		wantErr(t, err, ErrBadReduction)
		_, err = NewPool(bad, PoolConfig{Config: Config{Threads: 2}})
		wantErr(t, err, ErrBadReduction)
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

// TestCellViewSemantics unit-tests the speculative memory itself, one
// scripted scenario held to the view model (runViewScript): store-to-load
// forwarding, buffered invisibility, the per-cell read-set (a load stays
// a read when the chunk later overwrites the cell), conflict probing at
// commit (the first conflicting chunk, not one behind it that read the
// cell too; the next round's reads of a committed cell are no conflict)
// and ordered commits that leave a squashed chunk's writes out.
func TestCellViewSemantics(t *testing.T) {
	runViewScript(t, viewScript(
		// Four views of one round; chunks 0 and 1 commit.
		viewRound(4, 2,
			vop{vStore, 2, 5}, vop{vLoad, 2, 5}, // forwarded
			vop{vStore, 0, 3}, vop{vLoad, 2, 3}, vop{vLoad, 2, 3}, vop{vStore, 2, 3},
			vop{vLoad, 3, 3}, vop{vLoad, 3, 130}, vop{vLoad, 1, 4}, vop{vStore, 0, 131}),
		// The next round reads what chunk 0 committed.
		viewRound(4, 1, vop{vLoad, 1, 3}, vop{vStore, 0, 4}),
	))
}

// TestCellViewReductionMerge: private accumulators start at the kind's
// identity and fold into their cells (a Sum and a Max) in commit order,
// through Reduce or the Accumulators slice alike; a chunk that never
// folds commits the identity, a no-op.
func TestCellViewReductionMerge(t *testing.T) {
	runViewScript(t, viewScript(viewRound(3, 3,
		vop{vReduce, 0, 0}, vop{vReduce, 0, 1}, vop{vReduce, 0, 0},
		vop{vAccum, 1, 0}, vop{vAccum, 1, 1}, vop{vReduce, 1, 1})))
}
