package spice

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
)

// roundKinds records which triggers of a second round a scenario saw.
type roundKinds struct{ capRound, capAgain, conflictRound bool }

// note reads a scenario's counters after every invocation.
func (k *roundKinds) note(sts []Stats) {
	var before Stats
	for _, after := range sts {
		rounds := after.Recoveries - before.Recoveries
		switch {
		case rounds > 0 && after.Conflicts > before.Conflicts:
			k.conflictRound = true
		case rounds > 1:
			k.capRound, k.capAgain = true, true
		case rounds > 0:
			k.capRound = true
		}
		before = after
	}
}

// pinnedEdit is the list scenarios' script over 14 invocations: churn
// after every odd one, and in place of it a mid-list growth of 2500
// nodes (~9x, past the 4x+1024 derived cap) after invocation 4, a drop
// of every third node after 8 and a shuffle after 11.
func pinnedEdit(g *gen, inv int) {
	switch {
	case inv == 4:
		g.growMid(2500, 40503)
	case inv == 8:
		g.dropThird()
	case inv == 11:
		g.shuffle()
	case inv%2 == 1:
		g.churn()
	}
}

// TestRoundCountersPinned pins what no benchmark workload reaches (none
// of them runs a second round): every counter of every invocation of a
// scenario matrix over width × cap (maxSpec) × adaptive × structural
// change, and DOACROSS regime × width × cap × adaptive, as
// one FNV-1a hash per scenario of its formatted snapshots. The table
// was captured at the commit before scheduler.run became one loop over
// rounds (when recovery rounds were a separate function), so it is the
// evidence that rounds after the first behave exactly as recovery did.
// Every scenario runs twice, on the closure triple and with the loop's
// block form set (Loop.Scan), which must agree counter for counter
// (mcase.twin): the block form moves no counter of any invocation. A
// change that means to move a counter re-captures the table from the
// failure output and says which counters moved and why. The list
// scenarios pin one chunk per slot (Config.depth); their paired/
// subtests run the same scripts with 2 and 4 (paired/d4/ for 4),
// where every invocation must still equal the oracle, conserve, and
// agree across the two loop forms, at widths 2 to 4. Their derived/
// subtests run them with the depth derived, on the grid of maxDepth
// chunks per slot that uses every maxDepth-th row at depth 1
// (predictor.stride): 300 nodes are too few for the ladder ever to
// engage, so each must hash to its scenario's pinned value.
func TestRoundCountersPinned(t *testing.T) {
	var kinds roundKinds
	ran := map[string]string{} // scenario -> its snapshots, one a line
	snapshots := func(sts []Stats) string {
		lines := make([]string, len(sts))
		for i, st := range sts {
			lines[i] = statsLine(st)
		}
		return strings.Join(lines, "\n")
	}
	hash := func(snapshots string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(snapshots))
		return h.Sum64()
	}
	pin := func(name string, c mcase) {
		sts := c.twin(t)
		kinds.note(sts)
		ran[name] = snapshots(sts)
	}
	for _, threads := range []int{2, 3, 4, 8} {
		for _, maxSpec := range []int64{0, 50, 600} {
			for _, adaptive := range []bool{false, true} {
				c := mcase{
					build: func() *gen { return testList(300, 31) }, edit: pinnedEdit,
					threads: threads, adaptive: adaptive, maxSpec: maxSpec, probe: 2, invs: 14, depth: 1,
				}
				name := fmt.Sprintf("list/t%d/cap%d/adaptive=%v", threads, maxSpec, adaptive)
				pin(name, c)
				derived := c
				derived.depth = 0
				t.Run("derived/"+name, func(t *testing.T) {
					if got, want := hash(snapshots(derived.twin(t))), pinnedRounds[name]; got != want {
						t.Errorf("%#016x, pinned %#016x", got, want)
					}
				})
				if threads > 4 {
					continue
				}
				for _, depth := range []int{2, 4} {
					c.depth = depth
					name := fmt.Sprintf("paired/list/t%d/cap%d/adaptive=%v", threads, maxSpec, adaptive)
					if depth != 2 {
						name = fmt.Sprintf("paired/d%d/list/t%d/cap%d/adaptive=%v", depth, threads, maxSpec, adaptive)
					}
					t.Run(name, func(t *testing.T) {
						if st := final(c.twin(t)); st.PairedRounds == 0 {
							t.Fatal("no round was paired")
						}
					})
				}
			}
		}
	}
	for _, regime := range []string{"none", "rare", "dense"} {
		for _, threads := range []int{2, 4, 8} {
			for _, maxSpec := range []int64{0, 300} {
				for _, adaptive := range []bool{false, true} {
					c := cellCase(42, 600, regime, 30)
					c.threads, c.adaptive, c.maxSpec, c.probe, c.invs = threads, adaptive, maxSpec, 2, 10
					pin(fmt.Sprintf("doacross/%s/t%d/cap%d/adaptive=%v", regime, threads, maxSpec, adaptive), c)
				}
			}
		}
	}
	if !kinds.capRound || !kinds.capAgain || !kinds.conflictRound {
		t.Errorf("matrix lost a trigger of later rounds: %+v", kinds)
	}
	if len(ran) != len(pinnedRounds) {
		t.Errorf("%d scenarios ran, %d are pinned", len(ran), len(pinnedRounds))
	}
	for name, snaps := range ran {
		if got, want := hash(snaps), pinnedRounds[name]; got != want {
			t.Errorf("%q: %#016x, // pinned %#016x\n%s", name, got, want, snaps)
		}
	}
}

// scriptedCtx is a context whose Err turns context.Canceled, for good,
// on its cancelAt-th call: a cancellation that lands at one exact check
// of the invoking goroutine. Only that goroutine calls Err in the test
// below — every chunk there is shorter than a poll interval.
type scriptedCtx struct {
	context.Context
	calls, cancelAt int
}

func (c *scriptedCtx) Err() error {
	c.calls++
	if c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// heldExecutor is a one-worker executor whose worker is held until the
// test ends, so the invoker runs (reclaims) every speculative chunk
// itself and leaves each slot's reclaimed flag set for the next round to
// find.
func heldExecutor(t *testing.T) *Executor {
	e := NewExecutor(1)
	t.Cleanup(e.Close)
	t.Cleanup(holdWorker(e, 0))
	return e
}

// seedQuarters gives a width-4 runner pinned to one chunk a slot (a grid
// of four parts) the rows a bootstrap over ns memoizes: the rows of
// boundaries 0, 1 and 2 (indexRow) at its quarters.
func seedQuarters(r *Runner[*mnode, tally], ns []*mnode) {
	q := len(ns) / 4
	r.pred.apply(int64(len(ns)), []memo[*mnode]{
		{indexRow(0), ns[q], int64(q)}, {indexRow(1), ns[2*q], int64(2 * q)}, {indexRow(2), ns[3*q], int64(3 * q)}})
}

// indexRow is the row of boundary k of a round of index order at stride
// 1: the grid is setFanout times finer (predictor.step).
func indexRow(k int) int { return setFanout*(k+1) - 1 }

// TestUndispatchedSlotsGetNoVerdict: when cancellation lands inside a
// later round's dispatch loop, the slots left unlaunched resolved
// nothing — their rows must get no hit or miss, no confidence change
// and no Reclaimed, whether the round's resume chunk then finishes the
// traversal (the invocation succeeds) or matches its way to an
// unlaunched slot (it fails with the ctx error). Recovery rounds used
// to judge every slot of the chain, dispatched or not. (A cancel one
// check earlier, at the top of the round, starts no round at all.) The
// runners are adaptive: row confidence is the controller's.
func TestUndispatchedSlotsGetNoVerdict(t *testing.T) {
	// Round 0: slot 0 matches row 0 after 300 iterations, slot 1 commits
	// capped at 100 hunting row 1, slots 2 and 3 are squashed behind it.
	// Round 1 resumes at 400 over rows 1 and 2. Err is called once on
	// entry, once per slot of round 0 (4), once at the top of round 1
	// (call 6), then once per slot of round 1: call 8 is slot 1's check,
	// after slot 0 of round 1 passed.
	for _, tc := range []struct {
		name       string
		unlink     bool // drop row 1's node, so the resume chunk runs to the end
		cancelAt   int
		wantErr    error
		wantRounds int64
	}{
		{"resume chunk finishes", true, 8, nil, 1},
		{"resume chunk matches an unlaunched slot", false, 8, context.Canceled, 1},
		{"round never starts", false, 6, context.Canceled, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := testList(1200, 5)
			ns := l.nodes()
			r := newRunner(t, l.loop(false), Config{Threads: 4, Options: Options{Adaptive: true}, maxSpec: 100, Executor: heldExecutor(t), depth: 1})
			seedQuarters(r, ns)
			if tc.unlink {
				ns[599].next = ns[601]
			}
			want := l.oracle()
			score := r.ctrl.score
			before := [3]float64{score[indexRow(0)], score[indexRow(1)], score[indexRow(2)]}

			ctx := &scriptedCtx{Context: context.Background(), cancelAt: tc.cancelAt}
			got, rerr := r.Run(ctx, l.head)
			if !errors.Is(rerr, tc.wantErr) || (rerr == nil && got != want) {
				t.Fatalf("Run = %+v, %v; want %+v, %v", got, rerr, want, tc.wantErr)
			}
			st := r.Stats()
			if st.Recoveries != tc.wantRounds || st.SquashedIters != 200 {
				t.Fatalf("the cancel did not land where scripted: %+v", st)
			}
			if st.Hits != 1 || st.Misses != 0 || st.Reclaimed != 1 {
				t.Errorf("Hits %d Misses %d Reclaimed %d; want 1 0 1 (slot 1 of round 0 only)",
					st.Hits, st.Misses, st.Reclaimed)
			}
			if s0 := score[indexRow(0)]; s0 <= before[0] {
				t.Errorf("row 0 confidence %v -> %v; its chunk committed", before[0], s0)
			}
			for k := 1; k < 3; k++ {
				if sk := score[indexRow(k)]; sk != before[k] {
					t.Errorf("row %d confidence %v -> %v; its chunk was never dispatched in round 1 and only a cap artifact in round 0",
						k, before[k], sk)
				}
			}
			checkConservation(t, st, 4, 1)
		})
	}

	// The cell store: cancelled at slot 2's check in round 0's dispatch
	// (call 4), the first invocation of a DOACROSS runner launches slots 0
	// and 1 only, so the views of slots 2 and 3 were never begun. The walk
	// probes the launched views alone; probing the others would read
	// read-sets no chunk of this round filled (here, none at all).
	t.Run("cell store, cancelled in round 0's dispatch", func(t *testing.T) {
		g := cellList(rand.New(rand.NewSource(9)), 1200, "none")
		ns := g.nodes()
		r := newRunner(t, g.loop(false), Config{Threads: 4, Options: Options{Adaptive: true}, Executor: heldExecutor(t)})
		seedQuarters(r, ns)
		score := r.ctrl.score
		before := [3]float64{score[indexRow(0)], score[indexRow(1)], score[indexRow(2)]}

		ctx := &scriptedCtx{Context: context.Background(), cancelAt: 4}
		_, rerr := r.Run(ctx, g.head)
		wantErr(t, rerr, context.Canceled)
		// A failed invocation's round records no verdict, and slots 2 and
		// 3 resolved nothing either way.
		st := r.Stats()
		if st.Conflicts != 0 || st.Hits != 0 || st.Misses != 0 || st.Reclaimed != 0 {
			t.Errorf("Conflicts %d Hits %d Misses %d Reclaimed %d; want all 0",
				st.Conflicts, st.Hits, st.Misses, st.Reclaimed)
		}
		for k := range before {
			if sk := score[indexRow(k)]; sk != before[k] {
				t.Errorf("row %d confidence %v -> %v; the invocation failed", k, before[k], sk)
			}
		}
		// Slots 0 and 1 committed and landed: the store holds the first
		// 600 iterations, as a sequential run cancelled there would.
		g.prefix(600)
		g.checkCells(t, "after the cancel")
		g.exact(t, r)
		checkConservation(t, r.Stats(), 4, 0)
	})
}

var pinnedRounds = map[string]uint64{
	"doacross/dense/t2/cap0/adaptive=false":   0x7524ce717d896b46,
	"doacross/dense/t2/cap0/adaptive=true":    0xdf4896bbff0ef771,
	"doacross/dense/t2/cap300/adaptive=false": 0x5ea54b3842200ffe,
	"doacross/dense/t2/cap300/adaptive=true":  0x3150f5f359136091,
	"doacross/dense/t4/cap0/adaptive=false":   0x03963b18ee390eb6,
	"doacross/dense/t4/cap0/adaptive=true":    0x39b8a2be12f0b6b6,
	"doacross/dense/t4/cap300/adaptive=false": 0x03963b18ee390eb6,
	"doacross/dense/t4/cap300/adaptive=true":  0x39b8a2be12f0b6b6,
	"doacross/dense/t8/cap0/adaptive=false":   0xf0fa3bc5582aa508,
	"doacross/dense/t8/cap0/adaptive=true":    0x56b3ce32c1a73f1e,
	"doacross/dense/t8/cap300/adaptive=false": 0xf0fa3bc5582aa508,
	"doacross/dense/t8/cap300/adaptive=true":  0x56b3ce32c1a73f1e,
	"doacross/none/t2/cap0/adaptive=false":    0xfbcc8429b10f8631,
	"doacross/none/t2/cap0/adaptive=true":     0xfbcc8429b10f8631,
	"doacross/none/t2/cap300/adaptive=false":  0xabb0a69f3b32f8e9,
	"doacross/none/t2/cap300/adaptive=true":   0xabb0a69f3b32f8e9,
	"doacross/none/t4/cap0/adaptive=false":    0x0bc7b21e5c35639b,
	"doacross/none/t4/cap0/adaptive=true":     0x0bc7b21e5c35639b,
	"doacross/none/t4/cap300/adaptive=false":  0x0bc7b21e5c35639b,
	"doacross/none/t4/cap300/adaptive=true":   0x0bc7b21e5c35639b,
	"doacross/none/t8/cap0/adaptive=false":    0x57b75f05ad9a0ca5,
	"doacross/none/t8/cap0/adaptive=true":     0x57b75f05ad9a0ca5,
	"doacross/none/t8/cap300/adaptive=false":  0x57b75f05ad9a0ca5,
	"doacross/none/t8/cap300/adaptive=true":   0x57b75f05ad9a0ca5,
	"doacross/rare/t2/cap0/adaptive=false":    0x1f414002f4b13ba7,
	"doacross/rare/t2/cap0/adaptive=true":     0x1f414002f4b13ba7,
	"doacross/rare/t2/cap300/adaptive=false":  0x41c85472c900e247,
	"doacross/rare/t2/cap300/adaptive=true":   0x41c85472c900e247,
	"doacross/rare/t4/cap0/adaptive=false":    0xffcc05d3fcc71fa6,
	"doacross/rare/t4/cap0/adaptive=true":     0xffcc05d3fcc71fa6,
	"doacross/rare/t4/cap300/adaptive=false":  0xffcc05d3fcc71fa6,
	"doacross/rare/t4/cap300/adaptive=true":   0xffcc05d3fcc71fa6,
	"doacross/rare/t8/cap0/adaptive=false":    0x99c2b28ea57b19b2,
	"doacross/rare/t8/cap0/adaptive=true":     0x99c2b28ea57b19b2,
	"doacross/rare/t8/cap300/adaptive=false":  0x99c2b28ea57b19b2,
	"doacross/rare/t8/cap300/adaptive=true":   0x99c2b28ea57b19b2,
	"list/t2/cap0/adaptive=false":             0x0c21638a4ec2e5fc,
	"list/t2/cap0/adaptive=true":              0x0c21638a4ec2e5fc,
	"list/t2/cap50/adaptive=false":            0x842543760519882d,
	"list/t2/cap50/adaptive=true":             0x842543760519882d,
	"list/t2/cap600/adaptive=false":           0x5879ce67adbe4008,
	"list/t2/cap600/adaptive=true":            0x5879ce67adbe4008,
	"list/t3/cap0/adaptive=false":             0x06d9098d1ce7fd29,
	"list/t3/cap0/adaptive=true":              0x06d9098d1ce7fd29,
	"list/t3/cap50/adaptive=false":            0x327b85be58e04d08,
	"list/t3/cap50/adaptive=true":             0x327b85be58e04d08,
	"list/t3/cap600/adaptive=false":           0x23bbf5d267e905e1,
	"list/t3/cap600/adaptive=true":            0x23bbf5d267e905e1,
	"list/t4/cap0/adaptive=false":             0x3e4b8cfcd2bc9cc2,
	"list/t4/cap0/adaptive=true":              0x3e4b8cfcd2bc9cc2,
	"list/t4/cap50/adaptive=false":            0xf40281ed5870cdb6,
	"list/t4/cap50/adaptive=true":             0xf40281ed5870cdb6,
	"list/t4/cap600/adaptive=false":           0xf2857e1916bbfabd,
	"list/t4/cap600/adaptive=true":            0xf2857e1916bbfabd,
	"list/t8/cap0/adaptive=false":             0x71ac6deff81b1154,
	"list/t8/cap0/adaptive=true":              0x71ac6deff81b1154,
	"list/t8/cap50/adaptive=false":            0xba81ba704760f1e2,
	"list/t8/cap50/adaptive=true":             0x48156c01ee9cfb87,
	"list/t8/cap600/adaptive=false":           0xae766426327f4fbc,
	"list/t8/cap600/adaptive=true":            0xae766426327f4fbc,
}
