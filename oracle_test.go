package spice

// The randomized differential-oracle suite, on the matrix's generator,
// oracle and driver (matrix_test.go): seeded linked lists and threaded
// binary trees mutate between invocations under three regimes —
// predictable (value churn only, the paper's friendly case), drifting
// (gradual structural churn) and adversarial (the entire structure is
// rebuilt from fresh nodes every invocation, so no prediction can ever
// materialize) — and every invocation must equal the sequential oracle,
// with the adaptive controller on and off. The adaptive cases below hold
// the controller to its load shedding and re-expansion on the same
// generator. CI runs this file under -race.

import (
	"fmt"
	"math/rand"
	"path"
	"strings"
	"testing"
)

// oracleList is seed's n-node list of the regime suites.
func oracleList(seed int64, n int) func() *gen {
	return func() *gen { return regimeList(rand.New(rand.NewSource(seed)), n) }
}

// regimeCase is kind's case under a mutation regime: rng(src) draws the
// size in [lo, lo+span), then the structure.
func regimeCase(kind, pattern string, src int64, span, lo int) mcase {
	return mcase{
		build: func() *gen {
			rng := rand.New(rand.NewSource(src))
			return shape(rng, kind, rng.Intn(span)+lo)
		},
		edit: regime(pattern),
	}
}

// regimeSuite runs one subtest per kind × mutation regime × adaptive
// mode, named kind/regime/fixed or kind/regime/adaptive.
func regimeSuite(t *testing.T, kinds []string, body func(t *testing.T, kind, pattern string, adaptive bool)) {
	for _, kind := range kinds {
		for _, pattern := range []string{"predictable", "drifting", "adversarial"} {
			for _, adaptive := range []bool{false, true} {
				mode := "fixed"
				if adaptive {
					mode = "adaptive"
				}
				t.Run(path.Join(kind, pattern, mode), func(t *testing.T) { body(t, kind, pattern, adaptive) })
			}
		}
	}
}

// TestDifferentialOracle is the randomized suite: for every workload
// kind × mutation pattern × adaptive mode × thread count × seed, a
// mutation script runs interleaved with 12 invocations, and every
// invocation's parallel result must equal the sequential oracle, with
// the Stats contract of the block-structured hot loop held by the
// driver: committed iterations conserve exactly (TotalIters equals the
// oracle's summed trip counts — a block-boundary spill that dropped or
// double-counted an iteration would break the equality), every
// invocation is counted, and the verdicts fit the dispatch capacity.
// Every case runs twice, with the loop's block form (Loop.Scan) set and
// stripped, and the two runs' counters must agree after every
// invocation. Every case runs again with its slots pinned to 2 and 4
// chunks each (Config.depth), at widths 2 to 4: the group routine and
// its survivor must commit exactly what one chunk per slot does. A
// narrowed width-2 runner runs through the runner, session and pool
// doors too.
func TestDifferentialOracle(t *testing.T) {
	regimeSuite(t, []string{"list", "tree"}, func(t *testing.T, kind, pattern string, adaptive bool) {
		for _, depth := range []int{0, 2, 4} {
			for _, threads := range []int{2, 3, 4} {
				if depth == 0 && threads == 3 {
					continue
				}
				for seed := int64(1); seed <= 3; seed++ {
					c := regimeCase(kind, pattern, seed*1000+int64(threads), 700, 50)
					c.threads, c.adaptive, c.probe, c.invs, c.depth = threads, adaptive, 3, 12, depth
					st := final(c.twin(t))
					if paired := st.PairedRounds > 0; paired != (depth > 1) {
						t.Fatalf("%v: PairedRounds %d", c, st.PairedRounds)
					}
				}
			}
		}
	})
	// Several chunks a slot through every front door, on lists long
	// enough that a batch item is not shed (Threads × ctxPollEvery
	// iterations): 2 and 4 at widths 1 to 4 (at width 1 the invoker steps
	// its own traversal's chunks, through the doors of one invocation at a
	// time). Depth 2's cases are named paired/door/…, depth 4's
	// paired/d4/door/….
	for _, depth := range []int{2, 4} {
		for _, door := range []string{"runner", "session", "pool", "batch", "submit"} {
			for _, pattern := range []string{"predictable", "drifting"} {
				for threads := 1; threads <= 4; threads++ {
					if threads == 1 && (door == "batch" || door == "submit") {
						continue
					}
					for _, adaptive := range []bool{false, true} {
						name := fmt.Sprintf("paired/%s/%s/t%d/adaptive=%v", door, pattern, threads, adaptive)
						if depth != 2 {
							name = fmt.Sprintf("paired/d%d/%s/%s/t%d/adaptive=%v", depth, door, pattern, threads, adaptive)
						}
						t.Run(name, func(t *testing.T) {
							c := mcase{build: oracleList(int64(threads), 5000), edit: regime(pattern), scan: true,
								door: strings.TrimPrefix(door, "runner"), threads: threads, adaptive: adaptive, probe: 3, invs: 6, depth: depth}
							if door == "batch" || door == "submit" {
								c.wave = 3
							}
							if st := final(c.run(t)); st.PairedRounds == 0 && door != "submit" {
								t.Fatalf("%v: no round was paired", c)
							}
						})
					}
				}
			}
		}
	}
	// A width-2 runner narrowed to width 1 (pairing: width did not pay)
	// through the runner, session and pool doors: its rounds run on the
	// invoker alone, and one in pairRecheck, the width recheck, at width
	// 2 on the rows the narrowed rounds memoized. Named narrowed/door/….
	for _, door := range []string{"runner", "session", "pool"} {
		for _, pattern := range []string{"predictable", "drifting"} {
			for _, adaptive := range []bool{false, true} {
				t.Run(fmt.Sprintf("narrowed/%s/%s/adaptive=%v", door, pattern, adaptive), func(t *testing.T) {
					c := mcase{build: oracleList(2, 5000), edit: regime(pattern), scan: true, door: strings.TrimPrefix(door, "runner"),
						threads: 2, adaptive: adaptive, probe: 3, invs: pairRecheck + 8, narrow: true}
					if st := final(c.run(t)); st.EffectiveThreads != 1 || st.Hits+st.Misses == 0 || st.PairedRounds != 0 {
						t.Fatalf("%v: %s", c, statsLine(st))
					}
				})
			}
		}
	}
	// Lists relinked between invocations, through the runner, session and
	// pool doors, at (1, 4), (2, 2) and (2, 4) chunks: a fifth of the nodes
	// replaced and the rest shuffled, a shuffle, and a drift. The first
	// miss turns set hunting on (Runner.anyStop), so the grouped rounds
	// after it find the chain's order from the list. Named
	// anystop/door/edit.
	for _, door := range []string{"runner", "session", "pool"} {
		for _, edit := range []string{"relinked", "shuffle", "drift"} {
			t.Run(fmt.Sprintf("anystop/%s/%s", door, edit), func(t *testing.T) {
				for _, shape := range [][2]int{{1, 4}, {2, 2}, {2, 4}} {
					c := mcase{build: oracleList(int64(shape[0]*10+shape[1]), 3000), door: strings.TrimPrefix(door, "runner"),
						threads: shape[0], depth: shape[1], probe: 3, invs: 12, edit: regime("drifting")}
					switch edit {
					case "relinked":
						c.edit = each(func(g *gen) { g.heavyChurn(0.2); g.shuffle() })
					case "shuffle":
						c.edit = each((*gen).shuffle)
					}
					c.run(t)
				}
			})
		}
	}
}

// TestAdaptiveFallsBackOnAdversarial asserts the controller's
// load-shedding behaviour, not just correctness: on a fully unstable
// list no prediction ever materializes, so the runner must stop
// speculating (sequential fallbacks accumulate, the gauge drops to 1)
// instead of squashing forever; and on a cell loop whose every chunk
// boundary splits a flow dependence, the conflicts close the rows, and
// each probe that conflicts again doubles the wait before the next, so
// the probes' squashes stay bounded. Either way the fixed-width runner
// on the same script squashes more.
func TestAdaptiveFallsBackOnAdversarial(t *testing.T) {
	fixedSquashesMore := func(t *testing.T, c mcase, st Stats) {
		c.adaptive = false
		if fixed := final(c.run(t)).SquashedIters; fixed <= st.SquashedIters {
			t.Errorf("fixed-width squashed %d !> adaptive squashed %d; the gate saved nothing", fixed, st.SquashedIters)
		}
	}
	t.Run("list", func(t *testing.T) {
		c := mcase{build: oracleList(7, 1200), edit: regime("adversarial"), scan: true, threads: 4, adaptive: true, invs: 40}
		st := final(c.run(t))
		if st.EffectiveThreads != 1 {
			t.Errorf("EffectiveThreads = %d, want 1 after sustained losses", st.EffectiveThreads)
		}
		if st.SequentialFallbacks == 0 {
			t.Error("no sequential fallbacks recorded on a fully unstable workload")
		}
		if st.Misses == 0 {
			t.Error("no misses recorded despite guaranteed mis-speculation")
		}
		fixedSquashesMore(t, c, st)
	})
	t.Run("doacross", func(t *testing.T) {
		c := cellCase(42, 600, "dense", 30)
		c.threads, c.adaptive, c.probe, c.invs = 4, true, 2, 30
		st := final(c.run(t))
		if st.Conflicts == 0 || st.SequentialFallbacks == 0 || st.Misses != 0 {
			t.Errorf("conflicts did not close the rows: %s", statsLine(st))
		}
		// 6 056 is what a probe that only widened 1 → 2 squashed here; a
		// probe of every row at a fixed rate squashed 9 940.
		if st.SquashedIters > 6056 {
			t.Errorf("squashed %d > 6056: the probes re-paid the same conflicts", st.SquashedIters)
		}
		fixedSquashesMore(t, c, st)
	})
}

// TestAdaptiveReexpandsAfterRestabilization drives an adversarial
// phase until the gate has closed every row, then stabilizes the
// structure and asserts probes open the rows again, back to full width
// — with every invocation still matching the oracle.
func TestAdaptiveReexpandsAfterRestabilization(t *testing.T) {
	sts := mcase{build: oracleList(13, 1500), scan: true, threads: 4, adaptive: true, probe: 3, invs: 65,
		edit: func(g *gen, inv int) {
			if inv < 25 {
				g.mutate("adversarial")
			} else {
				g.mutate("predictable") // re-stabilize: structure now fixed
			}
		}}.run(t)
	if eff := sts[24].EffectiveThreads; eff != 1 {
		t.Fatalf("adversarial phase left EffectiveThreads = %d", eff)
	}
	st := final(sts)
	if st.EffectiveThreads != 4 {
		t.Errorf("EffectiveThreads = %d after re-stabilization, want 4", st.EffectiveThreads)
	}
	if st.Hits == 0 {
		t.Error("re-expansion recorded no hits")
	}
	if busy(st.LastWorks) != 4 {
		t.Errorf("last works %v: re-expanded runner not using all chunks", st.LastWorks)
	}

	// A partial gate is re-tested too. Unlinking the node row 1 predicts
	// before two invocations closes rows 1 and 2 while row 0 stays open,
	// so no invocation falls back; the probe clock runs all the same,
	// and within probe+1 stable invocations every slot works again.
	sts = mcase{build: func() *gen { return testList(4000, 17) }, threads: 4, adaptive: true, probe: 3, depth: 1, invs: 9,
		edit: func(g *gen, inv int) {
			if inv == 2 || inv == 3 {
				ns := g.nodes()
				ns[1999].next = ns[2001] // unlink ns[2000], the start row 1 predicts
			}
		}}.run(t)
	if w := sts[5].LastWorks; busy(w) != 2 || w[0] == 0 || w[1] == 0 {
		t.Fatalf("unlinking row 1's node twice left LastWorks %v; the test means rows 1 and 2 closed", w)
	}
	if st := final(sts); busy(st.LastWorks) != 4 || st.SequentialFallbacks != 0 || st.EffectiveThreads != 4 {
		t.Errorf("rows 1 and 2 never re-tested: %s", statsLine(st))
	}
}

// TestAdaptiveTightCapIsNotMisspec guards the cap/misprediction
// distinction: with a cap (maxSpec) far below the chunk span on a stable
// list, every invocation squashes chunks behind the capped leader and
// finishes via recovery — capacity artifacts, not mispredictions. The
// controller must keep full width (and the rows their confidence)
// instead of demoting a perfectly predictable workload to sequential.
func TestAdaptiveTightCapIsNotMisspec(t *testing.T) {
	st := final(mcase{build: oracleList(41, 4000), edit: regime("predictable"), scan: true,
		threads: 4, adaptive: true, maxSpec: 300, probe: 3, invs: 25}.run(t))
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
	st := final(mcase{build: oracleList(21, 2000), edit: regime("predictable"), scan: true,
		threads: 4, adaptive: true, invs: 30}.run(t))
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
