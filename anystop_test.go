package spice

// Rounds that hunt the set (Runner.anyStop, seed): every lane of a round
// that steps chains in groups stops at the first of the round's predicted
// starts it meets, and the walk follows the links from chunk 0, so a
// chain whose starts the list has reordered still commits in list order.
// The edge cases script the order on a list of four quarters, chunk c
// starting quarter c (seedQuarters), relinked in the order a case names.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"
)

// quarters relinks l's nodes ns (in their original order) as their four
// quarters in the order given, leaving out the nodes in drop: a runner
// seeded by seedQuarters over ns runs chunk c from quarter c's first
// node, so the order is the chain order the walk must find.
func quarters(l *gen, ns []*mnode, order []int, drop ...*mnode) {
	q, out := len(ns)/4, []*mnode(nil)
	for _, c := range order {
		for _, n := range ns[c*q : (c+1)*q] {
			if !slices.Contains(drop, n) {
				out = append(out, n)
			}
		}
	}
	l.relink(out)
}

// huntingRunner is a runner of cfg over loop with its rows at ns's
// quarters, hunting the set from its next invocation on.
func huntingRunner(t *testing.T, loop Loop[*mnode, tally], cfg Config, ns []*mnode) *Runner[*mnode, tally] {
	r := newRunner(t, loop, cfg)
	seedQuarters(r, ns)
	r.anyStop = true
	return r
}

func TestAnyStop(t *testing.T) {
	shapes := []Config{{Threads: 1, depth: 4}, {Threads: 2, depth: 2}}
	// A chunk whose start the relink left out is never reached: it is
	// squashed, its row missed, and the chunks around it link past it.
	t.Run("dead", func(t *testing.T) {
		for _, cfg := range shapes {
			l := testList(1200, 3)
			ns := l.nodes()
			r := huntingRunner(t, l.loop(false), cfg, ns)
			quarters(l, ns, []int{0, 3, 1, 2}, ns[600])
			l.exact(t, r)
			if st := r.Stats(); st.Hits != 2 || st.Misses != 1 || st.SquashedIters != 300 {
				t.Fatalf("%+v: %s", cfg, statsLine(st))
			}
			checkConservation(t, r.Stats(), cfg.Threads, cfg.depth)
		}
	})
	// Two rows of one start (an int index), and a row at chunk 0's own
	// start: the set keeps the start once, for the lowest chunk, so the
	// duplicates stop where they start, or run chunk 0's stretch, and are
	// squashed.
	t.Run("duplicate", func(t *testing.T) {
		const n = 4000
		loop := Loop[int, int64]{
			Done:  func(i int) bool { return i >= n },
			Next:  func(i int) int { return i + 1 },
			Body:  func(i int, a int64) int64 { return a + int64(i*i%1009) },
			Init:  func() int64 { return 0 },
			Merge: func(a, b int64) int64 { return a + b },
		}
		want := int64(0)
		for i := range n {
			want += int64(i * i % 1009)
		}
		for _, cfg := range shapes {
			r := newRunner(t, loop, cfg)
			for range 2 {
				r.MustRun(0)
			}
			rows := r.pred.rows
			if !rows[0].valid || rows[0].start != n/4 {
				t.Fatalf("rows %+v after the warm-up", rows)
			}
			rows[1].start, rows[2].start = rows[0].start, 0
			r.anyStop = true
			before := r.Stats()
			if got := r.MustRun(0); got != want {
				t.Fatalf("%+v: %d, want %d", cfg, got, want)
			}
			if st := r.Stats().Delta(before); st.Hits != 1 || st.Misses != 2 || st.SquashedIters != n/4 {
				t.Fatalf("%+v: %s", cfg, statsLine(st))
			}
		}
	})
	// Chunk 1's quarter comes last: it reaches Done meeting nothing, and
	// every other chunk met a start that is not its index successor's.
	t.Run("done", func(t *testing.T) {
		for _, cfg := range shapes {
			l := testList(1200, 4)
			ns := l.nodes()
			r := huntingRunner(t, l.loop(false), cfg, ns)
			quarters(l, ns, []int{0, 2, 3, 1})
			l.exact(t, r)
			if st := r.Stats(); st.Hits != 3 || st.Misses != 0 || st.SquashedIters != 0 || busy(st.LastWorks) != cfg.Threads {
				t.Fatalf("%+v: %s", cfg, statsLine(st))
			}
		}
	})
	// Chunk 3, met first, caps at 100 iterations: the next round goes on
	// from its stop state over the rows no walk has reached, and so on
	// until the traversal ends; no row is missed. At 300 it caps exactly
	// on chunk 1's start, where the next round begins: chunk 1 is a hit
	// there, as in index order, not a chunk that reruns chunk 0's stretch.
	t.Run("capped", func(t *testing.T) {
		for _, cfg := range shapes {
			for _, at := range []int64{100, 300} {
				cfg.maxSpec = at
				l := testList(1200, 5)
				ns := l.nodes()
				r := huntingRunner(t, l.loop(false), cfg, ns)
				quarters(l, ns, []int{0, 3, 1, 2})
				l.exact(t, r)
				if st := r.Stats(); st.Recoveries < 2 || st.Misses != 0 || st.Hits != 3 {
					t.Fatalf("%+v: %s", cfg, statsLine(st))
				}
				checkConservation(t, r.Stats(), cfg.Threads, cfg.depth)
			}
		}
	})
	// Cancelled at slot 1's check in dispatch (call 3: one on entry, one
	// per slot), so chunks 2 and 3 never start: a link to chunk 2 fails
	// the invocation with the ctx error, and a walk that ends on chunk 1
	// commits. Neither judges an unlaunched row.
	t.Run("cancelled", func(t *testing.T) {
		for _, tc := range []struct {
			name    string
			order   []int
			drop    []int
			wantErr error
			hits    int64
		}{
			{"link to an unlaunched chunk", []int{0, 2, 1, 3}, nil, context.Canceled, 0},
			{"walk ends on a launched chunk", []int{0, 1, 2, 3}, []int{2, 3}, nil, 1},
		} {
			t.Run(tc.name, func(t *testing.T) {
				l := testList(1200, 6)
				ns := l.nodes()
				r := huntingRunner(t, l.loop(false), Config{Threads: 2, depth: 2, Executor: heldExecutor(t)}, ns)
				var drop []*mnode
				for _, c := range tc.drop {
					drop = append(drop, ns[c*300])
				}
				quarters(l, ns, tc.order, drop...)
				want := l.oracle()
				got, err := r.Run(&scriptedCtx{Context: context.Background(), cancelAt: 3}, l.head)
				if !errors.Is(err, tc.wantErr) || err == nil && got != want {
					t.Fatalf("Run = %+v, %v; want %+v, %v", got, err, want, tc.wantErr)
				}
				if st := r.Stats(); st.Hits != tc.hits || st.Misses != 0 {
					t.Fatalf("%s", statsLine(st))
				}
			})
		}
	})
	// A failure in chunk 1, early in its quarter, and one in chunk 3,
	// which comes first in the list but fails later in its own: the
	// invocation returns chunk 3's, the sequential failure. A barrier
	// lowered to chunk 1's index would stop chunk 3 at its first poll, and
	// the walk would meet errChunkAborted before any real failure.
	for _, exit := range []string{"error", "panic"} {
		t.Run(exit, func(t *testing.T) {
			for _, cfg := range shapes {
				l := testList(8000, 7)
				ns := l.nodes()
				first, second := errors.New("chunk 3's failure"), errors.New("chunk 1's failure")
				trap := map[*mnode]error{ns[6000+3*ctxPollEvery/2]: first, ns[2000+10]: second}
				loop := plainLoop()
				loop.Body, loop.BodyErr = nil, func(n *mnode, a tally) (tally, error) {
					if err := trap[n]; err != nil {
						if exit == "panic" {
							panic(err)
						}
						return a, err
					}
					return a.visit(n.w), nil
				}
				r := huntingRunner(t, loop, cfg, ns)
				quarters(l, ns, []int{0, 3, 1, 2})
				_, err := r.Run(context.Background(), l.head)
				if exit == "panic" {
					if pe := wantPanic(t, err); pe.Value != first {
						t.Fatalf("%+v: panic %v, want %v", cfg, pe.Value, first)
					}
				} else if err != first {
					t.Fatalf("%+v: err %v, want %v", cfg, err, first)
				}
			}
		})
	}
}

// TestAnyStopCounters holds set hunting to its counters, which no clock
// moves: on a list relinked before every invocation it commits what the
// chain found where the index order would have broken; on lists that keep
// their order it never engages and every counter reads as before it
// existed; and after one shuffle of a list that then keeps its order the
// rows heal to an even split.
func TestAnyStopCounters(t *testing.T) {
	t.Run("relinked", func(t *testing.T) {
		// Index order on the same runs: hits 84 of 172, 60.4 % of the
		// committed iterations squashed. Hunting the set without refill
		// read hits 154 of 188 and 16.8 %; with it, 346 of 423 and 19.3 %:
		// twice the chunks, each a start that may have died.
		rl := newRelinked(5, 100_000)
		r := newRunner(t, benchLoop(), Config{Threads: 1, depth: 4})
		for range 64 {
			r.MustRun(rl.next())
		}
		st := r.Stats()
		hit, squashed := float64(st.Hits)/float64(st.Hits+st.Misses), float64(st.SquashedIters)/float64(st.TotalIters)
		if hit < 0.75 || squashed >= 0.3 {
			t.Fatalf("hit ratio %.3f, squashed share %.3f: %s", hit, squashed, statsLine(st))
		}
	})
	t.Run("stable", func(t *testing.T) {
		// Each list and shape's counters over 12 invocations, hashed as
		// TestRoundCountersPinned does, as they read before rounds could
		// hunt the set.
		for _, tc := range []struct {
			name string
			head *mnode
			cfg  Config
			pin  uint64
		}{
			{"bench/t1d4", benchList(5, 100_000), Config{Threads: 1, depth: 4}, 0x97cc6968459383ee},
			{"bench/t2d2", benchList(5, 100_000), Config{Threads: 2, depth: 2}, 0x87c084dfb3197e45},
			{"bench/t2d4", benchList(5, 100_000), Config{Threads: 2, depth: 4}, 0xfb7056a987196d6f},
			{"scattered/t1d4", scatteredList(5, 200_000), Config{Threads: 1, depth: 4}, 0x204d398588b6dfb0},
			{"scattered/t2d2", scatteredList(5, 200_000), Config{Threads: 2, depth: 2}, 0xc224c77fb1055abb},
			{"scattered/t2d4", scatteredList(5, 200_000), Config{Threads: 2, depth: 4}, 0xb96f8ac381a6198f},
		} {
			r := newRunner(t, benchLoop(), tc.cfg)
			h := fnv.New64a()
			for inv := range 12 {
				r.MustRun(tc.head)
				if r.anyStop {
					t.Fatalf("%s: hunting the set after invocation %d", tc.name, inv)
				}
				h.Write([]byte(statsLine(r.Stats()) + "\n"))
			}
			if got := h.Sum64(); got != tc.pin {
				t.Errorf("%s: %#016x, pinned %#016x", tc.name, got, tc.pin)
			}
		}
	})
	t.Run("heal", func(t *testing.T) {
		// A value-churned list, shuffled once after the warm-up: the first
		// invocation after it breaks the index order and turns set hunting
		// on, and by the third the rows split the list evenly again.
		g := testList(40_000, 9)
		r := newRunner(t, g.loop(false), Config{Threads: 1, depth: 4})
		g.warm(t, r, 3)
		g.shuffle()
		var largest int64
		for range 3 {
			g.churnValues(100)
			g.exact(t, r)
			largest = 0
			for _, l := range r.jobs[0].lanes {
				if l.seen {
					largest = max(largest, l.work)
				}
			}
		}
		if !r.anyStop || 4*largest > 3*40_000/2 {
			t.Fatalf("hunting %v, largest chunk %d of 40000 in 4: %s", r.anyStop, largest, statsLine(r.Stats()))
		}
	})
}

// TestRefill holds a round that hunts the set to its lanes: on a list
// relinked before every invocation, a (1, 4) runner's set rounds carry
// setFanout·4 chunks on 4 lanes, a lane that stops takes the slot's next
// chunk, and the busiest lane's steps, in the median invocation, stay
// under 0.45 of the trip count. (With one chunk a lane the longest chunk
// read 0.52 on the same runs; random cuts put it near 0.5.) The steps
// are counted, not timed: a lane's are the works of the chunks it ran,
// and exec hands each chunk, in index order, to the lane that stops
// first. At (2, 2) both slots refill at once, one of them on a worker.
func TestRefill(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		n    int
		less float64 // the median invocation's busiest lane, as a share of the trip count, is below it (0: not checked)
	}{
		{Config{Threads: 1, depth: 4}, 100_000, 0.45},
		{Config{Threads: 2, depth: 2}, 20_000, 0},
	} {
		rl := newRelinked(5, tc.n)
		r := newRunner(t, benchLoop(), tc.cfg)
		var shares []float64
		for range 32 {
			head := rl.next()
			var want int64
			for at := head; at != nil; at = at.next {
				want += at.w
			}
			before := r.Stats()
			if got := r.MustRun(head); got != want {
				t.Fatalf("%+v: sum %d, want %d", tc.cfg, got, want)
			}
			st, j := r.Stats().Delta(before), &r.jobs[0]
			if st.Recoveries > 0 || j.width <= j.depth {
				continue // the lanes hold a later round's chunks, or the round had one chunk a lane
			}
			lanes := make([]int64, j.depth)
			for _, l := range j.lanes[:j.width] {
				lanes[slices.Index(lanes, slices.Min(lanes))] += l.work
			}
			shares = append(shares, float64(slices.Max(lanes))/float64(tc.n))
		}
		if len(shares) < 16 {
			t.Fatalf("%+v: %d of 32 invocations ran a set round of more chunks than lanes: %s", tc.cfg, len(shares), statsLine(r.Stats()))
		}
		slices.Sort(shares)
		if med := shares[len(shares)/2]; tc.less > 0 && med >= tc.less {
			t.Fatalf("%+v: busiest lane %.3f of the trip count in the median invocation: %.3f", tc.cfg, med, shares)
		}
	}
}

// TestSuiteStaysFlat holds the constraint every pinned counter of the
// suite rests on: no structure the suite's derived runners run is long
// enough (8192 iterations a slot, pairing.timed) for the shape policy to
// time it, so none pairs, climbs, narrows or runs a set round, at any
// GOMAXPROCS. The control is a list that is: newRelinked at (1, 4) runs
// set rounds of more chunks than lanes.
func TestSuiteStaysFlat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type structure struct {
		name  string
		build func() *gen
		edit  func(*gen, int)
	}
	var structures []structure
	for _, kind := range []string{"list", "tree"} {
		for _, pattern := range []string{"predictable", "drifting", "adversarial"} {
			c := regimeCase(kind, pattern, 1004, 700, 50)
			structures = append(structures, structure{kind + "/" + pattern, c.build, c.edit})
		}
	}
	for _, n := range []int{1200, 3000, 5000} {
		structures = append(structures,
			structure{fmt.Sprintf("list%d/drifting", n), oracleList(int64(n), n), regime("drifting")},
			structure{fmt.Sprintf("list%d/relinked", n), oracleList(int64(n), n), each(func(g *gen) { g.heavyChurn(0.2); g.shuffle() })})
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, st := range structures {
			for _, threads := range []int{1, 2, 4} {
				g := st.build()
				r := newRunner(t, g.loop(false), Config{Threads: threads, Options: Options{Adaptive: threads > 1}})
				for inv := range 12 {
					if got, want := r.MustRun(g.head), g.oracle(); got != want {
						t.Fatalf("GOMAXPROCS %d %s t%d inv %d: got %+v want %+v", procs, st.name, threads, inv, got, want)
					}
					st.edit(g, inv)
				}
				if s := r.Stats(); s.PairedRounds != 0 || r.pairing.top != 1 || r.pairing.narrow {
					t.Fatalf("GOMAXPROCS %d %s t%d: shape (%d, %d) narrowed %v: %s", procs, st.name, threads,
						r.width(), r.pairing.top, r.pairing.narrow, statsLine(s))
				}
			}
		}
	}
	t.Run("control", func(t *testing.T) {
		rl := newRelinked(5, 100_000)
		r := newRunner(t, benchLoop(), Config{Threads: 1, depth: 4})
		for range 8 {
			if r.MustRun(rl.next()); r.jobs[0].width > r.jobs[0].depth {
				return
			}
		}
		t.Fatalf("no set round of more chunks than lanes in 8 invocations: %s", statsLine(r.Stats()))
	})
}
