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
			if !rows[indexRow(0)].valid || rows[indexRow(0)].start != n/4 {
				t.Fatalf("rows %+v after the warm-up", rows)
			}
			rows[indexRow(1)].start, rows[indexRow(2)].start = rows[indexRow(0)].start, 0
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
				checkDepths(t, r, fmt.Sprintf("%s inv %d", tc.name, inv))
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

// TestEveryRelink runs set rounds over every relink of a small list, the
// small-scope check of the protocol. The list is m ≤ 6 blocks, chunk c's
// predicted start on block c's first node, and a relink keeps block 0
// and any of the others in any order (a dropped block's start is dead;
// a start at the head is chunk 0's). A (1, D) runner hunts the set at
// D = 2 and 4, its rows read in index order (one chunk a lane) or as a
// set invocation's (2·D chunks on D lanes: refill), under the derived
// cap, a cap of 1, of a short block (exactly on the next start) and of
// two; with no failure, or a BodyErr on the second node of one block (or
// a panic there, under the derived cap). The last block of a list of
// three or more is longer than a poll interval, so a chunk it starts is
// still running when an earlier chunk fails. Every invocation must equal
// the oracle, result or error, and keep the accounting identities; at
// width 1, where the order of the lanes is fixed, one without failure
// judges each row once, a miss exactly for a dead start and for a start
// on the head, and its chunks first run their starts in index order. A
// sample of the same cases runs at (2, D), where the executor orders the
// lanes. The extra cases are the shapes only a set round meets.
func TestEveryRelink(t *testing.T) {
	const short, long = 4, ctxPollEvery + 100
	errTrap := errors.New("trapped")
	var trap, head *mnode
	var panics bool
	// firsts lists the chunks whose start the body first ran, in the
	// order it did (of the starts that are a block's first node, src the
	// block's number):
	// chunk c runs its start first at its first iteration, and each
	// slot's lanes step in index order and open its chunks in index order.
	var firsts []int
	var ran [8]bool
	record := false // at width 1 only: one goroutine runs every chunk
	loop := plainLoop()
	loop.Body, loop.BodyErr = nil, func(n *mnode, a tally) (tally, error) {
		if record && n.src > 0 && n != head && !ran[n.src] {
			ran[n.src], firsts = true, append(firsts, n.src)
		}
		if n == trap {
			if panics {
				panic(errTrap)
			}
			return a, errTrap
		}
		return a.visit(n.w), nil
	}
	// blocks builds m blocks of linked nodes, the last longer when m > 2.
	blocks := func(m int) [][]*mnode {
		bs := make([][]*mnode, m)
		w := int64(0)
		for b := range bs {
			n := short
			if b == m-1 && m > 2 {
				n = long
			}
			for i := range n {
				w++
				bs[b] = append(bs[b], &mnode{w: w * w % 1009, src: -1})
				if i > 0 {
					bs[b][i-1].next = bs[b][i]
				}
			}
			bs[b][0].src = b
		}
		return bs
	}
	// link makes order the list, each dropped block's tail pointing at
	// stale (nil: the dead start runs its block and ends), and returns
	// the head and every block's start but block 0's.
	link := func(bs [][]*mnode, order []int, stale *mnode) (*mnode, []*mnode) {
		var starts []*mnode
		for b := range bs {
			bs[b][len(bs[b])-1].next = stale
			if b > 0 {
				starts = append(starts, bs[b][0])
			}
		}
		for i, b := range order {
			tail := bs[b][len(bs[b])-1]
			if tail.next = nil; i+1 < len(order) {
				tail.next = bs[order[i+1]][0]
			}
		}
		return bs[order[0]][0], starts
	}
	// run runs one invocation from head with chunk c's start at
	// starts[c-1], checked against the oracle; with no trap on the list it
	// also checks that exactly dead rows missed.
	run := func(t *testing.T, r *Runner[*mnode, tally], fine bool, from *mnode, starts []*mnode, dead int, tag string) {
		t.Helper()
		head, firsts, ran, record = from, firsts[:0], [8]bool{true, true, true, true, true, true, true, true}, r.cfg.Threads == 1
		for _, s := range starts {
			ran[max(s.src, 0)] = s.src <= 0 // only the starts that are a block's first node
		}
		r.reset()
		seedStarts(r, fine, starts)
		var want tally
		trapped := false
		for n := head; n != nil; n = n.next {
			if trapped = n == trap; trapped {
				break
			}
			want = want.visit(n.w)
		}
		before := r.Stats()
		got, err := r.Run(context.Background(), head)
		switch {
		case !trapped:
			if err != nil || got != want {
				t.Fatalf("%s: Run = %+v, %v; want %+v", tag, got, err, want)
			}
			if !record {
				break
			}
			if st := r.Stats().Delta(before); st.Misses != int64(dead) || st.Hits+st.Misses != int64(len(starts)) {
				t.Fatalf("%s: %d dead of %d rows: %s", tag, dead, len(starts), statsLine(st))
			}
			if !slices.IsSorted(firsts) {
				t.Fatalf("%s: chunks first ran their starts in the order %v", tag, firsts)
			}
		case panics:
			if pe := wantPanic(t, err); pe.Value != errTrap {
				t.Fatalf("%s: panic %v, want %v", tag, pe.Value, errTrap)
			}
		case err != errTrap:
			t.Fatalf("%s: err %v, want %v", tag, err, errTrap)
		}
		checkConservation(t, r.Stats(), r.cfg.Threads, r.cfg.depth)
	}
	type shape struct {
		threads, depth int
		fine           bool
	}
	shapes := []shape{{1, 2, false}, {1, 4, false}, {1, 2, true}, {1, 4, true}, {2, 2, false}, {2, 4, false}, {2, 2, true}, {2, 4, true}}
	// chunks is the most chunks a round of the shape's grid carries.
	chunks := func(sh shape) int {
		if sh.fine {
			return setFanout * sh.threads * sh.depth
		}
		return sh.threads * sh.depth
	}
	t.Run("enumerated", func(t *testing.T) {
		cases := 0
		for _, sh := range shapes {
			// Every case at width 1, every 8th at width 2, where the
			// executor orders the lanes; under the race detector every
			// 32nd and every 64th.
			every := 1
			if sh.threads > 1 {
				every = 8
			}
			if raceEnabled {
				every = 32 * sh.threads
			}
			r := newRunner(t, loop, Config{Threads: sh.threads, depth: sh.depth})
			// Round 0 carries more chunks than slots: a set round.
			for m := sh.threads + 1; m <= min(chunks(sh), 6); m++ {
				bs := blocks(m)
				forEachRelink(m, func(order []int) {
					head, starts := link(bs, order, nil)
					dead := len(bs) - len(order) + b2i(order[0] != 0)
					for _, cap := range []int64{0, 1, short, 2 * short} {
						r.cfg.maxSpec = cap
						for f := -1; f < len(order); f++ {
							for _, p := range []bool{false, true} {
								if p && (f < 0 || cap != 0) {
									continue // a panic records its stack: only under the derived cap
								}
								if cases++; cases%every != 0 {
									continue
								}
								trap, panics = nil, p
								if f >= 0 {
									trap = bs[order[f]][1]
								}
								run(t, r, sh.fine, head, starts, dead,
									fmt.Sprintf("%+v order %v cap %d trap in block %d (panic %v)", sh, order, cap, f, p))
							}
						}
					}
				})
			}
		}
		trap = nil
	})
	// The cases below are the only shapes a set round has: a start kept by
	// two rows, a start on the list's last node, a dead start whose stale
	// tail cycles off the list or re-enters it anywhere, a list that cycles
	// back into the chunks walked, and a set round of two chunks on one
	// lane's slot, whose second chunk's window is its own start.
	t.Run("two starts on one node", func(t *testing.T) {
		for _, sh := range shapes[1:4] {
			r := newRunner(t, loop, Config{Threads: sh.threads, depth: sh.depth})
			bs := blocks(4)
			head, starts := link(bs, []int{0, 1, 2, 3}, nil)
			starts[2] = starts[1] // chunk 3 starts where chunk 2 does: the set keeps it for chunk 2
			run(t, r, sh.fine, head, starts, 1, fmt.Sprintf("%+v", sh))
		}
	})
	t.Run("start on the last node", func(t *testing.T) {
		for _, sh := range shapes[1:4] {
			r := newRunner(t, loop, Config{Threads: sh.threads, depth: sh.depth})
			bs := blocks(4)
			head, starts := link(bs, []int{0, 1, 2, 3}, nil)
			starts[1] = bs[3][len(bs[3])-1] // chunk 2 starts on the last node, met by chunk 3
			run(t, r, sh.fine, head, starts, 0, fmt.Sprintf("%+v", sh))
		}
	})
	t.Run("stale links", func(t *testing.T) {
		for _, sh := range shapes[1:4] {
			r := newRunner(t, loop, Config{Threads: sh.threads, depth: sh.depth})
			for _, cap := range []int64{0, short} {
				r.cfg.maxSpec = cap
				bs := blocks(4)
				// Block 1 is dropped; its tail points back at itself (a
				// cycle off the list, spun until the cap) or at any node of
				// the list.
				stales := []*mnode{bs[1][0]}
				for _, b := range []int{0, 2, 3} {
					stales = append(stales, bs[b][:short]...)
				}
				for _, stale := range stales {
					head, starts := link(bs, []int{0, 3, 2}, nil)
					bs[1][short-1].next = stale
					run(t, r, sh.fine, head, starts, 1, fmt.Sprintf("%+v cap %d stale tail to weight %d", sh, cap, stale.w))
				}
			}
		}
	})
	t.Run("cycle", func(t *testing.T) {
		// The list's tail points back at block 1's start: the traversal
		// never ends, and the walk meets a chunk it has walked. Rounds go
		// on from there until the context is cancelled.
		for _, sh := range shapes[1:4] {
			r := newRunner(t, loop, Config{Threads: sh.threads, depth: sh.depth})
			bs := blocks(4)
			head, starts := link(bs, []int{0, 1, 2, 3}, nil)
			bs[3][len(bs[3])-1].next = bs[1][0]
			seedStarts(r, sh.fine, starts)
			if _, err := r.Run(&scriptedCtx{Context: context.Background(), cancelAt: 40}, head); err != context.Canceled {
				t.Fatalf("%+v: err %v, want %v", sh, err, context.Canceled)
			}
			checkConservation(t, r.Stats(), 1, sh.depth)
		}
	})
	t.Run("own-start window", func(t *testing.T) {
		// Index grid at D = 2: a set round of two chunks on the one slot.
		// The set is chunk 1's start alone, which never stops chunk 1: it
		// runs its block to the end, as chunk 0 meets its start.
		r := newRunner(t, loop, Config{Threads: 1, depth: 2})
		bs := blocks(2)
		head, starts := link(bs, []int{0, 1}, nil)
		run(t, r, false, head, starts, 0, "D 2")
		if st := r.Stats(); st.PairedRounds != 1 || st.Recoveries != 0 || st.Hits != 1 {
			t.Fatalf("%s", statsLine(st))
		}
	})
}

// forEachRelink calls f with every order of every subset of the blocks
// 0..m-1 that keeps block 0. f must not keep the slice.
func forEachRelink(m int, f func(order []int)) {
	order, used := make([]int, 0, m), make([]bool, m)
	var grow func()
	grow = func() {
		if used[0] {
			f(order)
		}
		for b := range m {
			if !used[b] {
				used[b], order = true, append(order, b)
				grow()
				used[b], order = false, order[:len(order)-1]
			}
		}
	}
	grow()
}

// seedStarts gives a runner that hunts the set the rows a bootstrap
// memoizes, read as a set invocation's (fine) or in index order: chunk
// c's predicted start at starts[c-1], on the rows its next round reads
// at its pinned depth.
func seedStarts(r *Runner[*mnode, tally], fine bool, starts []*mnode) {
	r.pred.fine = fine
	memos := make([]memo[*mnode], len(starts))
	for k, s := range starts {
		memos[k] = memo[*mnode]{row: r.pred.step()*(k+1) - 1, state: s, pos: int64(k + 1)}
	}
	r.pred.apply(int64(len(starts)+1), memos)
	r.anyStop = true
}
