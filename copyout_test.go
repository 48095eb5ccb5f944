package spice

// Tests of the split commit (Runner.landCells): the chain walk
// validates, and the buffered values land afterwards — side by side on
// the cores that filled them when no two committed views stored to one
// cell, in chain order on the invoker otherwise. What must hold either
// way is the sequential result: where chunks of one round store to the
// same cell the logically last writer's value stays, and a failing
// chunk leaves the store as the sequential run would at that iteration.
// CI runs this file under -race at GOMAXPROCS 2 and 8.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"spice/internal/faults"
)

// odNodes is the list length of every test here: at width 4 a chunk's
// disjoint share spans 64 whole blocks, and the store ends in a partial
// block.
const odNodes = 4*64*64 + 40

// odPatterns are the store patterns, as the cell node i writes and the
// store's size. blocks: every chunk rewrites every cell of a small
// store — whole-block copies over one another, and a partial last
// block. single: private cells, written as whole blocks, except that
// every 97th node writes cell 5 — one shared cell among disjoint
// blocks. disjoint: private cells only, the shape whose copies spread.
var odPatterns = []struct {
	name   string
	size   int
	dst    func(i int) int
	shared bool
}{
	{"blocks", 200, func(i int) int { return i % 200 }, true},
	{"single", odNodes, func(i int) int {
		if i%97 == 0 {
			return 5
		}
		return i
	}, true},
	{"disjoint", odNodes, func(i int) int { return i }, false},
}

// odList is the "store" list of a pattern (matrix_test.go): node i
// stores its stamp to the pattern's cell and loads nothing, so no chunk
// ever conflicts and a round commits every chunk it dispatched.
func odList(dst func(int) int, size int) *gen { return storeList(odNodes, size, dst) }

// odRun stamps op's weights and runs op against the runner, checking
// accumulator and store.
func odRun(t *testing.T, r *Runner[*mnode, tally], g *gen, op int) {
	t.Helper()
	g.stamp(op)
	g.exact(t, r)
}

func TestCopyOutOutputDependence(t *testing.T) {
	for _, p := range odPatterns {
		for _, scan := range []bool{false, true} {
			for threads := 2; threads <= 4; threads++ {
				t.Run(fmt.Sprintf("%s/scan=%v/t%d", p.name, scan, threads), func(t *testing.T) {
					st := final(mcase{
						build: func() *gen { g := odList(p.dst, p.size); g.stamp(0); return g },
						edit:  func(g *gen, op int) { g.stamp(op + 1) },
						scan:  scan, threads: threads, invs: 8,
					}.run(t))
					// No cell is loaded, so nothing conflicts: the chunks of a
					// round commit together and their copies meet in landCells.
					if st.Hits < 7 || st.Conflicts != 0 {
						t.Fatalf("hits %d conflicts %d over 7 parallel ops", st.Hits, st.Conflicts)
					}
				})
			}
		}
	}
}

// TestValidateReportsSharedWrites pins the patterns above to what their
// names say, on views armed by hand: validate reports an output
// dependence exactly where two chunks store to one cell (whole blocks,
// or a single cell among disjoint blocks), none for disjoint shares,
// and wrote for every view that stored — but not for one that did not.
func TestValidateReportsSharedWrites(t *testing.T) {
	const threads = 4
	for _, p := range odPatterns {
		g := odList(p.dst, p.size)
		views := make([]CellView, threads)
		for i := range views {
			views[i].begin(g.cells, nil)
		}
		for i, n := range g.nodes() {
			storeStep(n, tally{}, &views[i*threads/odNodes])
		}
		shared := false
		for i := range views {
			end, wrote, out := views[i].validate(views[i+1:])
			if end != threads-1-i {
				t.Fatalf("%s: view %d found a flow conflict in a loop that loads nothing", p.name, i)
			}
			if !wrote {
				t.Fatalf("%s: view %d stored to its share and validate reported wrote=false", p.name, i)
			}
			shared = shared || out
		}
		if shared != p.shared {
			t.Fatalf("%s: validate reported shared=%v", p.name, shared)
		}
		// A view that only loaded has nothing to copy, and so nothing to offer.
		var idle CellView
		idle.begin(g.cells, nil)
		idle.Load(3)
		if _, wrote, out := idle.validate(views); wrote || out {
			t.Fatalf("%s: a view that stored nothing reported wrote=%v shared=%v", p.name, wrote, out)
		}
	}
}

// TestCopyOutReclaimedChunk holds the only worker away (an ExecWorker
// stall on its second or third task: the copy entry of the first
// parallel round, or the chunk entry of the second) while rounds go on:
// the invoker reclaims the chunks and lands every copy itself, and when
// the worker comes back the entry it held is a failed claim.
func TestCopyOutReclaimedChunk(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, p := range odPatterns {
		for _, match := range []int64{2, 3} {
			t.Run(fmt.Sprintf("%s/task%d", p.name, match), func(t *testing.T) {
				g := odList(p.dst, p.size)
				plane := faults.New(faults.Point{Site: faults.ExecWorker, Match: match, Kind: faults.KindStall, Dur: time.Minute})
				r := newRunner(t, g.loop(false), Config{Threads: 2, Faults: plane})
				defer plane.Release()
				op := 0
				for ; op < 12; op++ {
					odRun(t, r, g, op)
					checkIdle(t, &r.lat, op)
				}
				if st := r.Stats(); st.Reclaimed < 6 {
					t.Fatalf("Reclaimed = %d over 12 ops with the worker stalled", st.Reclaimed)
				}
				plane.Release()
				drain(r.exec) // the worker runs the entry it held
				g.checkCells(t, "after the held entry ran")
				for ; op < 20; op++ {
					odRun(t, r, g, op)
					checkIdle(t, &r.lat, op)
				}
			})
		}
	}
}

// TestCopyOutStaleEntry plays a worker that pops slot 1's entry a phase
// late. The worker runs chunk 1; chunk 0 waits at its first node until
// it does (a reclaimed chunk's copy is never offered, and this test is
// about offered ones) and then marks the slot queued, as it is while a
// worker holds an earlier entry, so landCells arms the copy without
// submitting. A goroutine then does what that worker does when it gets
// to the entry — claim and copy — while the invoker is held
// (Runner.copyGate) between arming the copy and its own claim. The
// late entry therefore wins every copy: it lands exactly once, it is
// the current round's, and the invoker's own claim is the failed one.
// An entry run while nothing is armed touches nothing.
//
// Then the real worker is held between chunk 1 and its copy entry (a
// task queued on its shard while it runs the chunk), so the invoker
// takes the offered copy and the copy entry stays queued. The next
// round arms the chunk on that one entry: a slot never has two queued.
func TestCopyOutStaleEntry(t *testing.T) {
	// A processor each for the invoker, the worker and the late entry.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	p := odPatterns[2] // disjoint: the copy is offered
	g := odList(p.dst, p.size)
	var atHead func() // chunk 0's hook at its first node, nil for none
	loop := g.loop(false)
	loop.SpecBody = func(n *mnode, a tally, v *CellView) tally {
		if n == g.head && !v.direct && atHead != nil {
			atHead()
		}
		return storeStep(n, a, v)
	}
	r := newRunner(t, loop, Config{Threads: 2})
	op := 0
	for ; op < 3; op++ {
		odRun(t, r, g, op)
	}
	drain(r.exec) // no real entry of slot 1 is left in the queue
	c := &r.jobs[1]
	workerOwnsChunk := func() {
		for c.claim.Load() != 0 {
			runtime.Gosched()
		}
	}
	atHead = func() {
		workerOwnsChunk()
		c.queued.Store(true) // popped cleared it before the worker's claim
	}

	armed, claimed := make(chan struct{}), make(chan bool)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range armed {
			// chunkJob.run's claim, with the outcome kept. The copy itself
			// runs beside the invoker's copy of view 0.
			c.queued.Store(false)
			won := c.take()
			claimed <- won
			if won {
				c.copy()
			}
		}
	}()
	wins, held := 0, 0
	r.copyGate = func() {
		held++
		armed <- struct{}{}
		if <-claimed {
			wins++
		}
	}
	const rounds = 100
	for ; op < 3+rounds; op++ {
		odRun(t, r, g, op)
		checkIdle(t, &r.lat, op)
		if c.claim.Load() != 0 {
			t.Fatalf("op %d: slot still armed after the round", op)
		}
	}
	r.copyGate = nil
	close(armed)
	<-done
	if held != rounds || wins != rounds {
		t.Fatalf("%d rounds: %d offered a copy, the late entry won %d", rounds, held, wins)
	}
	c.queued.Store(true)
	c.run() // an entry held past its round, run between rounds: a failed claim that only frees the slot
	if c.queued.Load() || c.claim.Load() != 0 {
		t.Fatal("a stale entry run between rounds left the slot queued or armed")
	}
	g.checkCells(t, "after a stale entry between rounds")
	checkIdle(t, &r.lat, op)

	// Hold the worker behind chunk 1: the copy entry queues behind the
	// held task, and the invoker takes the copy.
	hold := &blockTask{started: make(chan struct{}), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(hold.release) })
	defer release() // a failed check must not leave the runner's Close waiting on the worker
	atHead = func() {
		workerOwnsChunk()
		submitTask(r.exec, hold, r.home)
	}
	odRun(t, r, g, op)
	op++
	<-hold.started
	if !c.queued.Load() {
		t.Fatal("the copy entry of a held worker's slot is not queued")
	}
	atHead = nil // the worker stays held: the invoker reclaims the next chunk
	odRun(t, r, g, op)
	op++
	if n := r.queuedEntries(); n > 1 {
		t.Fatalf("%d entries queued for a Threads-2 runner; want the stale copy entry to serve the next chunk", n)
	}
	release()
	drain(r.exec)
	if n := r.queuedEntries(); n != 0 {
		t.Fatalf("%d entries still queued after the worker ran its queue", n)
	}
	g.checkCells(t, "after the held worker's stale entry")
	checkIdle(t, &r.lat, op)
	// The slot is free again: the next rounds submit a real entry.
	for end := op + 5; op < end; op++ {
		odRun(t, r, g, op)
		checkIdle(t, &r.lat, op)
	}
}

// TestCopyOutPartialOnError: a SpecBodyErr failure in chunk k leaves the
// store exactly as the sequential run does — every store up to and
// including the failing iteration's, in order over whatever the earlier
// chunks wrote to the same cells, and nothing behind it.
func TestCopyOutPartialOnError(t *testing.T) {
	for _, p := range odPatterns {
		for threads := 1; threads <= 4; threads++ {
			for k := 0; k < threads; k++ {
				t.Run(fmt.Sprintf("%s/t%d/chunk%d", p.name, threads, k), func(t *testing.T) {
					g := odList(p.dst, p.size)
					failAt := g.nodes()[k*odNodes/threads+odNodes/(2*threads)] // mid-chunk k
					var arm bool
					loop := g.loop(false)
					loop.SpecBody = nil
					loop.SpecBodyErr = func(n *mnode, a tally, v *CellView) (tally, error) {
						a = storeStep(n, a, v)
						if arm && n == failAt {
							return a, errBoom
						}
						return a, nil
					}
					r := newRunner(t, loop, Config{Threads: threads})
					op := 0
					for ; op < 3; op++ {
						odRun(t, r, g, op)
					}
					arm = true
					g.stamp(op)
					g.prefix(k*odNodes/threads + odNodes/(2*threads) + 1)
					_, rerr := r.Run(context.Background(), g.head)
					checkExit(t, rerr, "error")
					g.checkCells(t, "after the failing op")
					arm = false
					for op++; op < 6; op++ {
						odRun(t, r, g, op)
					}
				})
			}
		}
	}
}

// TestTailRoundOfOneRunsDirect: behind a capped last chunk no row is
// left ahead, so the invocation's last round is slot 0 alone, on a
// direct view — the same view a buffered round armed a moment earlier,
// its bitmap still naming every cell ("blocks": every chunk stores to
// all 200) with that round's values beside it. validate and copyOut
// must pass a direct view by: by hand first, then over whole
// invocations, where after every op the accumulator and every cell
// equal the plain loop's.
func TestTailRoundOfOneRunsDirect(t *testing.T) {
	c := NewCells(130)
	var v, later CellView
	v.begin(c, nil)
	for i := 0; i < c.Size(); i++ {
		v.Store(i, 7) // squashed: never copied out, but the bitmap is full
	}
	later.begin(c, nil)
	later.Load(3)
	v.beginDirect(c, nil)
	v.Store(3, 9)
	if end, wrote, shared := v.validate([]CellView{later}); end != 1 || wrote || shared {
		t.Fatalf("a direct view validated the previous arm's write-set: end %d wrote %v shared %v", end, wrote, shared)
	}
	v.copyOut()
	want := make([]int64, c.Size())
	want[3] = 9
	assertCellsEqual(t, "a direct view copied out the previous arm's buffer", c, want)

	p := odPatterns[0] // blocks
	for _, scan := range []bool{false, true} {
		for threads := 2; threads <= 4; threads++ {
			t.Run(fmt.Sprintf("scan=%v/t%d", scan, threads), func(t *testing.T) {
				g := odList(p.dst, p.size)
				r := newRunner(t, g.loop(scan), Config{Threads: threads, maxSpec: 1000})
				for op := 0; op < 8; op++ {
					before := r.Stats().Recoveries
					odRun(t, r, g, op)
					// Op 0 has nothing predicted and is a round of one outright.
					if rounds := r.Stats().Recoveries - before; (op > 0 && rounds == 0) || !r.views[0].direct {
						t.Fatalf("op %d: %d later rounds, last view of slot 0 direct=%v; want a direct tail behind a capped chunk",
							op, rounds, r.views[0].direct)
					}
				}
			})
		}
	}
}
