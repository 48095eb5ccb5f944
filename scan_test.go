package spice

// Tests for the contract of Loop.Scan, the block form of the loop:
// construction-time validation, contract breaks surfacing as ErrBadScan,
// and blocks that hunt nothing on a loop whose zero state is live. Panic
// containment is in block_test.go, the differential suites in
// oracle_test.go, rounds_test.go, fuzz_test.go and scan_oracle_test.go.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// hookedScan is the plain loop with its block form set; hook, when
// non-nil, runs before every node and may end the block in Scan's place
// (k is the count so far).
func hookedScan(hook func(n *mnode, a tally, k, lim int64) (*mnode, tally, int64, bool)) Loop[*mnode, tally] {
	l := plainLoop()
	l.Scan = func(n *mnode, a tally, _ *CellView, stop *mnode, lim int64) (*mnode, tally, int64) {
		var k int64
		for ; k < lim && n != nil && n != stop; k++ {
			if hook != nil {
				if rn, ra, rk, taken := hook(n, a, k, lim); taken {
					return rn, ra, rk
				}
			}
			a, n = a.visit(n.w), n.next
		}
		return n, a, k
	}
	return l
}

// squashedTrap bootstraps a width-4 runner of loop over a 40 000-node
// list, then unlinks the six nodes from the second speculative chunk's
// predicted start on (position 16384), which stay linked into the rest
// of the list: that chunk still runs, from a node the traversal no
// longer reaches, so it and the chunk after it are squashed. With the
// trap armed at a node only that chunk visits, the invocation must be
// exact: whatever the trap did is discarded with the chunk.
func squashedTrap(t *testing.T, loop Loop[*mnode, tally], armed *atomic.Bool, at *atomic.Pointer[mnode]) {
	t.Helper()
	g, ns := blockList(40_000)
	r := newRunner(t, loop, Config{Threads: 4, depth: 1})
	r.MustRun(g.head)
	ns[16383].next = ns[16390]
	at.Store(ns[16386])
	armed.Store(true)
	g.exact(t, r)
	armed.Store(false)
	if st := r.Stats(); st.Misses == 0 {
		t.Fatalf("no chunk was squashed: %+v", st)
	}
}

func TestScanValidation(t *testing.T) {
	scan := hookedScan(nil).Scan
	base := plainLoop()
	base.Body = nil
	for _, tc := range []struct {
		name string
		set  func(l *Loop[*mnode, tally])
		ok   bool
	}{
		{"Body", func(l *Loop[*mnode, tally]) { l.Body = func(n *mnode, a tally) tally { return a } }, true},
		{"SpecBody", func(l *Loop[*mnode, tally]) { l.SpecBody = func(n *mnode, a tally, v *CellView) tally { return a } }, true},
		{"BodyErr", func(l *Loop[*mnode, tally]) { l.BodyErr = func(n *mnode, a tally) (tally, error) { return a, nil } }, false},
		{"SpecBodyErr", func(l *Loop[*mnode, tally]) {
			l.SpecBodyErr = func(n *mnode, a tally, v *CellView) (tally, error) { return a, nil }
		}, false},
		{"no body", func(l *Loop[*mnode, tally]) {}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := base
			l.Scan = scan
			tc.set(&l)
			r, err := NewRunner(l, Config{Threads: 2})
			if (err == nil) != tc.ok {
				t.Fatalf("NewRunner with Scan and %s: err = %v, want ok = %v", tc.name, err, tc.ok)
			}
			if r != nil {
				r.Close()
			}
			// The same body without Scan is accepted whenever it is the
			// loop's one body.
			l.Scan = nil
			if r, err := NewRunner(l, Config{Threads: 2}); (err == nil) != (tc.name != "no body") {
				t.Fatalf("NewRunner with %s alone: err = %v", tc.name, err)
			} else if r != nil {
				r.Close()
			}
		})
	}
}

// TestScanContractBreaks: a Scan that returns a count outside [0, n], or
// stops early on a state that is neither Done nor its stop state, fails
// the invocation with ErrBadScan — on the sequential path, in a committed
// hunting chunk and in the chain's last chunk, which hunts nothing — and
// never returns a wrong sum. In a squashed chunk the break is discarded
// with the chunk.
func TestScanContractBreaks(t *testing.T) {
	breaks := []struct {
		name string
		do   func(n *mnode, a tally, k, lim int64) (*mnode, tally, int64)
	}{
		{"negative count", func(n *mnode, a tally, k, lim int64) (*mnode, tally, int64) { return n, a, -1 }},
		{"count above n", func(n *mnode, a tally, k, lim int64) (*mnode, tally, int64) { return n, a, lim + 1 }},
		{"early stop on a live state", func(n *mnode, a tally, k, lim int64) (*mnode, tally, int64) { return n, a, k }},
	}
	for _, br := range breaks {
		var armed atomic.Bool
		var at atomic.Pointer[mnode]
		loop := hookedScan(func(n *mnode, a tally, k, lim int64) (*mnode, tally, int64, bool) {
			if armed.Load() && n == at.Load() {
				rn, ra, rk := br.do(n, a, k, lim)
				return rn, ra, rk, true
			}
			return nil, a, 0, false
		})
		// Node 100 is in the first chunk (hunting its successor at width
		// 4, the whole traversal at width 1), node 39 000 in the chain's
		// last chunk; neither is the first node of a block.
		for _, threads := range []int{1, 4} {
			for _, node := range []int{100, 39_000} {
				t.Run(fmt.Sprintf("%s/t%d/node%d", br.name, threads, node), func(t *testing.T) {
					g, ns := blockList(40_000)
					r := newRunner(t, loop, Config{Threads: threads, depth: 1})
					g.exact(t, r) // bootstrap
					at.Store(ns[node])
					armed.Store(true)
					got, rerr := r.Run(context.Background(), g.head)
					armed.Store(false)
					if !errors.Is(rerr, ErrBadScan) || got != (tally{}) {
						t.Fatalf("Run = %+v, %v; want zero, ErrBadScan", got, rerr)
					}
					g.exact(t, r)
				})
			}
		}
		t.Run(br.name+"/squashed chunk", func(t *testing.T) { squashedTrap(t, loop, &armed, &at) })
	}
}

// zeroLiveLoop traverses the ints 1, 2, … n−1 with state 0 spliced in
// after state zeroAfter (Done at n), summing a weight per state: a loop
// whose zero state is live mid-traversal, which is also the stop state
// every block that hunts nothing is given. bodyCalls counts the
// iterations that ran through Body instead of Scan.
func zeroLiveLoop(n, zeroAfter int, bodyCalls *atomic.Int64) (Loop[int, int64], int64) {
	next := func(s int) int {
		switch {
		case s == zeroAfter:
			return 0
		case s == 0:
			return zeroAfter + 1
		}
		return s + 1
	}
	weight := func(s int) int64 { return int64(s)*2654435761%1000003 + 1 }
	var want int64
	for s := 0; s < n; s++ {
		want += weight(s)
	}
	return Loop[int, int64]{
		Done: func(s int) bool { return s == n },
		Next: next,
		Body: func(s int, a int64) int64 { bodyCalls.Add(1); return a + weight(s) },
		Scan: func(s int, a int64, _ *CellView, stop int, max int64) (int, int64, int64) {
			var k int64
			for ; k < max && s != n && s != stop; k++ {
				a += weight(s)
				s = next(s)
			}
			return s, a, k
		},
		Init:  func() int64 { return 0 },
		Merge: func(a, b int64) int64 { return a + b },
	}, want
}

// TestScanZeroStateIsLive: blocks that hunt nothing (the sequential
// path, the chain's last chunk) pass the zero S as stop. When the zero
// state is a live state of the traversal, Scan stops on it, the runtime
// runs that one iteration through Body/Next, and the traversal goes on —
// at every width, whether state 0 is an ordinary state or a chunk's
// predicted start (position 4096 of 8192 is where a width-2 bootstrap
// memoizes). The subtests keep the names they had beside positional
// validation, which the runtime no longer has.
func TestScanZeroStateIsLive(t *testing.T) {
	const n = 8192
	for _, zeroAfter := range []int{3000, 4096} {
		for threads := 1; threads <= 4; threads++ {
			t.Run(fmt.Sprintf("zeroAfter%d/t%d/positional=false", zeroAfter, threads), func(t *testing.T) {
				var bodyCalls atomic.Int64
				loop, want := zeroLiveLoop(n, zeroAfter, &bodyCalls)
				r := newRunner(t, loop, Config{Threads: threads})
				const invocations = 5
				for inv := 0; inv < invocations; inv++ {
					if got, err := r.Run(context.Background(), 1); err != nil || got != want {
						t.Fatalf("inv %d: got %d want %d err %v", inv, got, want, err)
					}
				}
				st := r.Stats()
				if st.TotalIters != invocations*n || st.SquashedIters != 0 {
					t.Fatalf("TotalIters %d SquashedIters %d, want %d and 0", st.TotalIters, st.SquashedIters, invocations*n)
				}
				if threads > 1 && st.Hits == 0 {
					t.Fatalf("no speculative chunk committed: %+v", st)
				}
				// Only state 0's iteration may run through Body, and it
				// does whenever the block that reaches it hunts nothing.
				calls := bodyCalls.Load()
				if calls > invocations {
					t.Fatalf("%d iterations ran through Body in %d invocations", calls, invocations)
				}
				if threads == 1 && calls != invocations {
					t.Fatalf("%d iterations ran through Body, want one per invocation", calls)
				}
			})
		}
	}
}
