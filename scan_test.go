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

// blockListScanLoop is blockListLoop with the block form set; visit,
// when non-nil, runs before every node and may end the block in Scan's
// place (k is the count so far).
func blockListScanLoop(visit func(n *bnode, a, k, max int64) (*bnode, int64, int64, bool)) Loop[*bnode, int64] {
	l := blockListLoop()
	l.Scan = func(n *bnode, a int64, _ *CellView, stop *bnode, max int64) (*bnode, int64, int64) {
		var k int64
		for ; k < max && n != nil && n != stop; k++ {
			if visit != nil {
				if rn, ra, rk, taken := visit(n, a, k, max); taken {
					return rn, ra, rk
				}
			}
			a += n.w
			n = n.next
		}
		return n, a, k
	}
	return l
}

// blockListNodes returns the list's nodes by position.
func blockListNodes(head *bnode) []*bnode {
	var ns []*bnode
	for n := head; n != nil; n = n.next {
		ns = append(ns, n)
	}
	return ns
}

// orphanSecondChunk unlinks the six nodes from the second speculative
// chunk's predicted start on (position 16384 of a bootstrapped 40 000-
// node list at width 4), which stay linked into the rest of the list:
// that chunk still runs, from a node the traversal no longer reaches, so
// it and the chunk after it are squashed. Returns the sum of what is
// left and the position of a node only the squashed chunk visits.
func orphanSecondChunk(head *bnode) (want int64, orphan int64) {
	ns := blockListNodes(head)
	ns[16383].next = ns[16390]
	return sumBlockList(head), 16386
}

func TestScanValidation(t *testing.T) {
	scan := blockListScanLoop(nil).Scan
	base := blockListLoop()
	base.Body = nil
	for _, tc := range []struct {
		name string
		set  func(l *Loop[*bnode, int64])
		ok   bool
	}{
		{"Body", func(l *Loop[*bnode, int64]) { l.Body = func(n *bnode, a int64) int64 { return a } }, true},
		{"SpecBody", func(l *Loop[*bnode, int64]) { l.SpecBody = func(n *bnode, a int64, v *CellView) int64 { return a } }, true},
		{"BodyErr", func(l *Loop[*bnode, int64]) { l.BodyErr = func(n *bnode, a int64) (int64, error) { return a, nil } }, false},
		{"SpecBodyErr", func(l *Loop[*bnode, int64]) {
			l.SpecBodyErr = func(n *bnode, a int64, v *CellView) (int64, error) { return a, nil }
		}, false},
		{"no body", func(l *Loop[*bnode, int64]) {}, false},
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
		do   func(n *bnode, a, k, max int64) (*bnode, int64, int64)
	}{
		{"negative count", func(n *bnode, a, k, max int64) (*bnode, int64, int64) { return n, a, -1 }},
		{"count above n", func(n *bnode, a, k, max int64) (*bnode, int64, int64) { return n, a, max + 1 }},
		{"early stop on a live state", func(n *bnode, a, k, max int64) (*bnode, int64, int64) { return n, a, k }},
	}
	for _, br := range breaks {
		var armed atomic.Bool
		var at atomic.Int64
		loop := blockListScanLoop(func(n *bnode, a, k, max int64) (*bnode, int64, int64, bool) {
			if armed.Load() && n.idx == at.Load() {
				rn, ra, rk := br.do(n, a, k, max)
				return rn, ra, rk, true
			}
			return nil, 0, 0, false
		})
		// Node 100 is in the first chunk (hunting its successor at width
		// 4, the whole traversal at width 1), node 39 000 in the chain's
		// last chunk; neither is the first node of a block.
		for _, threads := range []int{1, 4} {
			for _, node := range []int64{100, 39_000} {
				t.Run(fmt.Sprintf("%s/t%d/node%d", br.name, threads, node), func(t *testing.T) {
					head := buildBlockList(40_000)
					want := sumBlockList(head)
					r, err := NewRunner(loop, Config{Threads: threads})
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					if got, err := r.Run(context.Background(), head); err != nil || got != want {
						t.Fatalf("bootstrap: got %d want %d err %v", got, want, err)
					}
					at.Store(node)
					armed.Store(true)
					got, rerr := r.Run(context.Background(), head)
					armed.Store(false)
					if !errors.Is(rerr, ErrBadScan) || got != 0 {
						t.Fatalf("Run = %d, %v; want 0, ErrBadScan", got, rerr)
					}
					if got, err := r.Run(context.Background(), head); err != nil || got != want {
						t.Fatalf("after the break: got %d want %d err %v", got, want, err)
					}
				})
			}
		}
		t.Run(br.name+"/squashed chunk", func(t *testing.T) {
			head := buildBlockList(40_000)
			r, err := NewRunner(loop, Config{Threads: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			r.MustRun(head)
			want, orphan := orphanSecondChunk(head)
			at.Store(orphan)
			armed.Store(true)
			got, rerr := r.Run(context.Background(), head)
			armed.Store(false)
			if rerr != nil || got != want {
				t.Fatalf("Run = %d, %v; want %d: a break in a squashed chunk must be discarded", got, rerr, want)
			}
			if st := r.Stats(); st.Misses == 0 {
				t.Fatalf("no chunk was squashed: %+v", st)
			}
		})
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
				r, err := NewRunner(loop, Config{Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
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
