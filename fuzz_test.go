package spice

// Native Go fuzz targets. They round-trip fuzzed inputs against the
// sequential oracle / structural invariants; CI runs each for a short
// smoke window (go test -fuzz=FuzzX -fuzztime=10s) on every push, and
// the seed corpus below executes on every plain `go test` run. The two
// oracle targets decode their inputs into cases of the matrix
// (matrix_test.go).

import (
	"errors"
	"math/rand"
	"testing"
)

// FuzzRunnerOracle fuzzes the whole runner: trip counts (list sizes and
// their evolution), chunk boundaries (thread count and the speculative
// iteration cap, which moves where chunks break), and the mutation
// regime, asserting every invocation equals the sequential oracle with
// adaptive mode both on and off — and, each of those, with the loop's
// block form (Loop.Scan) set and stripped, which must leave every
// counter where it was. pattern also picks 1, 2 or 4 chunks per slot
// (Config.depth).
func FuzzRunnerOracle(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(4), uint8(0), uint16(0))
	f.Add(int64(2), uint16(300), uint8(2), uint8(1), uint16(64))
	f.Add(int64(3), uint16(700), uint8(7), uint8(2), uint16(17))
	f.Add(int64(-9), uint16(1), uint8(1), uint8(2), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, threads, pattern uint8, maxSpec uint16) {
		patterns := []string{"predictable", "drifting", "adversarial"}
		for _, adaptive := range []bool{false, true} {
			mcase{build: oracleList(seed, int(size%1024)+1), edit: regime(patterns[int(pattern)%len(patterns)]),
				threads: int(threads%8) + 1, adaptive: adaptive, maxSpec: int64(maxSpec), probe: 2, invs: 6,
				depth: 1 << (int(pattern) / len(patterns) % 3)}.twin(t)
		}
	})
}

// FuzzDoacrossOracle fuzzes the DOACROSS machinery: list sizes, widths,
// the speculative iteration cap (which moves chunk boundaries and with
// them which flow dependences get split), and the conflict regime,
// asserting every invocation's accumulator AND the full cell store
// equal the sequential reference model, with adaptive mode both on and
// off, plus counter conservation. Odd seeds redeclare the Max reduction
// as a second Sum, so both of Reduce's paths (inline for an all-Sum
// declaration, out of line for a mixed one) are fuzzed; threads%8 == 7
// is the direct view of the sequential path. Every case runs on the
// closure triple and on the block form, and the two must agree counter
// for counter.
func FuzzDoacrossOracle(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(4), uint8(0), uint16(0))
	f.Add(int64(2), uint16(500), uint8(8), uint8(1), uint16(64))
	f.Add(int64(3), uint16(900), uint8(2), uint8(2), uint16(17))
	f.Add(int64(-5), uint16(1), uint8(1), uint8(2), uint16(1))
	// Width 1 (the direct view), mixed and all-Sum declarations, every
	// regime; then both declarations under a cap that forces recovery.
	f.Add(int64(4), uint16(700), uint8(7), uint8(0), uint16(0))
	f.Add(int64(5), uint16(700), uint8(7), uint8(1), uint16(0))
	f.Add(int64(6), uint16(300), uint8(15), uint8(2), uint16(9))
	f.Add(int64(7), uint16(1000), uint8(3), uint8(1), uint16(40))
	f.Add(int64(8), uint16(1000), uint8(1), uint8(2), uint16(40))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, threads, regime uint8, maxSpec uint16) {
		regimes := []string{"none", "rare", "dense"}
		for _, adaptive := range []bool{false, true} {
			c := cellCase(seed, int(size%1024)+1, regimes[int(regime)%len(regimes)], 10)
			if seed&1 == 1 {
				build := c.build
				c.build = func() *gen { g := build(); g.body = "sums"; return g }
			}
			c.threads, c.adaptive, c.maxSpec, c.probe, c.invs = int(threads%8)+1, adaptive, int64(maxSpec), 2, 5
			c.twin(t)
		}
	})
}

// FuzzPredictorApply fuzzes the predictor in isolation: arbitrary memo
// streams (rows, positions) against arbitrary totals must never panic,
// must install exactly the last in-range memo per row, and must always
// yield structurally sane plans (targets in range, thresholds positive
// and non-decreasing per chunk — the order the memoization cursor
// consumes them in). And
// promote, over the candidates a bootstrap plan captures in a traversal
// of the fuzzed length, chooses rows by checkPromote's rules. Read at
// stride d, a grid of d times the parts plans and promotes the same
// positions on every d-th row (d = 2 and 4).
func FuzzPredictorApply(f *testing.F) {
	f.Add(uint8(4), int64(100), []byte{0, 10, 1, 50, 2, 90})
	f.Add(uint8(2), int64(0), []byte{})
	f.Add(uint8(8), int64(1), []byte{200, 255, 0, 0, 3, 3})
	f.Add(uint8(4), int64(100), []byte{2, 10, 3, 50, 4, 90})
	f.Fuzz(func(t *testing.T, threads uint8, total int64, data []byte) {
		tc := int(threads%8) + 2
		if total < 0 {
			total = -total
		}
		total %= 1 << 40
		p := newPredictor[int64](tc, 1)
		// Decode (row, pos) pairs from the fuzz bytes; values land both
		// in and out of range on purpose.
		var memos []memo[int64]
		for i := 0; i+1 < len(data); i += 2 {
			memos = append(memos, memo[int64]{
				row:   int(data[i]) - 2, // exercises negative and overflowing rows
				state: int64(i),
				pos:   (int64(data[i+1]) * total) / 256,
			})
		}
		p.apply(total, memos)

		if p.prevTotal != total {
			t.Fatalf("prevTotal = %d, want %d", p.prevTotal, total)
		}
		// Rows: last in-range memo per row wins; out-of-range memos are
		// dropped.
		want := make(map[int]memo[int64])
		for _, m := range memos {
			if m.row >= 0 && m.row < setFanout*tc-1 {
				want[m.row] = m
			}
		}
		if len(p.rows) != setFanout*tc-1 {
			t.Fatalf("rows = %d, want %d", len(p.rows), setFanout*tc-1)
		}
		for k, r := range p.rows {
			m, ok := want[k]
			if r.valid != ok {
				t.Fatalf("row %d valid=%v, want %v", k, r.valid, ok)
			}
			if ok && (r.start != m.state || r.pos != m.pos) {
				t.Fatalf("row %d = %+v, want state=%d pos=%d", k, r, m.state, m.pos)
			}
		}
		// Plans, from position 0 and from every valid row's position (the
		// bases the scheduler seeds chunks at): entries must target real
		// rows with positive, non-decreasing thresholds — the order the
		// memoization cursor consumes them in — and there is nothing to
		// plan from without a trip count.
		bases := []int64{0}
		for _, r := range p.rows {
			if r.valid {
				bases = append(bases, r.pos)
			}
		}
		for _, base := range bases {
			plan := planFrom(p.plan(nil), base)
			if total == 0 && len(plan) != 0 {
				t.Fatalf("base %d: %d plan entries without a trip count", base, len(plan))
			}
			last := int64(0)
			for _, e := range plan {
				if e.row < 0 || e.row >= len(p.rows) {
					t.Fatalf("base %d: plan targets row %d (rows=%d)", base, e.row, len(p.rows))
				}
				if e.at-base <= 0 {
					t.Fatalf("base %d: plan threshold %d not positive", base, e.at-base)
				}
				if e.at-base < last {
					t.Fatalf("base %d: plan thresholds decrease: %d after %d", base, e.at-base, last)
				}
				last = e.at - base
			}
		}
		if p.specCap(0) <= 0 {
			t.Fatalf("specCap = %d", p.specCap(0))
		}
		// A second apply with no memos must clear all rows: no stale
		// prediction survives an apply.
		p.apply(total/2, nil)
		if p.predicted() > 0 {
			t.Fatalf("after an empty apply: rows %+v", p.rows)
		}
		// The other plan: what promote chooses from a bootstrap capture of
		// this many iterations (predictor_test.go).
		checkPromote(t, tc, total)
		// One grid: a predictor cut for d chunks a slot and read at stride
		// d plans and promotes exactly as this one does, on rows d·k+d−1
		// for its rows k (⌊P·dk/dW⌋ = ⌊P·k/W⌋).
		for _, d := range []int{2, 4} {
			fine := newPredictor[int64](d*tc, d)
			fine.prevTotal = p.prevTotal
			for _, base := range bases {
				coarse, strided := planFrom(p.plan(nil), base), planFrom(fine.plan(nil), base)
				for i := range max(len(coarse), len(strided)) {
					if i >= len(coarse) || i >= len(strided) || strided[i] != (planEntry{at: coarse[i].at, row: d*coarse[i].row + d - 1}) {
						t.Fatalf("base %d: plan %+v at stride %d, %+v on the coarse grid", base, strided, d, coarse)
					}
				}
			}
			coarse, strided := p.promote(total, bootCandidates(total)), fine.promote(total, bootCandidates(total))
			for i := range max(len(coarse), len(strided)) {
				if i >= len(coarse) || i >= len(strided) || strided[i] != (memo[int64]{row: d*coarse[i].row + d - 1, state: coarse[i].state, pos: coarse[i].pos}) {
					t.Fatalf("promote: %+v at stride %d, %+v on the coarse grid", strided, d, coarse)
				}
			}
		}
	})
}

// FuzzBlockGroup fuzzes the group routine against a per-iteration
// reference: d chains (1 to maxDepth), each on a list of its own of a
// fuzzed length, each hunting a window of 0 to 3 predicted starts (a node
// of its list, its own start, which never stops it, or a node it never
// reaches, each the start of some chunk) under a budget of its own,
// stepped together as a slot's driver steps them — the group while two
// or more are live, or one whose window the block routine cannot take,
// with the bound of the nearest budget, then a survivor alone through
// blockBody with its one stop. A panic or a BodyErr error strikes at a
// chosen (chain, step). Every chain must end with the state,
// accumulator, count, stop, error and met start that the reference
// reaches: one blockBody iteration at a time, after Done and the window
// in window order, under its whole budget.
func FuzzBlockGroup(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(40), uint8(0), uint16(0))
	f.Add(int64(2), uint8(4), uint16(300), uint8(1), uint16(3<<8|17))
	f.Add(int64(3), uint8(3), uint16(1000), uint8(2), uint16(7<<8|5))
	f.Add(int64(4), uint8(1), uint16(9), uint8(2), uint16(0))
	f.Add(int64(5), uint8(7), uint16(64), uint8(1), uint16(6<<8|0))
	f.Fuzz(func(t *testing.T, seed int64, depth uint8, length uint16, fault uint8, at uint16) {
		rng := rand.New(rand.NewSource(seed))
		d := int(depth)%maxDepth + 1
		// One arena of nodes, the chains' lists laid out one after the
		// other: a state is an index, -1 is the end.
		var next, w []int
		starts, ends := make([]int, d), make([]int, d)
		for c := range d {
			n := rng.Intn(int(length)%512 + 1)
			starts[c] = len(next)
			for i := range n {
				w = append(w, rng.Intn(1000))
				next = append(next, len(next)+1)
				if i == n-1 {
					next[len(next)-1] = -1
				}
			}
			ends[c] = len(next)
			if n == 0 {
				starts[c] = -1 // an empty list: Done at once
			}
		}
		// The fault strikes chain at>>8 at its (at&255)-th node.
		strike := -2
		if c := int(at>>8) % d; starts[c] >= 0 && starts[c]+int(at&255) < ends[c] {
			strike = starts[c] + int(at&255)
		}
		errStruck := errors.New("struck")
		loop := Loop[int, int]{
			Done:  func(s int) bool { return s < 0 },
			Next:  func(s int) int { return next[s] },
			Init:  func() int { return 0 },
			Merge: func(a, b int) int { return a + b },
		}
		switch fault % 3 {
		case 0:
			loop.Body = func(s, a int) int { return a + w[s] }
		case 1:
			loop.Body = func(s, a int) int {
				if s == strike {
					panic("struck")
				}
				return a + w[s]
			}
		default:
			loop.BodyErr = func(s, a int) (int, error) {
				if s == strike {
					return a, errStruck
				}
				return a + w[s], nil
			}
		}
		ref, group := blockOf(&loop)
		lanes := make([]lane[int, int], d)
		budget := make([]int64, d)
		for c := range lanes {
			l := &lanes[c]
			l.s, l.idx, l.live = starts[c], c, true
			for range rng.Intn(4) {
				t := target[int]{s: rng.Intn(len(next) + 1), c: d + rng.Intn(3)} // a node anywhere, or none
				switch rng.Intn(3) {
				case 0: // a node of its own list, or past its end
					if starts[c] >= 0 {
						t.s = starts[c] + rng.Intn(ends[c]-starts[c]+1)
					}
				case 1: // its own start
					t.s, t.c = starts[c], c
				}
				l.window = append(l.window, t)
			}
			budget[c] = int64(rng.Intn(int(length)%512 + 3))
		}
		type end struct {
			s, acc int
			k      int64
			why    blockStop
			err    error
			met    int
		}
		want := make([]end, d)
		for c := range lanes {
			l, w := &lanes[c], &want[c]
			w.s, w.why = l.s, blockFilled
		steps:
			for w.k < budget[c] {
				if w.s < 0 {
					w.why = blockDone
					break
				}
				for _, t := range l.window {
					if w.s == t.s && t.c != c {
						w.why, w.met = blockMatched, t.c
						break steps
					}
				}
				var k int64
				if w.s, w.acc, k, w.why, w.err = ref(nil, w.s, w.acc, 0, false, 1); w.why == blockFailed {
					w.k += k
					break
				}
				w.k += k
			}
		}
		got := make([]end, d)
		left := append([]int64(nil), budget...)
		finish := func(c int) {
			l := &lanes[c]
			l.live = false
			got[c].s, got[c].acc, got[c].why, got[c].err, got[c].met = l.s, l.acc, l.why, l.err, l.met
		}
		for c := range lanes {
			if left[c] == 0 {
				lanes[c].why = blockFilled
				finish(c)
			}
		}
		for {
			live, n, one := 0, int64(1<<62), &lanes[0]
			for c := range lanes {
				if lanes[c].live {
					live, n, one = live+1, min(n, left[c]), &lanes[c]
				}
			}
			if live == 0 || live == 1 && one.solo() {
				break
			}
			group(lanes, n)
			for c := range lanes {
				if l := &lanes[c]; l.live {
					if l.k < 0 || l.k > n {
						t.Fatalf("chain %d: %d iterations of a %d-iteration block", c, l.k, n)
					}
					got[c].k += l.k
					if left[c] -= l.k; l.why != blockFilled || left[c] == 0 {
						finish(c)
					}
				}
			}
		}
		for c := range lanes {
			if l := &lanes[c]; l.live {
				stop := -3
				if len(l.window) > 0 {
					stop = l.window[0].s
				}
				var k int64
				if l.s, l.acc, k, l.why, l.err = ref(nil, l.s, l.acc, stop, len(l.window) > 0, left[c]); l.why == blockMatched {
					l.met = l.window[0].c
				}
				got[c].k += k
				finish(c)
			}
		}
		for c := range d {
			g, w := got[c], want[c]
			var gp, wp *PanicError
			samePanic := errors.As(g.err, &gp) && errors.As(w.err, &wp) && gp.Value == wp.Value
			if g.s != w.s || g.acc != w.acc || g.k != w.k || g.why != w.why || (g.err != w.err && !samePanic) || g.why == blockMatched && g.met != w.met {
				t.Fatalf("chain %d of %d (window %+v): grouped %+v, reference %+v", c, d, lanes[c].window, g, w)
			}
		}
	})
}
