package spice

import (
	"errors"
	"testing"
)

// TestBlockFormsAgree runs one traversal, written the five ways a Loop
// can carry it (Body, BodyErr, SpecBody, SpecBodyErr, and Body with its
// block form Scan), through the routine blockOf picks for each, and
// holds every routine to one expected (state, accumulator, count, stop)
// per block computed by a plain loop here. State 0 — the zero S, which
// a block that hunts nothing hands Scan as its stop — is live at
// position 3.
func TestBlockFormsAgree(t *testing.T) {
	const end = -1
	seq := []int{3, 4, 5, 0, 1, 2, 6, 7}
	nx := map[int]int{}
	for i, s := range seq {
		nx[s] = end
		if i+1 < len(seq) {
			nx[s] = seq[i+1]
		}
	}
	errAt, panicAt := end, end // the state whose iteration fails (end: none)
	step := func(s int, a int64) (int64, error) {
		if s == panicAt {
			panic("boom")
		}
		if s == errAt {
			return a, errBoom
		}
		return a*31 + int64(s) + 1, nil
	}
	view := &CellView{}
	sawView := func(v *CellView) {
		if v != view {
			t.Errorf("spec body got view %p, want the block's %p", v, view)
		}
	}
	body := func(s int, a int64) int64 { a, _ = step(s, a); return a }
	loop := func() Loop[int, int64] {
		return Loop[int, int64]{
			Done: func(s int) bool { return s == end },
			Next: func(s int) int { return nx[s] },
		}
	}
	forms := []struct {
		name           string
		fallible, scan bool
		set            func(l *Loop[int, int64])
	}{
		{"Body", false, false, func(l *Loop[int, int64]) { l.Body = body }},
		{"BodyErr", true, false, func(l *Loop[int, int64]) { l.BodyErr = step }},
		{"SpecBody", false, false, func(l *Loop[int, int64]) {
			l.SpecBody = func(s int, a int64, v *CellView) int64 { sawView(v); return body(s, a) }
		}},
		{"SpecBodyErr", true, false, func(l *Loop[int, int64]) {
			l.SpecBodyErr = func(s int, a int64, v *CellView) (int64, error) { sawView(v); return step(s, a) }
		}},
		{"Scan", false, true, func(l *Loop[int, int64]) {
			l.Body = body
			l.Scan = func(s int, a int64, v *CellView, stop int, n int64) (int, int64, int64) {
				sawView(v)
				var k int64
				for ; k < n && s != end && s != stop; k++ {
					a = body(s, a)
					s = nx[s]
				}
				return s, a, k
			}
		}},
	}

	// want is the block written plainly: the expected outcome of every form.
	want := func(s int, a int64, stop int, hunt bool, n int64) (int, int64, int64, blockStop) {
		for k := int64(0); k < n; k++ {
			if s == end {
				return s, a, k, blockDone
			}
			if hunt && s == stop {
				return s, a, k, blockMatched
			}
			a, _ = step(s, a)
			s = nx[s]
		}
		return s, a, n, blockFilled
	}

	blocks := []struct {
		name  string
		start int
		stop  int
		hunt  bool
		n     int64
		stops blockStop // pins the scenario: a table edit cannot turn it into another
	}{
		{"filled", 3, 0, false, 3, blockFilled},
		{"filled past the zero state", 3, 0, false, 6, blockFilled},
		{"done", 3, 0, false, 100, blockDone},
		{"done at the block's last iteration", 3, 0, false, 8, blockFilled},
		{"matched hunt", 3, 2, true, 100, blockMatched},
		{"hunt matches the zero state", 3, 0, true, 100, blockMatched},
		{"hunt matches at the start", 5, 5, true, 100, blockMatched},
		{"hunt for a state never met", 3, 99, true, 100, blockDone},
		{"hunt cut by the budget", 3, 2, true, 4, blockFilled},
		{"no hunt walks past stop", 3, 2, false, 100, blockDone},
		{"no hunt walks past a stop it starts on", 5, 5, false, 2, blockFilled},
		{"zero state live at the start", 0, 0, false, 2, blockFilled},
		{"start on Done", end, 0, false, 5, blockDone},
		{"n == 0", 4, 4, true, 0, blockFilled},
	}
	for _, f := range forms {
		l := loop()
		f.set(&l)
		block, _ := blockOf(&l)
		for _, b := range blocks {
			ws, wacc, wk, wstop := want(b.start, 7, b.stop, b.hunt, b.n)
			if wstop != b.stops {
				t.Fatalf("%s: the plain loop stops with %d, the table says %d", b.name, wstop, b.stops)
			}
			s, acc, k, stop, err := block(view, b.start, 7, b.stop, b.hunt, b.n)
			if s != ws || acc != wacc || k != wk || stop != wstop || err != nil {
				t.Errorf("%s/%s: (%d, %d, %d, %d, %v), want (%d, %d, %d, %d, nil)",
					f.name, b.name, s, acc, k, stop, err, ws, wacc, wk, wstop)
			}
		}

		// A failing iteration is charged: position i fails with k == i+1,
		// hunting or not, in the first block position and the last.
		for i, at := range seq {
			for _, hunt := range []bool{false, true} {
				if f.fallible {
					errAt = at
					s, _, k, stop, err := block(view, seq[0], 7, 99, hunt, 100)
					errAt = end
					if s != at || k != int64(i+1) || stop != blockFailed || err != errBoom {
						t.Errorf("%s: error at position %d (hunt %v): state %d, k %d, stop %d, err %v; want state %d, k %d, failed, boom",
							f.name, i, hunt, s, k, stop, err, at, i+1)
					}
				}
				// A panic is charged the same way by the closure loops. Scan
				// reports a count only by returning, so its charge is what
				// the calls that returned ran: nothing, unless the zero-state
				// resume (position 3, never in a hunting block) split the
				// block first — and the resumed iteration itself runs
				// through Body, exact again.
				wk := int64(i + 1)
				if f.scan && (hunt || i < 3) {
					wk = 0
				} else if f.scan && i > 3 {
					wk = 4
				}
				panicAt = at
				_, _, k, stop, err := block(view, seq[0], 7, 99, hunt, 100)
				panicAt = end
				var pe *PanicError
				if k != wk || stop != blockFailed || !errors.As(err, &pe) || pe.Value != "boom" {
					t.Errorf("%s: panic at position %d (hunt %v): k %d, stop %d, err %v; want k %d, failed, *PanicError(boom)",
						f.name, i, hunt, k, stop, err, wk)
				}
			}
		}
	}
}
