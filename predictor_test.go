package spice

import "testing"

// bootCandidates is what a bootstrap plan captures in a traversal of
// total iterations: a candidate at every power of two below total.
func bootCandidates(total int64) []memo[int64] {
	var cands []memo[int64]
	for _, e := range bootPlan {
		if e.at < total {
			cands = append(cands, memo[int64]{row: e.row, state: -e.at, pos: e.at})
		}
	}
	return cands
}

// checkPromote runs promote over what a bootstrap plan captures in a
// traversal of total iterations — a candidate at every power of two an
// iteration started at, so every one below total — and checks the rows
// it chooses: positions strictly increase by row, each row's candidate
// is the nearest to its boundary among those beyond the previous row's
// (the earlier one on a tie), a boundary gets no row only when no
// candidate is left beyond its predecessor, and apply installs exactly
// the chosen rows. Boundary k's row is indexRow(k-1): the grid is
// setFanout times finer than the split. FuzzPredictorApply calls it too.
func checkPromote(t *testing.T, threads int, total int64) {
	t.Helper()
	cands := bootCandidates(total)
	p := newPredictor[int64](threads, 1)
	got := p.promote(total, append([]memo[int64](nil), cands...))

	lastPos := int64(0)
	next := 0 // got[next] is the next chosen row
	for k := 1; k < threads; k++ {
		row := indexRow(k - 1)
		boundary := total * int64(k) / int64(threads)
		dist := func(pos int64) int64 { return max(pos-boundary, boundary-pos) }
		best := -1
		for ci, c := range cands {
			if c.pos > lastPos && (best < 0 || dist(c.pos) < dist(cands[best].pos)) {
				best = ci
			}
		}
		if best < 0 {
			if next < len(got) && got[next].row == row {
				t.Fatalf("threads %d total %d: row %d chosen at %d with no candidate beyond %d", threads, total, row, got[next].pos, lastPos)
			}
			continue
		}
		if next >= len(got) || got[next].row != row {
			t.Fatalf("threads %d total %d: no row %d, candidate %d lies beyond %d: %+v", threads, total, row, cands[best].pos, lastPos, got)
		}
		if m := got[next]; m.pos != cands[best].pos || m.state != cands[best].state {
			t.Fatalf("threads %d total %d: row %d (boundary %d) = %+v, nearest unconsumed candidate is %+v", threads, total, row, boundary, m, cands[best])
		}
		lastPos = got[next].pos // strictly beyond the previous one: the filter above
		next++
	}
	if next != len(got) {
		t.Fatalf("threads %d total %d: %d rows chosen, %d accounted for: %+v", threads, total, len(got), next, got)
	}

	p.apply(total, got)
	rows := p.rows
	for _, m := range got {
		if r := rows[m.row]; !r.valid || r.pos != m.pos || r.start != m.state {
			t.Fatalf("threads %d total %d: row %d installed as %+v, chosen %+v", threads, total, m.row, r, m)
		}
		rows[m.row].valid = false
	}
	for k, r := range rows {
		if r.valid {
			t.Fatalf("threads %d total %d: row %d valid, never chosen", threads, total, k)
		}
	}
}

func TestPromote(t *testing.T) {
	for threads := 2; threads <= 8; threads++ {
		for _, total := range []int64{0, 1, int64(threads - 1), 1023, 1024, 1025, 100_000} {
			checkPromote(t, threads, total)
		}
	}
	// Candidates are captured, never rows: unpromoted they install nothing.
	p := newPredictor[int64](4, 1)
	p.apply(100, []memo[int64]{{row: candRow, state: 1, pos: 1}, {row: candRow, state: 2, pos: 2}})
	if p.predicted() > 0 {
		t.Fatal("apply installed an unpromoted candidate as a row")
	}
}
