package spice

// This file is the predictor layer: the memoizing value-predictor state
// of Section 4 (the SVA rows holding speculated chunk-start states) plus
// the central planning component that decides, from each invocation's
// measured chunk lengths, where the next invocation's memoizations
// should happen.
//
// Planning follows the BalancedChunks scheme: boundaries are computed in
// global work coordinates from the last invocation's trip count, once
// per invocation (plan), and every chunk the scheduler seeds — round 0's
// and any later round's alike — carries the entries for every boundary
// beyond its own (predicted) start (planFrom). In the common case a
// chunk stops at its successor's predicted start right after firing its
// first entry; the remaining entries fire only when the chunk overruns
// because a later chunk mis-speculated — re-memoizing the squashed rows
// at their correct positions (self-healing).
//
// There are two plans and one capture mechanism. An invocation with a
// chain to keep balanced plans from the last trip count, as above, and
// so does one the load-aware door shed. One that starts as a round of
// one on a runner that could speculate for want of rows — the first,
// and every fallback after it — carries bootPlan instead: a
// candidate at every power of two, from which promote picks the rows
// once the trip count is known. Either way the chunk driver fires the
// entries (chunkJob.exec), the walk turns them into memos at global
// positions, and apply installs them.
//
// The scheduler reads rows in place for the whole invocation; apply, at
// its end, clears them and installs the next invocation's in place. By
// then nothing reads the old ones: the last round is over, workers never
// read rows, and seed's pointers into them are local to seed. The
// steady state allocates and copies nothing.
//
// The grid is setFanout times finer than the chunks a round of index
// order carries: such a round reads every setFanout·stride-th row (step),
// on exactly the boundaries of the coarser grid (⌊T·F·m/(F·P)⌋ =
// ⌊T·m/P⌋). A runner that hunts the set (scheduler.go: a DOALL runner
// whose slots step chains in groups) reads every stride-th once an
// invocation of it has hunted the set (fine), so its next round carries
// setFanout chunks a slot per chain in flight; one grid serves both, and
// the rows in between are out of use in index order.

// row is one SVA entry: rows[k] predicts chunk k+1's start. pos is the
// global completed-iteration position at capture time, for planning
// only: validation is by membership, wherever the start appears.
type row[S comparable] struct {
	start S
	pos   int64
	valid bool
}

// planEntry tells a chunk to capture its live-in state at position at,
// targeting SVA row row. Positions are global (plan): a chunk that
// starts at global position base captures after at-base completed
// iterations of its own. bootPlan's positions count from the chunk's own
// start (base 0).
type planEntry struct {
	at  int64
	row int
}

// proposal is one memoization produced during a chunk run, in
// chunk-local coordinates (the chunk's global base is only known once
// the validation chain resolves).
type proposal[S comparable] struct {
	row   int
	state S
	local int64
}

// memo is a resolved proposal in global work coordinates — the form the
// predictor consumes. The scheduler converts committed chunks' proposals
// at the exact global position the validation chain has reached.
type memo[S comparable] struct {
	row   int
	state S
	pos   int64
}

// predictor holds the SVA rows and the planning state for one runner.
// It is confined to the runner's invocation cycle: rows and
// plan are read during a Run, apply mutates at its end. A
// Pool gives every in-flight invocation its own runner (and therefore
// predictor), so no internal locking is needed.
type predictor[S comparable] struct {
	// parts is the number of chunks a round of index order splits the
	// last trip count into at the finest depth: the runner's width times
	// the most chunks a slot may carry. The grid has setFanout·parts-1
	// rows, one per inner boundary of a split setFanout times finer, and
	// a runner at a coarser depth uses every stride-th of the rows its
	// round reads (step): rows step-1, 2·step-1, …, which sit on exactly
	// the boundaries of the coarser grid (⌊P·2k/2W⌋ = ⌊P·k/W⌋). The rows
	// in between are out of use: no plan targets them, so the next apply
	// clears them.
	parts, stride int
	// fine is set while the rows are a set invocation's (Runner.finish):
	// the next round reads every stride-th row, not every
	// setFanout·stride-th.
	fine bool

	rows []row[S]
	// prevTotal is the last invocation's total committed trip count —
	// the planning total for the current invocation's boundaries.
	prevTotal int64
}

// newPredictor sizes the rows for a grid setFanout times finer than
// parts chunks.
func newPredictor[S comparable](parts, stride int) *predictor[S] {
	return &predictor[S]{parts: parts, stride: stride, rows: make([]row[S], setFanout*parts-1)}
}

// step is the distance between the rows the next round reads: stride on
// a set invocation's rows (fine), setFanout·stride in index order.
func (p *predictor[S]) step() int {
	if p.fine {
		return p.stride
	}
	return setFanout * p.stride
}

// reset drops all memoized state: rows and the planning total.
// Pools reset a runner's predictor when it moves between sessions, so
// predictions never dangle into another session's data structure, and
// a runner parked in a Pool free list pins no node of the finished one.
func (p *predictor[S]) reset() {
	clear(p.rows)
	p.fine, p.prevTotal = false, 0
}

// predicted counts the chunk starts in use that are predicted.
func (p *predictor[S]) predicted() int {
	n, step := 0, p.step()
	for k := step - 1; k < len(p.rows); k += step {
		if p.rows[k].valid {
			n++
		}
	}
	return n
}

// plan appends the invocation's memoization plan: one entry per boundary
// in use, at its global position, ascending. Empty while there is no
// trip count to plan from. Every chunk of the invocation plans from it
// (planFrom), so a runner keeps one plan, linear in its grid.
func (p *predictor[S]) plan(buf []planEntry) []planEntry {
	if p.prevTotal <= 0 {
		return buf
	}
	parts, step := len(p.rows)+1, p.step()
	for k := step; k < parts; k += step {
		buf = append(buf, planEntry{at: p.prevTotal * int64(k) / int64(parts), row: k - 1})
	}
	return buf
}

// planFrom is the memoization plan of a chunk whose global start
// position is (predicted to be) pos: the entries of plan beyond pos.
func planFrom(plan []planEntry, pos int64) []planEntry {
	lo, hi := 0, len(plan)
	for lo < hi { // binary search for the first entry beyond pos
		if m := int(uint(lo+hi) >> 1); plan[m].at <= pos {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return plan[lo:]
}

// candRow is the row of a bootstrap plan entry: no SVA row yet, a
// candidate for promote to choose from (apply ignores it, like any row
// out of range).
const candRow = -2

// bootPlan is the memoization plan of an invocation that runs as a round
// of one on a runner that could speculate (the paper's first-invocation
// memoization, and every fallback after it): there is no trip count it
// could trust to put thresholds at, so it captures a candidate at every
// power of two and promote picks among them once the trip count is known.
// Read-only, shared by every runner.
var bootPlan = func() []planEntry {
	plan := make([]planEntry, 62)
	for i := range plan {
		plan[i] = planEntry{at: 1 << i, row: candRow}
	}
	return plan
}()

// promote turns the candidates a bootstrap plan captured (memos, in
// capture order, so ascending by position) into row memoizations, in
// place: for each boundary in use of an even split of total, the
// candidate nearest to it among those behind the previous row's choice
// (the earlier one on a tie). Chosen positions therefore increase by
// row — a row at or behind its predecessor would start a chunk inside
// an earlier chunk — and a boundary with no candidate left gets no row.
func (p *predictor[S]) promote(total int64, memos []memo[S]) []memo[S] {
	out, from, parts, step := memos[:0], 0, len(p.rows)+1, p.step()
	for k := step; k < parts && from < len(memos); k += step {
		boundary := total * int64(k) / int64(parts)
		dist := func(ci int) int64 { return max(memos[ci].pos-boundary, boundary-memos[ci].pos) }
		best := from
		for ci := from + 1; ci < len(memos); ci++ {
			if dist(ci) < dist(best) {
				best = ci
			}
		}
		// len(out) <= from < best+1: the write lands behind the scan.
		out = append(out, memo[S]{row: k - 1, state: memos[best].state, pos: memos[best].pos})
		from = best + 1
	}
	return out
}

// specCap returns the runaway-traversal bound for speculative chunks:
// four times the last trip count plus 1024, or 1<<20 before the first
// — unless override (Config.maxSpec) is positive.
func (p *predictor[S]) specCap(override int64) int64 {
	if override > 0 {
		return override
	}
	if p.prevTotal > 0 {
		return 4*p.prevTotal + 1024
	}
	return 1 << 20
}

// apply installs the surviving memoizations, in place of the rows the
// invocation read, and the trip count the next invocation's boundaries
// are planned from. total is the invocation's committed trip count;
// memos are ordered by commit position, so later (more-rebalanced, e.g.
// a later round's) writes win.
func (p *predictor[S]) apply(total int64, memos []memo[S]) {
	clear(p.rows)
	for _, m := range memos {
		if m.row < 0 || m.row >= len(p.rows) {
			continue
		}
		p.rows[m.row] = row[S]{start: m.state, pos: m.pos, valid: true}
	}
	p.prevTotal = total
}
