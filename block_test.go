package spice

// Tests for the block-structured hot loop and the inline chunk-0 path:
// panic containment on the invoking goroutine, mid-chunk-0
// cancellation, the same two on the block form of the loop (Loop.Scan),
// state-pinning regression guards for parked runners (weak-pointer
// probes plus explicit zero checks), and the narrow-width slot-reset
// leak guard.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"weak"
)

// blockList is the n-node list the tests here run on, and its nodes.
func blockList(n int) (*gen, []*mnode) {
	g := newList(rand.New(rand.NewSource(17)), n, 1<<20)
	return g, g.nodes()
}

// armedLoop is the plain loop whose Body calls trap, once armed, before
// node at.
func armedLoop(armed *atomic.Bool, at *mnode, trap func()) Loop[*mnode, tally] {
	return hookLoop(func(n *mnode) {
		if n == at && armed.Load() {
			trap()
		}
	})
}

// TestInlineChunk0PanicRunsOnCaller proves both halves of the inline
// chunk-0 contract: a panic in chunk 0's region surfaces as a
// *PanicError (not a process crash), and the captured stack shows the
// panic was recovered on the invoking goroutine — the test function's
// own frame is on it, which is impossible for an executor worker.
func TestInlineChunk0PanicRunsOnCaller(t *testing.T) {
	g, ns := blockList(20_000)
	var armed atomic.Bool
	r := newRunner(t, armedLoop(&armed, ns[3], func() { panic("chunk0 boom") }), Config{Threads: 4, depth: 1})
	g.exact(t, r) // bootstrap

	armed.Store(true)
	_, rerr := r.Run(context.Background(), g.head) // parallel round: node 3 is chunk 0's
	pe := wantPanic(t, rerr)
	if pe.Value != "chunk0 boom" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "TestInlineChunk0PanicRunsOnCaller") {
		t.Errorf("panic was not recovered on the invoking goroutine; stack:\n%s", pe.Stack)
	}

	// The runner (and its inline path) stays usable after containment.
	armed.Store(false)
	g.exact(t, r)
}

// TestInlineChunk0MidChunkCancel cancels the context from inside chunk
// 0's region, after the invocation has dispatched: the inline chunk
// must observe the cancellation at its next amortized poll point and
// the invocation must fail with the context's error, leaving the
// runner usable.
func TestInlineChunk0MidChunkCancel(t *testing.T) {
	g, ns := blockList(60_000)
	var armed atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Node 100 is deep inside chunk 0's region, far from any predicted start.
	r := newRunner(t, armedLoop(&armed, ns[100], cancel), Config{Threads: 4, depth: 1})
	g.exact(t, r) // bootstrap

	armed.Store(true)
	_, rerr := r.Run(ctx, g.head)
	wantErr(t, rerr, context.Canceled)

	armed.Store(false)
	g.exact(t, r)
}

// TestFallibleBodyPanicContained covers the fallible scan variants'
// panic recovery: a BodyErr that panics (instead of returning an
// error) must still surface as *PanicError from both the sequential
// path (blockScanToEndErr) and a committed speculative chunk
// (blockScanMatchErr), with exact squash accounting either way.
func TestFallibleBodyPanicContained(t *testing.T) {
	g, ns := blockList(40_000)
	var armed atomic.Bool
	loop := armedLoop(&armed, ns[15_000], func() { panic("fallible boom") }) // chunk 1's region at 4 threads
	body := loop.Body
	loop.Body, loop.BodyErr = nil, func(n *mnode, a tally) (tally, error) { return body(n, a), nil }

	// Sequential: the panic unwinds through blockScanToEndErr.
	seq := newRunner(t, loop, Config{Threads: 1})
	armed.Store(true)
	_, rerr := seq.Run(context.Background(), g.head)
	wantPanic(t, rerr)

	// Parallel: the panic lands in a hunting chunk (blockScanMatchErr)
	// whose predecessors all match, so it is the first failure in
	// iteration order and must surface.
	armed.Store(false)
	par := newRunner(t, loop, Config{Threads: 4, depth: 1})
	g.exact(t, par) // bootstrap
	armed.Store(true)
	_, rerr = par.Run(context.Background(), g.head)
	if pe := wantPanic(t, rerr); pe.Value != "fallible boom" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	armed.Store(false)
	g.exact(t, par)
}

// scanBoom is the user frame a contained Scan panic must show.
func scanBoom() { panic("scan boom") }

// TestScanPanicContained covers blockLoopScan's recovery: a Scan that
// panics mid-block surfaces as *PanicError — user frame in the stack —
// from the sequential path and from a committed chunk, and is discarded
// with a squashed chunk. Scan reports its count only by returning, so
// the panicked chunk is charged the iterations of the blocks that
// completed before the one that panicked: exact to the block boundary,
// where the closure path is exact to the iteration.
func TestScanPanicContained(t *testing.T) {
	var armed atomic.Bool
	var at atomic.Pointer[mnode]
	trap := func(n *mnode) {
		if armed.Load() && n == at.Load() {
			scanBoom()
		}
	}
	loop := hookedScan(func(n *mnode, a tally, k, lim int64) (*mnode, tally, int64, bool) {
		trap(n)
		return nil, a, 0, false
	})
	closures := hookLoop(trap)
	// Node 39 000 is 6 232 iterations into the chain's last chunk at width
	// 4 (it starts at 32 768, where the bootstrap memoized): nothing runs
	// behind it, so the failed invocation's SquashedIters is that chunk's
	// charge alone.
	const node, chunkStart = 39_000, 32_768
	run := func(t *testing.T, l Loop[*mnode, tally], threads int) (Stats, *PanicError) {
		t.Helper()
		g, ns := blockList(40_000)
		r := newRunner(t, l, Config{Threads: threads, depth: 1})
		g.exact(t, r) // bootstrap
		before := r.Stats()
		at.Store(ns[node])
		armed.Store(true)
		_, rerr := r.Run(context.Background(), g.head)
		armed.Store(false)
		var pe *PanicError
		if !errors.As(rerr, &pe) || pe.Value != "scan boom" {
			t.Fatalf("err = %v, want *PanicError(scan boom)", rerr)
		}
		if !strings.Contains(string(pe.Stack), "scanBoom") {
			t.Errorf("the user frame is not in the captured stack:\n%s", pe.Stack)
		}
		st := r.Stats().Delta(before)
		g.exact(t, r)
		return st, pe
	}
	t.Run("sequential", func(t *testing.T) { run(t, loop, 1) })
	t.Run("committed chunk", func(t *testing.T) {
		st, _ := run(t, loop, 4)
		ref, _ := run(t, closures, 4)
		// The closure path charges the started iterations, the failing
		// one included; the block form stops at the last poll boundary
		// before it (polls fall every ctxPollEvery iterations from
		// ctxPollEvery-1 on, and this chunk has no other block boundary).
		const started = node - chunkStart + 1
		if ref.SquashedIters != started {
			t.Fatalf("closure path charged %d iterations, want %d", ref.SquashedIters, started)
		}
		want := int64((started-ctxPollEvery)/ctxPollEvery*ctxPollEvery + ctxPollEvery - 1)
		if st.SquashedIters != want || started-want >= ctxPollEvery {
			t.Fatalf("block form charged %d iterations, want %d (the last block boundary before iteration %d)",
				st.SquashedIters, want, started)
		}
	})
	t.Run("squashed chunk", func(t *testing.T) { squashedTrap(t, loop, &armed, &at) })
}

// TestScanBlocksBounded: the block form is handed at most ctxPollEvery
// iterations at a time, which is what keeps cancellation and the abort
// barrier within one block of a chunk that runs through Scan — checked
// here with a cancel issued from inside chunk 0, as
// TestInlineChunk0MidChunkCancel does for the closure path.
func TestScanBlocksBounded(t *testing.T) {
	g, _ := blockList(60_000)
	loop := hookedScan(nil)
	index := positions(g.head, loop.Done, loop.Next)
	var widest atomic.Int64
	var cancelFn atomic.Value // context.CancelFunc, armed per attempt
	var sinceCancel atomic.Int64
	loop = hookedScan(func(n *mnode, a tally, k, lim int64) (*mnode, tally, int64, bool) {
		if k == 0 && lim > widest.Load() {
			widest.Store(lim) // racy max is fine: any block over the bound fails the test
		}
		if c, ok := cancelFn.Load().(context.CancelFunc); ok && c != nil {
			if i := index[n]; i == 100 {
				c()
			} else if i > 100 && i < 15_000 { // chunk 0's region
				sinceCancel.Add(1)
			}
		}
		return nil, a, 0, false
	})
	for _, threads := range []int{1, 4} {
		r := newRunner(t, loop, Config{Threads: threads, depth: 1})
		g.exact(t, r) // bootstrap
		ctx, cancel := context.WithCancel(context.Background())
		sinceCancel.Store(0)
		cancelFn.Store(cancel)
		_, rerr := r.Run(ctx, g.head)
		cancelFn.Store(context.CancelFunc(nil))
		cancel()
		wantErr(t, rerr, context.Canceled)
		if ran := sinceCancel.Load(); ran > ctxPollEvery {
			t.Fatalf("t%d: the cancelled chunk ran %d more iterations, want at most one block (%d)", threads, ran, ctxPollEvery)
		}
		g.exact(t, r)
		r.Close()
	}
	if w := widest.Load(); w < 1 || w > ctxPollEvery {
		t.Fatalf("widest block handed to Scan: %d iterations, want 1..%d", w, ctxPollEvery)
	}
}

// TestReleaseZeroesInvocationState is the explicit zero-check half of
// the pinning regression guard: after a parallel invocation completes,
// the runner's release must have cleared every caller-derived value
// from the preallocated jobs and their lanes — contexts, start states,
// successor states, proposal states, end states, accumulators — the
// chunk index (r.chunks) and the memo buffer — and the round, which
// holds the live state, the accumulator and the failure, after a
// success, after a failure, and after a round of one that follows wider
// ones. Its slots carry two chunks each, so both lanes of a slot are
// checked. A DOALL runner has no CellView; a DOACROSS runner has one per
// slot from NewRunner on, and after a round narrower than the ones
// before it no view keeps the store either.
func TestReleaseZeroesInvocationState(t *testing.T) {
	g, _ := blockList(30_000)
	r := newRunner(t, plainLoop(), Config{Threads: 4, depth: 2})
	if r.views != nil {
		t.Fatalf("a DOALL runner has %d cell views, want none", len(r.views))
	}
	g.warm(t, r, 4) // bootstrap + parallel steady state
	checkReleased(t, r, "after a success")
	// Cancelled at slot 1's check in round 0's dispatch: chunk 0 runs
	// alone and the invocation fails with the ctx error.
	ctx := &scriptedCtx{Context: context.Background(), cancelAt: 3}
	_, err := r.Run(ctx, g.head)
	wantErr(t, err, context.Canceled)
	checkReleased(t, r, "after a failure")
	// Nothing predicted: a round of one on slot 0 after the wide rounds.
	r.pred.reset()
	g.exact(t, r)
	checkReleased(t, r, "after a narrow round")

	p := odPatterns[2] // disjoint: every round commits every chunk
	cg := odList(p.dst, p.size)
	cr := newRunner(t, cg.loop(false), Config{Threads: 4})
	if len(cr.views) != 4 {
		t.Fatalf("a DOACROSS runner of 4 slots has %d cell views from NewRunner on, want 4", len(cr.views))
	}
	for op := range 3 {
		odRun(t, cr, cg, op)
	}
	if n := busy(cr.Stats().LastWorks); n != 4 {
		t.Fatalf("DOACROSS warm-up rounds used %d slots, want 4", n)
	}
	cr.pred.reset()
	odRun(t, cr, cg, 3)
	checkReleased(t, cr, "DOACROSS, after a narrow round")
	for j := range cr.views {
		if cr.views[j].words != nil {
			t.Fatalf("view %d keeps the store after a narrow round", j)
		}
	}
}

// checkReleased fails t if any slot, lane, chunk index entry, memo or
// the round still holds invocation state (TestReleaseZeroesInvocationState).
func checkReleased(t *testing.T, r *Runner[*mnode, tally], when string) {
	t.Helper()
	for j := range r.jobs {
		job := &r.jobs[j]
		if job.ctx != nil {
			t.Fatalf("%s: job %d retains its context", when, j)
		}
		for i, l := range job.lanes {
			hunts := slices.ContainsFunc(l.window, func(t target[*mnode]) bool { return t.s != nil })
			if l.start != nil || l.plan != nil || l.s != nil || hunts || l.acc != (tally{}) || l.err != nil {
				t.Fatalf("%s: job %d lane %d retains invocation state: %+v", when, j, i, l)
			}
			props := l.props[:cap(l.props)]
			for k := range props {
				if props[k].state != nil {
					t.Fatalf("%s: job %d lane %d proposal buffer retains node state at %d", when, j, i, k)
				}
			}
		}
	}
	for c, l := range r.chunks {
		if l != nil {
			t.Fatalf("%s: chunk %d still names its lane", when, c)
		}
	}
	memos := r.memos[:cap(r.memos)]
	for i := range memos {
		if memos[i].state != nil {
			t.Fatalf("%s: memo buffer retains node state at %d", when, i)
		}
	}
	if r.rd != (round[*mnode, tally]{}) {
		t.Fatalf("%s: round retains invocation state: %+v", when, r.rd)
	}
}

// TestResetRunnerPinsNothing is the weak-pointer half: a runner that
// traversed a structure, then was reset (the Pool session-boundary
// path), must not keep a single node of that structure alive — the
// predictor's rows and the runner's job/lane/memo buffers all hold node
// states at some point and must all let go — paired slots' second lanes
// included.
func TestResetRunnerPinsNothing(t *testing.T) {
	r := newRunner(t, plainLoop(), Config{Threads: 4, depth: 2})
	// Build, traverse, and probe inside a helper so no test frame keeps
	// a node reachable after it returns.
	weaks := func() []weak.Pointer[mnode] {
		g, ns := blockList(8_192)
		g.warm(t, r, 6)
		var ws []weak.Pointer[mnode]
		for _, n := range ns {
			ws = append(ws, weak.Make(n))
		}
		return ws
	}()
	r.reset()
	runtime.GC()
	runtime.GC()
	alive := 0
	for _, w := range weaks {
		if w.Value() != nil {
			alive++
		}
	}
	if alive > 0 {
		t.Fatalf("%d of %d nodes still pinned by a reset runner", alive, len(weaks))
	}
}

// TestNarrowRoundLeaksNoStaleSlots guards the narrowed slot reset: a
// wide parallel round followed by narrower rounds (a shrunken dispatch
// chain, then the sequential path) must not leak the wide round's
// works into LastWorks or its results into squash accounting.
func TestNarrowRoundLeaksNoStaleSlots(t *testing.T) {
	g, _ := blockList(40_000)
	r := newRunner(t, plainLoop(), Config{Threads: 4, depth: 1})
	g.exact(t, r) // bootstrap
	g.exact(t, r)
	wide := r.Stats()
	if n := busy(wide.LastWorks); n != 4 {
		t.Fatalf("wide round used %d chunks, want 4 (works %v)", n, wide.LastWorks)
	}

	// Narrow the dispatch chain to 2 chunks by invalidating two SVA
	// rows (white-box: the adaptive controller would do the same by
	// gating them).
	r.pred.rows[indexRow(1)].valid = false
	r.pred.rows[indexRow(2)].valid = false
	g.exact(t, r)
	st := r.Stats()
	if st.LastWorks[2] != 0 || st.LastWorks[3] != 0 {
		t.Fatalf("narrow round leaked stale wide-round works: %v", st.LastWorks)
	}
	if st.LastWorks[0]+st.LastWorks[1] != int64(40_000) {
		t.Fatalf("narrow round works %v do not sum to the trip count", st.LastWorks)
	}
	if st.SquashedIters != wide.SquashedIters {
		t.Fatalf("narrow round charged stale slots to squash accounting: %d -> %d",
			wide.SquashedIters, st.SquashedIters)
	}

	// Sequential after parallel: only slot 0 populated, the wide
	// round's other slots fully cleared.
	r.pred.reset()
	g.exact(t, r)
	st = r.Stats()
	if st.LastWorks[0] != int64(40_000) || st.LastWorks[1] != 0 || st.LastWorks[2] != 0 || st.LastWorks[3] != 0 {
		t.Fatalf("sequential round leaked stale parallel works: %v", st.LastWorks)
	}
}
