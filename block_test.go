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
	"strings"
	"sync/atomic"
	"testing"
	"weak"
)

type bnode struct {
	idx  int64
	w    int64
	next *bnode
}

func buildBlockList(n int) *bnode {
	rng := rand.New(rand.NewSource(17))
	var head *bnode
	for i := n - 1; i >= 0; i-- {
		head = &bnode{idx: int64(i), w: rng.Int63n(1 << 20), next: head}
	}
	return head
}

func sumBlockList(head *bnode) int64 {
	var s int64
	for n := head; n != nil; n = n.next {
		s += n.w
	}
	return s
}

func blockListLoop() Loop[*bnode, int64] {
	return Loop[*bnode, int64]{
		Done:  func(n *bnode) bool { return n == nil },
		Next:  func(n *bnode) *bnode { return n.next },
		Body:  func(n *bnode, a int64) int64 { return a + n.w },
		Init:  func() int64 { return 0 },
		Merge: func(a, b int64) int64 { return a + b },
	}
}

// TestInlineChunk0PanicRunsOnCaller proves both halves of the inline
// chunk-0 contract: a panic in chunk 0's region surfaces as a
// *PanicError (not a process crash), and the captured stack shows the
// panic was recovered on the invoking goroutine — the test function's
// own frame is on it, which is impossible for an executor worker.
func TestInlineChunk0PanicRunsOnCaller(t *testing.T) {
	head := buildBlockList(20_000)
	want := sumBlockList(head)
	var armed atomic.Bool
	loop := blockListLoop()
	loop.Body = func(n *bnode, a int64) int64 {
		if armed.Load() && n.idx == 3 {
			panic("chunk0 boom")
		}
		return a + n.w
	}
	r, err := NewRunner(loop, Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, err := r.Run(context.Background(), head); err != nil || got != want {
		t.Fatalf("bootstrap: got %d want %d err %v", got, want, err)
	}

	armed.Store(true)
	_, rerr := r.Run(context.Background(), head) // parallel round: node 3 is chunk 0's
	var pe *PanicError
	if !errors.As(rerr, &pe) {
		t.Fatalf("err = %v, want *PanicError", rerr)
	}
	if pe.Value != "chunk0 boom" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "TestInlineChunk0PanicRunsOnCaller") {
		t.Errorf("panic was not recovered on the invoking goroutine; stack:\n%s", pe.Stack)
	}

	// The runner (and its inline path) stays usable after containment.
	armed.Store(false)
	if got, err := r.Run(context.Background(), head); err != nil || got != want {
		t.Fatalf("after panic: got %d want %d err %v", got, want, err)
	}
}

// TestInlineChunk0MidChunkCancel cancels the context from inside chunk
// 0's region, after the invocation has dispatched: the inline chunk
// must observe the cancellation at its next amortized poll point and
// the invocation must fail with the context's error, leaving the
// runner usable.
func TestInlineChunk0MidChunkCancel(t *testing.T) {
	head := buildBlockList(60_000)
	want := sumBlockList(head)
	var cancelFn atomic.Value // context.CancelFunc, armed per attempt
	loop := blockListLoop()
	loop.Body = func(n *bnode, a int64) int64 {
		if n.idx == 100 { // deep inside chunk 0's region, far from any predicted start
			if c, ok := cancelFn.Load().(context.CancelFunc); ok && c != nil {
				c()
			}
		}
		return a + n.w
	}
	r, err := NewRunner(loop, Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, err := r.Run(context.Background(), head); err != nil || got != want {
		t.Fatalf("bootstrap: got %d want %d err %v", got, want, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelFn.Store(cancel)
	_, rerr := r.Run(ctx, head)
	if !errors.Is(rerr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", rerr)
	}

	cancelFn.Store(context.CancelFunc(nil))
	if got, err := r.Run(context.Background(), head); err != nil || got != want {
		t.Fatalf("after cancel: got %d want %d err %v", got, want, err)
	}
}

// TestFallibleBodyPanicContained covers the fallible scan variants'
// panic recovery: a BodyErr that panics (instead of returning an
// error) must still surface as *PanicError from both the sequential
// path (blockScanToEndErr) and a committed speculative chunk
// (blockScanMatchErr), with exact squash accounting either way.
func TestFallibleBodyPanicContained(t *testing.T) {
	head := buildBlockList(40_000)
	want := sumBlockList(head)
	var armed atomic.Bool
	loop := blockListLoop()
	loop.Body = nil
	loop.BodyErr = func(n *bnode, a int64) (int64, error) {
		if armed.Load() && n.idx == 15_000 { // chunk 1's region at 4 threads
			panic("fallible boom")
		}
		return a + n.w, nil
	}

	// Sequential: the panic unwinds through blockScanToEndErr.
	seq, err := NewRunner(loop, Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	armed.Store(true)
	var pe *PanicError
	if _, rerr := seq.Run(context.Background(), head); !errors.As(rerr, &pe) {
		t.Fatalf("sequential err = %v, want *PanicError", rerr)
	}

	// Parallel: the panic lands in a hunting chunk (blockScanMatchErr)
	// whose predecessors all match, so it is the first failure in
	// iteration order and must surface.
	armed.Store(false)
	par, err := NewRunner(loop, Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	if got, rerr := par.Run(context.Background(), head); rerr != nil || got != want {
		t.Fatalf("bootstrap: got %d want %d err %v", got, want, rerr)
	}
	armed.Store(true)
	pe = nil
	if _, rerr := par.Run(context.Background(), head); !errors.As(rerr, &pe) {
		t.Fatalf("parallel err = %v, want *PanicError", rerr)
	}
	if pe.Value != "fallible boom" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	armed.Store(false)
	if got, rerr := par.Run(context.Background(), head); rerr != nil || got != want {
		t.Fatalf("after panic: got %d want %d err %v", got, want, rerr)
	}
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
	var at atomic.Int64
	loop := blockListScanLoop(func(n *bnode, a, k, max int64) (*bnode, int64, int64, bool) {
		if armed.Load() && n.idx == at.Load() {
			scanBoom()
		}
		return nil, 0, 0, false
	})
	closures := blockListLoop()
	closures.Body = func(n *bnode, a int64) int64 {
		if armed.Load() && n.idx == at.Load() {
			scanBoom()
		}
		return a + n.w
	}
	// Node 39 000 is 6 232 iterations into the chain's last chunk at width
	// 4 (it starts at 32 768, where the bootstrap memoized): nothing runs
	// behind it, so the failed invocation's SquashedIters is that chunk's
	// charge alone.
	const node, chunkStart = 39_000, 32_768
	run := func(t *testing.T, l Loop[*bnode, int64], threads int) (Stats, *PanicError) {
		t.Helper()
		head := buildBlockList(40_000)
		want := sumBlockList(head)
		r, err := NewRunner(l, Config{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if got, err := r.Run(context.Background(), head); err != nil || got != want {
			t.Fatalf("bootstrap: got %d want %d err %v", got, want, err)
		}
		before := r.Stats()
		at.Store(node)
		armed.Store(true)
		_, rerr := r.Run(context.Background(), head)
		armed.Store(false)
		var pe *PanicError
		if !errors.As(rerr, &pe) || pe.Value != "scan boom" {
			t.Fatalf("err = %v, want *PanicError(scan boom)", rerr)
		}
		if !strings.Contains(string(pe.Stack), "scanBoom") {
			t.Errorf("the user frame is not in the captured stack:\n%s", pe.Stack)
		}
		st := r.Stats().Delta(before)
		if got, err := r.Run(context.Background(), head); err != nil || got != want {
			t.Fatalf("after the panic: got %d want %d err %v", got, want, err)
		}
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
	t.Run("squashed chunk", func(t *testing.T) {
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
			t.Fatalf("Run = %d, %v; want %d: a panic in a squashed chunk must be discarded", got, rerr, want)
		}
		if st := r.Stats(); st.Misses == 0 {
			t.Fatalf("no chunk was squashed: %+v", st)
		}
	})
}

// TestScanBlocksBounded: the block form is handed at most ctxPollEvery
// iterations at a time, which is what keeps cancellation and the abort
// barrier within one block of a chunk that runs through Scan — checked
// here with a cancel issued from inside chunk 0, as
// TestInlineChunk0MidChunkCancel does for the closure path.
func TestScanBlocksBounded(t *testing.T) {
	head := buildBlockList(60_000)
	want := sumBlockList(head)
	var widest atomic.Int64
	var cancelFn atomic.Value // context.CancelFunc, armed per attempt
	var sinceCancel atomic.Int64
	loop := blockListScanLoop(func(n *bnode, a, k, max int64) (*bnode, int64, int64, bool) {
		if k == 0 && max > widest.Load() {
			widest.Store(max) // racy max is fine: any block over the bound fails the test
		}
		if c, ok := cancelFn.Load().(context.CancelFunc); ok && c != nil {
			if n.idx == 100 {
				c()
			}
			if n.idx >= 100 && n.idx < 15_000 { // chunk 0's region
				sinceCancel.Add(1)
			}
		}
		return nil, 0, 0, false
	})
	for _, threads := range []int{1, 4} {
		r, err := NewRunner(loop, Config{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := r.Run(context.Background(), head); err != nil || got != want {
			t.Fatalf("t%d bootstrap: got %d want %d err %v", threads, got, want, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		sinceCancel.Store(0)
		cancelFn.Store(cancel)
		_, rerr := r.Run(ctx, head)
		cancelFn.Store(context.CancelFunc(nil))
		cancel()
		if !errors.Is(rerr, context.Canceled) {
			t.Fatalf("t%d: err = %v, want context.Canceled", threads, rerr)
		}
		if ran := sinceCancel.Load(); ran > ctxPollEvery {
			t.Fatalf("t%d: the cancelled chunk ran %d more iterations, want at most one block (%d)", threads, ran, ctxPollEvery)
		}
		if got, err := r.Run(context.Background(), head); err != nil || got != want {
			t.Fatalf("t%d after cancel: got %d want %d err %v", threads, got, want, err)
		}
		r.Close()
	}
	if w := widest.Load(); w < 1 || w > ctxPollEvery {
		t.Fatalf("widest block handed to Scan: %d iterations, want 1..%d", w, ctxPollEvery)
	}
}

// TestReleaseZeroesInvocationState is the explicit zero-check half of
// the pinning regression guard: after a parallel invocation completes,
// the scheduler's release must have cleared every caller-derived value
// from the preallocated jobs and results — contexts, start states,
// successor-row pointers, proposal states, end states, accumulators —
// and the memo buffer — and the round, which holds the live state, the
// accumulator and the failure, after a success and after a failure.
func TestReleaseZeroesInvocationState(t *testing.T) {
	head := buildBlockList(30_000)
	r, err := NewRunner(blockListLoop(), Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 4; i++ { // bootstrap + parallel steady state
		r.MustRun(head)
	}
	s := r.sched
	for j := range s.jobs {
		job := &s.jobs[j]
		if job.ctx != nil || job.start != nil || job.snap != nil || job.plan != nil {
			t.Fatalf("job %d retains invocation state: ctx=%v start=%v snap=%v plan=%v",
				j, job.ctx, job.start, job.snap, job.plan)
		}
		res := job.res
		if res.endState != nil || res.acc != 0 || res.err != nil {
			t.Fatalf("result %d retains invocation state: end=%v acc=%d err=%v",
				j, res.endState, res.acc, res.err)
		}
		props := res.props[:cap(res.props)]
		for i := range props {
			if props[i].state != nil {
				t.Fatalf("result %d proposal buffer retains node state at %d", j, i)
			}
		}
	}
	memos := s.memos[:cap(s.memos)]
	for i := range memos {
		if memos[i].state != nil {
			t.Fatalf("memo buffer retains node state at %d", i)
		}
	}
	if s.rd != (round[*bnode, int64]{}) {
		t.Fatalf("round retains invocation state after a success: %+v", s.rd)
	}
	// Cancelled at slot 1's check in round 0's dispatch: chunk 0 runs
	// alone and the invocation fails with the ctx error.
	ctx := &scriptedCtx{Context: context.Background(), cancelAt: 3}
	if _, err := r.Run(ctx, head); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run: err %v, want %v", err, context.Canceled)
	}
	if s.rd != (round[*bnode, int64]{}) {
		t.Fatalf("round retains invocation state after a failure: %+v", s.rd)
	}
}

// TestResetRunnerPinsNothing is the weak-pointer half: a runner that
// traversed a structure, then was reset (the Pool session-boundary
// path), must not keep a single node of that structure alive — the
// predictor's two row generations (rows, scratch) and the scheduler's
// job/result/memo buffers all hold node states at some point and must
// all let go.
func TestResetRunnerPinsNothing(t *testing.T) {
	r, err := NewRunner(blockListLoop(), Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Build, traverse, and probe inside a helper so no test frame keeps
	// a node reachable after it returns.
	weaks := func() []weak.Pointer[bnode] {
		head := buildBlockList(8_192)
		for i := 0; i < 6; i++ {
			r.MustRun(head)
		}
		var ws []weak.Pointer[bnode]
		for n := head; n != nil; n = n.next {
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
	r.Close()
}

// TestNarrowRoundLeaksNoStaleSlots guards the narrowed slot reset: a
// wide parallel round followed by narrower rounds (a shrunken dispatch
// chain, then the sequential path) must not leak the wide round's
// works into LastWorks or its results into squash accounting.
func TestNarrowRoundLeaksNoStaleSlots(t *testing.T) {
	head := buildBlockList(40_000)
	want := sumBlockList(head)
	r, err := NewRunner(blockListLoop(), Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.MustRun(head) // bootstrap
	if got := r.MustRun(head); got != want {
		t.Fatalf("wide round: got %d want %d", got, want)
	}
	wide := r.Stats()
	nonzero := 0
	for _, w := range wide.LastWorks {
		if w > 0 {
			nonzero++
		}
	}
	if nonzero != 4 {
		t.Fatalf("wide round used %d chunks, want 4 (works %v)", nonzero, wide.LastWorks)
	}

	// Narrow the dispatch chain to 2 chunks by invalidating two SVA
	// rows (white-box: the adaptive controller would do the same by
	// gating them).
	r.pred.rows[1].valid = false
	r.pred.rows[2].valid = false
	if got := r.MustRun(head); got != want {
		t.Fatalf("narrow round: got %d want %d", got, want)
	}
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
	if got, err := r.Run(context.Background(), head); err != nil || got != want {
		t.Fatalf("sequential round: got %d want %d err %v", got, want, err)
	}
	st = r.Stats()
	if st.LastWorks[0] != int64(40_000) || st.LastWorks[1] != 0 || st.LastWorks[2] != 0 || st.LastWorks[3] != 0 {
		t.Fatalf("sequential round leaked stale parallel works: %v", st.LastWorks)
	}
}
