package spice

import "fmt"

// This file is the block-structured iteration hot path behind the one
// chunk driver of the native runtime (chunkJob.exec): speculative
// chunks, chunk 0, later rounds, and the round of one that is the
// sequential path. The driver cuts a
// traversal into bounded blocks — each block ends at the nearest pending
// event: the next context-poll point, the next memoization-plan
// threshold, or the speculative iteration cap — and hands each block to
// the runner's one block routine
// (Runner.block, a blockFn). Inside a block the per-iteration body is
// exactly Done/match/Body/Next on register-resident state: no
// through-pointer stores into the shared result struct, no plan-cursor
// or cap compares, no poll mask. All slow-path bookkeeping happens
// between blocks, on amortized boundaries.
//
// A chunk is one link of a round's validation chain; a dispatch slot is
// one executor task, one claim word. A slot carries one chunk, or up to
// maxDepth when the runner steps several chains per slot (a DOALL
// traversal that waits on memory, adaptive.go's pairing): then the
// driver hands the slot's blocks to the group routine (Runner.group, a
// groupFn, blockGroup below), which makes one Done/Body/Next call per
// chain per step, so each core has as many independent pointer chases,
// and cache misses, in flight as the slot has chains. A chain that
// stops leaves the group; the last one left goes on alone through
// Runner.block when its window holds at most one start, not its own. At width 1 the one slot is the invoker's, so a width-1
// DOALL runner at depth D steps D chunks of its own traversal there; its
// round 0 reads the clock twice, at dispatch and after the slot, for the
// depth policy, and every other round of one reads none.
//
// blockOf picks the routines once, when the runner is built, from the
// loop's body form: one loop each for the two body shapes, Body and
// SpecBody, so the per-iteration body carries no form branches, and the
// adapter blockScan for a loop that sets Loop.Scan — the block then
// goes to the caller's own compiled loop, and the driver's block
// structure around it is unchanged. The group routine always runs the
// closures: one compiled Scan loop cannot interleave chains, and at the
// latency that makes them pay the calls cost nothing. The
// fallible forms ride the infallible loops: blockOf wraps BodyErr or
// SpecBodyErr in a closure that panics with a bodyFailure on an error,
// and the routine's recovery returns that failure's state and error as
// they are. Only a fallible loop pays the extra call; a Body or SpecBody
// loop calls its body directly.
//
// Each lane hunts its window of the round's predicted starts
// (scheduler.go): it stops at the first start of the window it meets,
// its own excepted, and records whose it was (lane.met). In a round of
// index order the window is the successor's start alone, the paper's
// membership validation; in a round that hunts the set (a runner whose
// list has been relinked) it is the whole set, and a lane of such a
// round stays in the group until it stops, the last one included —
// Runner.block and Scan take one stop, not a window — so a loop's Scan
// never runs in those rounds. The group pays one compare per start of
// the window per chain step. Such a round carries setFanout chunks a
// slot per chain in flight, and the group stays as wide as the slot's
// depth while chunks remain: the driver opens the slot's next chunk in
// place of each chain that stops (refill), so g holds the lanes opened
// so far, the stopped ones among them, and the routine steps the live
// ones.
//
// Whether a block routine's block hunts its one stop (a lone lane whose
// window holds a start — every chunk with a successor) or not (the
// chain's last chunk, a round of one) is an argument, not a second copy
// of the loop. It has to be an argument: a block that hunts nothing has
// no stop state to pass but the zero S, and the zero S may be a live
// state of the traversal (an int index 0), so the match test is
// `s == stop && hunt` — a hunting block pays the state compare it
// always paid and any other block one well-predicted compare more.
//
// Panic containment and squash accounting: each routine recovers a
// panicking callback itself and reports it as a *PanicError return (a
// bodyFailure as the error it carries). The iteration counter k is a
// named result of a function with a recovering defer, so Go keeps it
// memory-backed and the count of *started* iterations is exact even
// when Body or Next panics mid-block — squash accounting for panicked
// chunks loses nothing to the block structure. The store-per-iteration
// this forces is to the routine's own stack
// frame (not the shared result struct), which the measured hot loop
// absorbs in the shadow of the pointer-chase load latency.

// blockStop reports why a block routine returned.
type blockStop uint8

const (
	// blockFilled: the block budget was fully executed; the driver
	// processes whatever boundary event the budget was cut at.
	blockFilled blockStop = iota
	// blockDone: the traversal ended (Done reported true).
	blockDone
	// blockMatched: the successor's predicted start appeared. The
	// returned state is the matching (peeked) state and the returned
	// count excludes the peek, which did no work.
	blockMatched
	// blockFailed: the body returned an error or a callback panicked
	// (reported as *PanicError); the returned count includes the failed
	// iteration, which had started.
	blockFailed
)

// blockFn executes up to n iterations from s against the chunk's view v
// (nil for a loop without a spec body), stopping early when the
// traversal ends or, in a hunting block, when stop appears. It returns
// the state reached, the accumulator, the number of iterations started
// and why it stopped. stop means nothing unless hunt is set.
type blockFn[S comparable, A any] func(v *CellView, s S, acc A, stop S, hunt bool, n int64) (S, A, int64, blockStop, error)

// groupFn steps the live lanes of a slot (g, at most maxDepth of them
// live) in lockstep, up to n iterations each, each from its own state,
// until the block is filled or one chain stops. Each lane hunts its
// window (lane.window) but its own start and, on meeting one, records
// its chunk (lane.met). It leaves each live lane's state, accumulator,
// started-iteration count (k) and stop (why, err) in the lane; a chain
// another's stop cut short reports blockFilled, at an exact count.
type groupFn[S comparable, A any] func(g []lane[S, A], n int64)

// blockOf returns the block routine of a validated loop, and the group
// routine of a DOALL one (nil for a spec body: DOACROSS slots carry one
// chunk, since each chunk needs a CellView of its own).
func blockOf[S comparable, A any](l *Loop[S, A]) (blockFn[S, A], groupFn[S, A]) {
	var ref blockFn[S, A] // the reference form: Done / body / Next, one call each per iteration
	var group groupFn[S, A]
	switch {
	case l.Body != nil:
		ref, group = blockBody(l.Done, l.Next, l.Body), blockGroup(l.Done, l.Next, l.Body)
	case l.BodyErr != nil:
		bodyErr := l.BodyErr
		body := func(s S, acc A) A {
			acc, err := bodyErr(s, acc)
			if err != nil {
				panic(bodyFailure[S]{s, err})
			}
			return acc
		}
		ref, group = blockBody(l.Done, l.Next, body), blockGroup(l.Done, l.Next, body)
	case l.SpecBody != nil:
		ref = blockSpecBody(l.Done, l.Next, l.SpecBody)
	default:
		body := l.SpecBodyErr
		ref = blockSpecBody(l.Done, l.Next, func(s S, acc A, v *CellView) A {
			acc, err := body(s, acc, v)
			if err != nil {
				panic(bodyFailure[S]{s, err})
			}
			return acc
		})
	}
	if l.Scan != nil {
		return blockScan(l.Done, l.Scan, ref), group
	}
	return ref, group
}

// bodyFailure is the panic by which a fallible body's error leaves an
// infallible block routine (blockOf): the state whose iteration failed,
// and the error.
type bodyFailure[S comparable] struct {
	s   S
	err error
}

// failed is a block routine's recovery: a bodyFailure's state and error
// as they are, any other panic value as a *PanicError at state s.
func failed[S comparable](v any, s S) (S, blockStop, error) {
	if f, ok := v.(bodyFailure[S]); ok {
		return f.s, blockFailed, f.err
	}
	return s, blockFailed, newPanicError(v)
}

// blockBody is the block routine of a loop with an infallible Body.
func blockBody[S comparable, A any](done func(S) bool, next func(S) S, body func(S, A) A) blockFn[S, A] {
	return func(_ *CellView, s S, acc A, stop S, hunt bool, n int64) (outS S, outAcc A, k int64, why blockStop, err error) {
		defer func() {
			if v := recover(); v != nil {
				outS, why, err = failed(v, outS)
			}
		}()
		for k < n {
			if done(s) {
				return s, acc, k, blockDone, nil
			}
			if s == stop && hunt {
				return s, acc, k, blockMatched, nil
			}
			k++ // charge the started iteration before user code can panic
			acc = body(s, acc)
			s = next(s)
		}
		return s, acc, k, blockFilled, nil
	}
}

// blockGroup is the group routine of a loop with an infallible Body:
// each step runs one iteration of every live chain in lane order —
// Done, the match test and Body/Next, as blockBody does — so each
// chain's load is issued while the ones before it miss. The chains'
// states, accumulators and counts sit in a fixed [maxDepth] array in the
// routine's frame, so the group allocates nothing whatever its depth. A
// chain that stops returns the group at once: every chain before it in
// the step has started one iteration more than it, every chain after it
// as many. A chain pays a compare per start of its window, in window
// order; its own start may be in the window but never stops it.
//
// Panic containment is per chain. on names the chain whose callback is
// running, and the recovering defer writes every chain back to its
// lane, so each reports its started iterations exactly, as blockBody
// does; the failed chain reports what blockBody would (the failing
// state of a bodyFailure, else the zero S, and the zero accumulator),
// and the others their exact state to go on from.
func blockGroup[S comparable, A any](done func(S) bool, next func(S) S, body func(S, A) A) groupFn[S, A] {
	type chain struct {
		s      S
		acc    A
		k      int64
		window []target[S]
		l      *lane[S, A]
	}
	return func(g []lane[S, A], n int64) {
		var ch [maxDepth]chain
		d := 0
		for i := range g {
			if l := &g[i]; l.live {
				ch[d] = chain{s: l.s, acc: l.acc, window: l.window, l: l}
				l.why, l.err = blockFilled, nil
				d++
			}
		}
		if d == 0 {
			return // no chain to step: without this the loop below would spin n empty steps
		}
		on := 0
		defer func() {
			for i := range d {
				c := &ch[i]
				c.l.s, c.l.acc, c.l.k = c.s, c.acc, c.k
			}
			if v := recover(); v != nil {
				var zeroS S
				var zeroA A
				l := ch[on].l
				l.s, l.why, l.err = failed(v, zeroS)
				l.acc = zeroA
			}
		}()
		live := ch[:d]
		for step := int64(0); step < n; step++ {
			for on = range live {
				c := &live[on]
				if done(c.s) {
					c.l.why = blockDone
					return
				}
				for _, t := range c.window {
					if c.s == t.s && t.c != c.l.idx {
						c.l.why, c.l.met = blockMatched, t.c
						return
					}
				}
				c.k++ // charge the started iteration before user code can panic
				c.acc = body(c.s, c.acc)
				c.s = next(c.s)
			}
		}
	}
}

// blockSpecBody is the DOACROSS (Loop.SpecBody) counterpart of
// blockBody: the same loop with the chunk's CellView threaded to the
// body. The view pointer is loop invariant — buffering, forwarding, and
// read-set recording happen inside the view's Load/Store/Reduce, so the
// loop structure (and the panic-containment / k-charging discipline
// above) is unchanged.
func blockSpecBody[S comparable, A any](done func(S) bool, next func(S) S, body func(S, A, *CellView) A) blockFn[S, A] {
	return func(view *CellView, s S, acc A, stop S, hunt bool, n int64) (outS S, outAcc A, k int64, why blockStop, err error) {
		defer func() {
			if v := recover(); v != nil {
				outS, why, err = failed(v, outS)
			}
		}()
		for k < n {
			if done(s) {
				return s, acc, k, blockDone, nil
			}
			if s == stop && hunt {
				return s, acc, k, blockMatched, nil
			}
			k++
			acc = body(s, acc, view)
			s = next(s)
		}
		return s, acc, k, blockFilled, nil
	}
}

// blockScan is the block routine of a loop that sets Loop.Scan: the
// caller's compiled loop runs the iterations, this adapter contains it
// (recover → *PanicError, contract checks → ErrBadScan) and classifies
// its stop the way the closure loops above do, so the driver treats both
// alike. A hunting block hands Scan the successor's predicted start;
// every other block hands it the zero S whatever the driver passed, and
// if Scan then stops on a live state that happens to equal it, that one
// iteration runs as a one-iteration block of ref, the loop's reference
// form, and the block goes on.
//
// Scan reports its count only by returning, so a panic inside it loses
// the block's iterations: k covers the calls that returned, and squash
// accounting for a panicked Scan chunk is exact to the block boundary
// (the closure loops are exact to the iteration).
func blockScan[S comparable, A any](
	done func(S) bool, scan func(S, A, *CellView, S, int64) (S, A, int64), ref blockFn[S, A],
) blockFn[S, A] {
	return func(view *CellView, s S, acc A, stop S, hunt bool, n int64) (outS S, outAcc A, k int64, why blockStop, err error) {
		outS, outAcc = s, acc
		if !hunt {
			var zero S
			stop = zero
		}
		defer func() {
			if v := recover(); v != nil {
				why, err = blockFailed, newPanicError(v)
			}
		}()
		for k < n {
			left := n - k
			ns, nacc, c := scan(outS, outAcc, view, stop, left)
			if c < 0 || c > left {
				return outS, outAcc, k, blockFailed, fmt.Errorf("%w: ran %d iterations of a %d-iteration block", ErrBadScan, c, left)
			}
			outS, outAcc, k = ns, nacc, k+c
			if k == n {
				break
			}
			if done(outS) {
				return outS, outAcc, k, blockDone, nil
			}
			if outS != stop {
				return outS, outAcc, k, blockFailed, fmt.Errorf("%w: stopped after %d of %d iterations on a state that is neither Done nor stop", ErrBadScan, c, left)
			}
			if hunt {
				return outS, outAcc, k, blockMatched, nil
			}
			outS, outAcc, c, why, err = ref(view, outS, outAcc, stop, false, 1)
			k += c
			if why == blockFailed {
				return outS, outAcc, k, why, err
			}
		}
		return outS, outAcc, k, blockFilled, nil
	}
}
