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
// blockOf picks the routine once, when the runner is built, from the
// loop's body form: one loop each for the two body shapes, Body and
// SpecBody, so the per-iteration body carries no form branches, and the
// adapter blockScan for a loop that sets Loop.Scan — the block then
// goes to the caller's own compiled loop, and the driver's block
// structure around it is unchanged. The fallible forms ride the
// infallible loops: blockOf wraps BodyErr or SpecBodyErr in a closure
// that panics with a bodyFailure on an error, and the routine's
// recovery returns that failure's state and error as they are. Only a
// fallible loop pays the extra call; a Body or SpecBody loop calls its
// body directly.
//
// Whether a block hunts its successor's predicted start (membership
// validation — every chunk with a successor) or not (the chain's last
// chunk, a round of one) is an argument, not a second copy of the loop.
// It has to be an argument: a block that hunts nothing has no stop
// state to pass but the zero S, and the zero S may be a live state of
// the traversal (an int index 0), so the match test is
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

// blockOf returns the block routine of a validated loop.
func blockOf[S comparable, A any](l *Loop[S, A]) blockFn[S, A] {
	var ref blockFn[S, A] // the reference form: Done / body / Next, one call each per iteration
	switch {
	case l.Body != nil:
		ref = blockBody(l.Done, l.Next, l.Body)
	case l.BodyErr != nil:
		body := l.BodyErr
		ref = blockBody(l.Done, l.Next, func(s S, acc A) A {
			acc, err := body(s, acc)
			if err != nil {
				panic(bodyFailure[S]{s, err})
			}
			return acc
		})
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
		return blockScan(l.Done, l.Scan, ref)
	}
	return ref
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
