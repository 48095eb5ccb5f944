package spice

import "fmt"

// This file is the block-structured iteration hot path shared by every
// execution mode of the native runtime: parallel chunks (chunkJob.run),
// the sequential fallback (Runner.runSequential), and parallel squash
// recovery (which dispatches through chunkJob.run). The drivers cut a
// traversal into bounded blocks — each block ends at the nearest pending
// event: the next context-poll point, the next memoization-plan
// threshold, the speculative iteration cap, or a positional-validation
// peek — and hand each block to one of the monomorphic scan variants
// below. Inside a block the per-iteration body is exactly
// Done/match/Body/Next on register-resident state: no through-pointer
// stores into the shared result struct, no plan-cursor or cap compares,
// no poll mask. All slow-path bookkeeping happens between blocks, on
// amortized boundaries.
//
// The variants are monomorphic copies of the same loop, selected once
// per chunk instead of branching per iteration:
//
//   - blockScanMatch:     infallible body, hunting a successor's
//     predicted start (membership validation — the common case).
//   - blockScanToEnd:     infallible body, no hunt: the chain's last
//     chunk, the sequential path, and positional-validation chunks
//     (whose single membership peek fires on a block boundary instead
//     of per iteration).
//   - blockScanMatchErr /
//     blockScanToEndErr:  the fallible (Loop.BodyErr) counterparts.
//
// A loop that sets Loop.Scan replaces all of them with blockLoopScan
// (at the end of this file): the block goes to the caller's own compiled
// loop, and the driver's block structure around it is unchanged.
//
// Panic containment and squash accounting: each variant recovers a
// panicking callback itself and reports it as a *PanicError return. The
// iteration counter k is a named result referenced by that recovery
// defer, so Go keeps it memory-backed and the count of *started*
// iterations is exact even when Body or Next panics mid-block — squash
// accounting for panicked chunks loses nothing to the block structure.
// The store-per-iteration this forces is to the variant's own stack
// frame (not the shared result struct), which the measured hot loop
// absorbs in the shadow of the pointer-chase load latency.

// blockStop reports why a scan variant returned.
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

// blockScanMatch executes up to n iterations from s, stopping early when
// the traversal ends or snapStart appears. The fast path of speculative
// chunks under membership validation.
func blockScanMatch[S comparable, A any](
	done func(S) bool, next func(S) S, body func(S, A) A,
	s S, acc A, snapStart S, n int64,
) (outS S, outAcc A, k int64, stop blockStop, err error) {
	defer func() {
		if v := recover(); v != nil {
			stop, err = blockFailed, newPanicError(v)
		}
	}()
	for k < n {
		if done(s) {
			return s, acc, k, blockDone, nil
		}
		if s == snapStart {
			return s, acc, k, blockMatched, nil
		}
		k++ // charge the started iteration before user code can panic
		acc = body(s, acc)
		s = next(s)
	}
	return s, acc, k, blockFilled, nil
}

// blockScanToEnd is blockScanMatch without a hunt: the chain's last
// chunk, the sequential path, and positional-validation chunks.
func blockScanToEnd[S comparable, A any](
	done func(S) bool, next func(S) S, body func(S, A) A,
	s S, acc A, n int64,
) (outS S, outAcc A, k int64, stop blockStop, err error) {
	defer func() {
		if v := recover(); v != nil {
			stop, err = blockFailed, newPanicError(v)
		}
	}()
	for k < n {
		if done(s) {
			return s, acc, k, blockDone, nil
		}
		k++
		acc = body(s, acc)
		s = next(s)
	}
	return s, acc, k, blockFilled, nil
}

// blockScanMatchErr is the fallible-body counterpart of blockScanMatch.
func blockScanMatchErr[S comparable, A any](
	done func(S) bool, next func(S) S, body func(S, A) (A, error),
	s S, acc A, snapStart S, n int64,
) (outS S, outAcc A, k int64, stop blockStop, err error) {
	defer func() {
		if v := recover(); v != nil {
			stop, err = blockFailed, newPanicError(v)
		}
	}()
	for k < n {
		if done(s) {
			return s, acc, k, blockDone, nil
		}
		if s == snapStart {
			return s, acc, k, blockMatched, nil
		}
		k++
		var e error
		if acc, e = body(s, acc); e != nil {
			return s, acc, k, blockFailed, e
		}
		s = next(s)
	}
	return s, acc, k, blockFilled, nil
}

// blockScanToEndErr is the fallible-body counterpart of blockScanToEnd.
func blockScanToEndErr[S comparable, A any](
	done func(S) bool, next func(S) S, body func(S, A) (A, error),
	s S, acc A, n int64,
) (outS S, outAcc A, k int64, stop blockStop, err error) {
	defer func() {
		if v := recover(); v != nil {
			stop, err = blockFailed, newPanicError(v)
		}
	}()
	for k < n {
		if done(s) {
			return s, acc, k, blockDone, nil
		}
		k++
		var e error
		if acc, e = body(s, acc); e != nil {
			return s, acc, k, blockFailed, e
		}
		s = next(s)
	}
	return s, acc, k, blockFilled, nil
}

// The blockSpec* variants below are the DOACROSS (Loop.SpecBody /
// SpecBodyErr) counterparts: the same four monomorphic scans with the
// chunk's CellView threaded to the body. The view pointer is loop
// invariant — buffering, forwarding, and read-set recording happen
// inside the view's Load/Store/Reduce, so the scan structure (and the
// panic-containment / k-charging discipline above) is unchanged.

// blockSpecScanMatch is the speculative-body blockScanMatch.
func blockSpecScanMatch[S comparable, A any](
	done func(S) bool, next func(S) S, body func(S, A, *CellView) A, view *CellView,
	s S, acc A, snapStart S, n int64,
) (outS S, outAcc A, k int64, stop blockStop, err error) {
	defer func() {
		if v := recover(); v != nil {
			stop, err = blockFailed, newPanicError(v)
		}
	}()
	for k < n {
		if done(s) {
			return s, acc, k, blockDone, nil
		}
		if s == snapStart {
			return s, acc, k, blockMatched, nil
		}
		k++
		acc = body(s, acc, view)
		s = next(s)
	}
	return s, acc, k, blockFilled, nil
}

// blockSpecScanToEnd is the speculative-body blockScanToEnd.
func blockSpecScanToEnd[S comparable, A any](
	done func(S) bool, next func(S) S, body func(S, A, *CellView) A, view *CellView,
	s S, acc A, n int64,
) (outS S, outAcc A, k int64, stop blockStop, err error) {
	defer func() {
		if v := recover(); v != nil {
			stop, err = blockFailed, newPanicError(v)
		}
	}()
	for k < n {
		if done(s) {
			return s, acc, k, blockDone, nil
		}
		k++
		acc = body(s, acc, view)
		s = next(s)
	}
	return s, acc, k, blockFilled, nil
}

// blockSpecScanMatchErr is the fallible speculative-body blockScanMatch.
func blockSpecScanMatchErr[S comparable, A any](
	done func(S) bool, next func(S) S, body func(S, A, *CellView) (A, error), view *CellView,
	s S, acc A, snapStart S, n int64,
) (outS S, outAcc A, k int64, stop blockStop, err error) {
	defer func() {
		if v := recover(); v != nil {
			stop, err = blockFailed, newPanicError(v)
		}
	}()
	for k < n {
		if done(s) {
			return s, acc, k, blockDone, nil
		}
		if s == snapStart {
			return s, acc, k, blockMatched, nil
		}
		k++
		var e error
		if acc, e = body(s, acc, view); e != nil {
			return s, acc, k, blockFailed, e
		}
		s = next(s)
	}
	return s, acc, k, blockFilled, nil
}

// blockSpecScanToEndErr is the fallible speculative-body blockScanToEnd.
func blockSpecScanToEndErr[S comparable, A any](
	done func(S) bool, next func(S) S, body func(S, A, *CellView) (A, error), view *CellView,
	s S, acc A, n int64,
) (outS S, outAcc A, k int64, stop blockStop, err error) {
	defer func() {
		if v := recover(); v != nil {
			stop, err = blockFailed, newPanicError(v)
		}
	}()
	for k < n {
		if done(s) {
			return s, acc, k, blockDone, nil
		}
		k++
		var e error
		if acc, e = body(s, acc, view); e != nil {
			return s, acc, k, blockFailed, e
		}
		s = next(s)
	}
	return s, acc, k, blockFilled, nil
}

// blockLoopScan is the block of a loop that sets Loop.Scan: the caller's
// compiled loop runs the iterations, this wrapper contains it (recover →
// *PanicError, contract checks → ErrBadScan) and classifies its stop the
// way the closure variants above do, so the drivers treat both alike. A
// hunting block passes the successor's predicted start as stop; every
// other block passes the zero S, and if Scan then stops on a live state
// that happens to equal it, that one iteration runs here through
// Body/Next and the block goes on.
//
// Scan reports its count only by returning, so a panic inside it loses
// the block's iterations: k covers the calls that returned, and squash
// accounting for a panicked Scan chunk is exact to the block boundary
// (the closure variants are exact to the iteration).
func blockLoopScan[S comparable, A any](
	l *Loop[S, A], view *CellView,
	s S, acc A, stop S, hunt bool, n int64,
) (outS S, outAcc A, k int64, why blockStop, err error) {
	outS, outAcc = s, acc
	defer func() {
		if v := recover(); v != nil {
			why, err = blockFailed, newPanicError(v)
		}
	}()
	for k < n {
		left := n - k
		ns, nacc, c := l.Scan(outS, outAcc, view, stop, left)
		if c < 0 || c > left {
			return outS, outAcc, k, blockFailed, fmt.Errorf("%w: ran %d iterations of a %d-iteration block", ErrBadScan, c, left)
		}
		outS, outAcc, k = ns, nacc, k+c
		if k == n {
			break
		}
		if l.Done(outS) {
			return outS, outAcc, k, blockDone, nil
		}
		if outS != stop {
			return outS, outAcc, k, blockFailed, fmt.Errorf("%w: stopped after %d of %d iterations on a state that is neither Done nor stop", ErrBadScan, c, left)
		}
		if hunt {
			return outS, outAcc, k, blockMatched, nil
		}
		k++
		if l.Body != nil {
			outAcc = l.Body(outS, outAcc)
		} else {
			outAcc = l.SpecBody(outS, outAcc, view)
		}
		outS = l.Next(outS)
	}
	return outS, outAcc, k, blockFilled, nil
}
