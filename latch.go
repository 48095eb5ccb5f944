package spice

import (
	"runtime"
	"sync/atomic"
	"time"
)

// This file is the invocation completion latch: the join point between
// a dispatch round's chunks and the invoking goroutine. A
// sync.WaitGroup is general — any number of waiters, Add/Wait races
// guarded by extra state transitions — and its Wait parks on the
// runtime semaphore immediately. A dispatch round needs none of that
// generality: exactly one waiter (the invoker, which just ran chunk 0
// inline), a count armed strictly before any decrement can reach zero
// (jobs are submitted after add), and chunks that — on a balanced plan
// — finish within microseconds of chunk 0. The latch exploits all
// three:
//
//   - add/done are single atomic adds on one dedicated cache line;
//   - the waiter spins until a deadline before parking, so a round
//     whose last chunk completes shortly after the invoker's own share
//     costs no park/wake round trip at all;
//   - parking is a single channel receive of one token, sent by
//     whichever done() both reached zero and observed a parked waiter —
//     at most one token per round, consumed by the round that sent it.
//
// The latch is the join step of the round handoff protocol described
// in the executor.go header (claim, join, lease). Its part of the
// contract: the scheduler calls wait only once every chunk of the round
// has been claimed, so whatever is still outstanding is running on
// another processor and spinning for it is waiting on work in progress,
// never on work nobody has started; and the spin is bounded in time —
// by the caller's deadline (what its own share of the round just took)
// and by the latch's own cap — never by an iteration count, because a
// spinning goroutine that yields is handed straight back by the Go
// scheduler without a network poll in between, and an open-ended spin
// was measured to delay a daemon's incoming requests until sysmon
// polled for them.
//
// The cap is topology-aware: on a single-proc host (effective
// GOMAXPROCS 1 at construction) spinning can only delay the workers the
// waiter is waiting for, so the latch parks immediately, which hands
// the processor to them — exactly the WaitGroup behaviour.

// joinSpinCap bounds the waiter's pre-park spin however long its own
// share of the round took: a chunk still running on another processor
// after that long is no longer "about to finish", and a park/wake round
// trip (tens of microseconds) is then noise against the wait itself.
const joinSpinCap = 100 * time.Microsecond

// joinSpinStride is the number of latch loads between deadline checks.
// Each check reads the clock and yields, so a waiter sharing its
// processor with a runnable goroutine (oversubscribed host) donates
// the timeslice instead of burning its whole budget.
const joinSpinStride = 256

// clockBase anchors nanos: differences of monotonic readings are all
// the handoff protocol needs, and time.Since on a monotonic base is a
// single clock read.
var clockBase = time.Now()

// nanos is the handoff protocol's monotonic clock, in nanoseconds.
func nanos() int64 { return int64(time.Since(clockBase)) }

// latch is a single-waiter completion barrier. state packs the
// outstanding-chunk count in the high 63 bits and a "waiter parked" bit
// in bit 0:
//
//	state = outstanding<<1 | parked
//
// Exactly one goroutine calls add/wait (the invoker; rounds are
// strictly sequential), and each chunk calls done exactly once per
// round. The done() that brings the count to zero *and* sees the parked
// bit sends the round's single wake token; a waiter that registered the
// parked bit but lost the race to a finishing chunk (its add(1) saw the
// count already at zero) withdraws the bit and never consumes a token,
// so the channel is empty between rounds by construction.
type latch struct {
	state atomic.Int64
	_     [56]byte // keep the hammered counter off the neighbouring fields
	// park carries the single wake token of a parked round. Buffered so
	// the final done() never blocks inside a chunk's deferred epilogue.
	park chan struct{}
	// spin caps the pre-park spin in nanoseconds, fixed at construction
	// from the effective GOMAXPROCS (0 on single-proc hosts: parking
	// immediately hands the processor to the workers being waited on).
	// Tests zero it to force the park path.
	spin int64
}

// init initializes l in place with a topology-appropriate spin cap.
func (l *latch) init() {
	l.park = make(chan struct{}, 1)
	if runtime.GOMAXPROCS(0) > 1 {
		l.spin = int64(joinSpinCap)
	}
}

// add arms n more completions. Must only be called by the waiter
// goroutine, strictly before wait() of the same round.
func (l *latch) add(n int) {
	l.state.Add(int64(n) << 1)
}

// done signals one completion. The decrement that both reaches a zero
// count and observes the parked bit delivers the round's wake token.
func (l *latch) done() {
	if l.state.Add(-1<<1) == 1 {
		l.park <- struct{}{}
	}
}

// wait blocks the (single) waiter until every armed completion has
// signalled. now is the caller's latest clock reading and budget how
// long past it spinning is worth (nanoseconds; capped by l.spin): the
// waiter spins until then, and parks on the token channel after.
func (l *latch) wait(now, budget int64) {
	if l.state.Load() == 0 {
		return
	}
	if budget = min(budget, l.spin); budget > 0 {
		deadline := now + budget
		for {
			for i := 0; i < joinSpinStride; i++ {
				if l.state.Load() == 0 {
					return
				}
			}
			if nanos() >= deadline {
				break
			}
			runtime.Gosched()
		}
	}
	// Register as parked. If the count already hit zero, the final
	// done() ran entirely before the registration and saw the bit clear
	// — no token is coming — so withdraw and return.
	if l.state.Add(1)>>1 == 0 {
		l.state.Add(-1)
		return
	}
	<-l.park
	l.state.Add(-1) // clear the parked bit: state is 0 between rounds
}
