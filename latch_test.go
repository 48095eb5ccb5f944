package spice

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// These tests cover the completion latch (latch.go) in isolation: the
// exactly-once wake-token protocol under concurrent decrements, the
// spin fast path (no token ever minted), the forced park/wake path,
// the withdraw race where the final done() completes before the
// waiter registers as parked, and the deadline that ends the spin. The invariant checked after every round
// is the one the scheduler relies on for reuse: state == 0 and an
// empty token channel between rounds.

// checkIdle asserts the between-rounds invariant.
func checkIdle(t *testing.T, l *latch, round int) {
	t.Helper()
	if got := l.state.Load(); got != 0 {
		t.Fatalf("round %d: state = %d after wait, want 0", round, got)
	}
	if n := len(l.park); n != 0 {
		t.Fatalf("round %d: %d stray wake token(s) after wait", round, n)
	}
}

func TestLatchExactlyOnceRelease(t *testing.T) {
	// Oversubscribe the scheduler so the concurrent done() calls
	// interleave aggressively even on a small host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	var l latch
	l.init()
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 400; round++ {
		// Alternate spin budgets so both the spin-observed and the
		// parked completion interleavings get hammered.
		if rng.Intn(2) == 0 {
			l.spin = 0
		} else {
			l.spin = int64(joinSpinCap)
		}
		n := rng.Intn(8) + 1
		l.add(n)
		var gate sync.WaitGroup
		gate.Add(1)
		for i := 0; i < n; i++ {
			go func() {
				gate.Wait()
				l.done()
			}()
		}
		gate.Done() // release all decrements at once
		l.wait(nanos(), int64(joinSpinCap))
		checkIdle(t, &l, round)
	}
}

func TestLatchSpinFastPathMintsNoToken(t *testing.T) {
	var l latch
	l.init()
	l.spin = int64(joinSpinCap)
	for round := 0; round < 100; round++ {
		l.add(1)
		// The completion lands strictly before wait: the count reaches
		// zero with the parked bit clear, so no token may be minted —
		// a stray token here would wake some later round early.
		l.done()
		if n := len(l.park); n != 0 {
			t.Fatalf("round %d: done() minted a token with no parked waiter", round)
		}
		l.wait(nanos(), int64(joinSpinCap))
		checkIdle(t, &l, round)
	}
}

func TestLatchParkAndWake(t *testing.T) {
	var l latch
	l.init()
	l.spin = 0 // force the park path deterministically
	for round := 0; round < 100; round++ {
		l.add(1)
		go func() {
			time.Sleep(50 * time.Microsecond)
			l.done()
		}()
		l.wait(nanos(), int64(joinSpinCap))
		checkIdle(t, &l, round)
	}
}

func TestLatchWithdrawRace(t *testing.T) {
	// spin = 0 sends the waiter straight into parked-bit registration
	// while the completion runs concurrently with no delay: some rounds
	// land the final done() entirely before the registration, hitting
	// the withdraw path; others interleave and exercise the token
	// handoff. Both must leave the latch idle.
	var l latch
	l.init()
	l.spin = 0
	for round := 0; round < 2000; round++ {
		l.add(1)
		go l.done()
		l.wait(nanos(), int64(joinSpinCap))
		checkIdle(t, &l, round)
	}
}

func TestLatchSpinEndsAtDeadline(t *testing.T) {
	// The spin is bounded by time, never by iterations: with the
	// completion withheld the waiter must register as parked, and not
	// before its budget has run out.
	var l latch
	l.init()
	l.spin = int64(joinSpinCap)
	const budget = int64(joinSpinCap / 4)
	for _, tc := range []struct {
		name       string
		budget, lo int64
	}{
		{"caller budget", budget, budget},
		{"latch cap", 1 << 40, int64(joinSpinCap)},
		{"no budget", 0, 0},
	} {
		l.add(1)
		start := nanos()
		released := make(chan struct{})
		go func() {
			l.wait(start, tc.budget)
			close(released)
		}()
		for l.state.Load()&1 == 0 {
			runtime.Gosched()
		}
		if spun := nanos() - start; spun < tc.lo {
			t.Errorf("%s: parked after %dns, before the %dns deadline", tc.name, spun, tc.lo)
		}
		l.done()
		<-released
		checkIdle(t, &l, 0)
	}
}

func TestLatchTopologySpinBudget(t *testing.T) {
	// The cap is fixed at init from the effective GOMAXPROCS: on a
	// single-proc setting spinning can only delay the workers being
	// waited for, so it must be zero.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var single latch
	single.init()
	if single.spin != 0 {
		t.Errorf("GOMAXPROCS=1: spin budget = %d, want 0", single.spin)
	}
	runtime.GOMAXPROCS(2)
	var multi latch
	multi.init()
	if multi.spin != int64(joinSpinCap) {
		t.Errorf("GOMAXPROCS=2: spin budget = %d, want %d", multi.spin, joinSpinCap)
	}
}
