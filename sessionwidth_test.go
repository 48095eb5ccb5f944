package spice

// Tests for the width-budgeted session surface added for multi-tenant
// serving: Pool.SessionWidth (per-width runner recycling),
// Session.RunBatch, and the Stats.Delta/Plus snapshot arithmetic the
// serving layer's per-tenant accounting is built on.

import (
	"context"
	"errors"
	"slices"
	"testing"
)

func TestSessionWidthClampsAndRuns(t *testing.T) {
	p := newPool(t, plainLoop(), Config{Threads: 4})
	l := testList(2000, 1)
	for _, tc := range []struct{ ask, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {4, 4}, {9, 4},
	} {
		s, err := p.SessionWidth(tc.ask)
		if err != nil {
			t.Fatalf("SessionWidth(%d): %v", tc.ask, err)
		}
		if got := s.Stats().EffectiveThreads; got != int64(tc.want) {
			t.Fatalf("SessionWidth(%d) runs at width %d, want %d", tc.ask, got, tc.want)
		}
		l.exact(t, s)
		s.Close()
		if got := s.Stats().EffectiveThreads; got != 0 {
			t.Fatalf("width after Close = %d, want 0", got)
		}
	}
}

func TestSessionWidthRecyclesPerWidth(t *testing.T) {
	p := newPool(t, plainLoop(), Config{Threads: 4})
	// A runner released at width 2 must come back for the next width-2
	// session, not for a width-4 one: widths are budget boundaries.
	openSession(t, p, 2).Close()
	if got := p.Runners(); got != 1 {
		t.Fatalf("runners after one width-2 session: %d", got)
	}
	openSession(t, p, 4)
	if got := p.Runners(); got != 2 {
		t.Fatalf("width-4 session must not reuse the width-2 runner: %d runners", got)
	}
	openSession(t, p, 2)
	if got := p.Runners(); got != 2 {
		t.Fatalf("second width-2 session must reuse the freed width-2 runner: %d runners", got)
	}
	if p.Workers() < 1 {
		t.Fatalf("Workers() = %d", p.Workers())
	}
}

func TestSessionWidthClosedPool(t *testing.T) {
	p := newPool(t, plainLoop(), Config{Threads: 2})
	p.Close()
	_, err := p.SessionWidth(2)
	wantErr(t, err, ErrPoolClosed)
}

func TestSessionRunBatchMatchesSequential(t *testing.T) {
	s := openSession(t, newPool(t, plainLoop(), Config{Threads: 4}), 0)
	l := testList(3000, 7)
	want := l.oracle()
	accs, err := s.RunBatch(context.Background(), slices.Repeat([]*mnode{l.head}, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 5 {
		t.Fatalf("batch returned %d results, want 5", len(accs))
	}
	for i, acc := range accs {
		if acc != want {
			t.Fatalf("batch item %d: %+v, want %+v", i, acc, want)
		}
	}
	if accs, err := s.RunBatch(context.Background(), nil); err != nil || len(accs) != 0 {
		t.Fatalf("empty batch: %v %v", accs, err)
	}
}

func TestSessionRunBatchErrorCarriesIndex(t *testing.T) {
	boom := errors.New("boom")
	loop := plainLoop()
	loop.Body, loop.BodyErr = nil, func(n *mnode, a tally) (tally, error) {
		if n.w < 0 {
			return a, boom
		}
		return a.visit(n.w), nil
	}
	s := openSession(t, newPool(t, loop, Config{Threads: 2}), 0)

	good := testList(100, 1)
	bad := testList(100, 2)
	bad.head.w = -1
	accs, err := s.RunBatch(context.Background(), []*mnode{good.head, good.head, bad.head})
	wantErr(t, err, boom)
	if want := "spice: batch item 2: boom"; err.Error() != want {
		t.Fatalf("batch error %q, want %q", err.Error(), want)
	}
	if len(accs) != 2 {
		t.Fatalf("completed prefix %d items, want 2", len(accs))
	}
}

func TestSessionRunBatchClosed(t *testing.T) {
	s := openSession(t, newPool(t, plainLoop(), Config{Threads: 2}), 0)
	s.Close()
	_, err := s.RunBatch(context.Background(), []*mnode{testList(10, 1).head})
	wantErr(t, err, ErrPoolClosed)
}

func TestStatsDeltaPlus(t *testing.T) {
	s := openSession(t, newPool(t, plainLoop(), Config{Threads: 4}), 0)
	l := testList(2000, 3)
	run := func(n int) Stats {
		before := s.Stats()
		for i := 0; i < n; i++ {
			if _, err := s.Run(context.Background(), l.head); err != nil {
				t.Fatal(err)
			}
		}
		return s.Stats().Delta(before)
	}
	d1 := run(3)
	d2 := run(2)
	if d1.Invocations != 3 || d2.Invocations != 2 {
		t.Fatalf("window invocations %d/%d, want 3/2", d1.Invocations, d2.Invocations)
	}
	if d1.TotalIters != 3*2000 || d2.TotalIters != 2*2000 {
		t.Fatalf("window iters %d/%d", d1.TotalIters, d2.TotalIters)
	}
	// Delta keeps the minuend's gauges (they are instantaneous, not
	// accumulable): EffectiveThreads survives subtraction.
	if d1.EffectiveThreads == 0 {
		t.Fatalf("Delta zeroed the EffectiveThreads gauge")
	}

	sum := d1.Plus(d2)
	if sum.Invocations != 5 || sum.TotalIters != 5*2000 {
		t.Fatalf("Plus: %d invocations / %d iters, want 5 / 10000", sum.Invocations, sum.TotalIters)
	}
	if sum.Hits != d1.Hits+d2.Hits || sum.Misses != d1.Misses+d2.Misses {
		t.Fatalf("Plus did not add hit/miss counters")
	}
	// Plus keeps the receiver's gauges too.
	if sum.EffectiveThreads != d1.EffectiveThreads {
		t.Fatalf("Plus gauge: %d, want %d", sum.EffectiveThreads, d1.EffectiveThreads)
	}
	// The two windows reassemble the full session history.
	total := s.Stats()
	if got := total.Delta(Stats{}); got.Invocations != total.Invocations {
		t.Fatalf("Delta from zero must be identity on counters")
	}
	if sum.Invocations != total.Invocations {
		t.Fatalf("windows %d invocations, session total %d", sum.Invocations, total.Invocations)
	}
}
