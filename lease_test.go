package spice

// Deterministic tests of the workers' lease (executor.go header): the
// invoker's half is a clock-free state machine — every leaseClock
// method takes now — so its rules are tabled here on made-up
// timestamps; the worker's half (rescan for as long as the last task
// took, then park) is driven on a bare executor, where no runner
// publishes a lease and the rule is all there is to observe.

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// leaseRound is one round of a leaseClock script: dispatched at
// dispatch, joined at join with chunk 0 having taken own, landed at
// land. wantBridge and wantLease are the deadlines join and landed must
// return, as offsets from join and land (-1: none published).
type leaseRound struct {
	dispatch, own, join, land int64
	wantBridge, wantLease     int64
}

func TestLeaseClock(t *testing.T) {
	const us = int64(time.Microsecond)
	cap64 := int64(leaseCap)
	for _, tc := range []struct {
		name   string
		rounds []leaseRound
		gaps   []int64 // the recorded gaps afterwards, oldest first
	}{
		{
			// The commit (join to land) is 80 µs, over the cap; the caller
			// comes back 3 µs after it. The gap is those 3 µs — measured
			// from the end of the walk, not from the join — so the lease
			// engages in the second round and stays.
			name: "gap runs from the end of the walk",
			rounds: []leaseRound{
				{dispatch: 1000 * us, own: 300 * us, join: 1300 * us, land: 1380 * us, wantBridge: -1, wantLease: -1},
				{dispatch: 1383 * us, own: 300 * us, join: 1683 * us, land: 1763 * us, wantBridge: 80*us + 6*us, wantLease: 6 * us},
				{dispatch: 1767 * us, own: 300 * us, join: 2067 * us, land: 2147 * us, wantBridge: 80*us + 8*us, wantLease: 8 * us},
			},
			gaps: []int64{3 * us, 4 * us},
		},
		{
			// The bridge is the previous walk, and never more than chunk 0
			// just took: a 200 µs walk followed by a 40 µs chunk 0 is
			// bridged for 40 µs.
			name: "bridge is min(previous walk, chunk 0)",
			rounds: []leaseRound{
				{dispatch: 1000 * us, own: 500 * us, join: 1500 * us, land: 1700 * us, wantBridge: -1, wantLease: -1},
				{dispatch: 1702 * us, own: 40 * us, join: 1742 * us, land: 1752 * us, wantBridge: 40*us + 4*us, wantLease: 4 * us},
				{dispatch: 1754 * us, own: 500 * us, join: 2254 * us, land: 2264 * us, wantBridge: 10*us + 4*us, wantLease: 4 * us},
			},
			gaps: []int64{2 * us, 2 * us},
		},
		{
			// A gap over the cap is not recorded and withholds bridge and
			// lease for that round only; the history grants again in the
			// round after. The lease itself never exceeds the cap.
			name: "a gap over the cap withholds one round",
			rounds: []leaseRound{
				{dispatch: 1000 * us, own: 100 * us, join: 1100 * us, land: 1110 * us, wantBridge: -1, wantLease: -1},
				{dispatch: 1140 * us, own: 100 * us, join: 1240 * us, land: 1250 * us, wantBridge: 10*us + cap64, wantLease: cap64},
				{dispatch: 1250*us + cap64 + 1, own: 100 * us, join: 2000 * us, land: 2010 * us, wantBridge: -1, wantLease: -1},
				{dispatch: 2020 * us, own: 100 * us, join: 2120 * us, land: 2130 * us, wantBridge: 10*us + cap64, wantLease: cap64},
			},
			gaps: []int64{30 * us, 10 * us},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c leaseClock
			for i, r := range tc.rounds {
				c.dispatched(r.dispatch)
				want := int64(0)
				if r.wantBridge >= 0 {
					want = r.join + r.wantBridge
				}
				if got := c.join(r.join, r.own); got != want {
					t.Fatalf("round %d: join published %d, want %d", i, got, want)
				}
				want = 0
				if r.wantLease >= 0 {
					want = r.land + r.wantLease
				}
				if got := c.landed(r.land); got != want {
					t.Fatalf("round %d: landed published %d, want %d", i, got, want)
				}
				if c.joined != 0 || c.released != r.land || c.walk != r.land-r.join {
					t.Fatalf("round %d: clock left joined=%d released=%d walk=%d", i, c.joined, c.released, c.walk)
				}
			}
			for i, g := range tc.gaps {
				if got := c.gaps[i]; got != g {
					t.Fatalf("gap %d = %d, want %d (ring %v)", i, got, g, c.gaps)
				}
			}
		})
	}
}

// TestLeasePurgeAndSequentialRounds: purge (a session boundary) clears
// gaps and walk, so the next owner's first rounds get no lease from the
// previous cadence; and a round with nothing speculative leaves no
// release to measure the next gap from.
func TestLeasePurgeAndSequentialRounds(t *testing.T) {
	l := testList(4096, 3)
	r := newRunner(t, plainLoop(), Config{Threads: 2})
	l.warm(t, r, 6)
	lc := &r.lease
	if lc.released == 0 || lc.joined != 0 {
		t.Fatalf("after parallel rounds: released=%d joined=%d, want a release stamp and a landed round", lc.released, lc.joined)
	}
	if lc.grant() == 0 && !lc.withheld {
		t.Fatalf("back-to-back rounds recorded no gap: %v", lc.gaps)
	}
	r.reset()
	if *lc != (leaseClock{}) {
		t.Fatalf("purge left %+v", *lc)
	}
	// The bootstrap after a reset dispatches nothing speculative.
	r.MustRun(l.head)
	if lc.released != 0 || lc.joined != 0 {
		t.Fatalf("a sequential invocation stamped the lease clock: %+v", *lc)
	}
}

// spinTask is a task that runs for d on the nanos clock and records
// when it ended.
type spinTask struct {
	d     int64
	ended atomic.Int64
}

func (s *spinTask) run() {
	start := nanos()
	for nanos()-start < s.d {
	}
	s.ended.Store(nanos())
}

// waitParked polls until the executor's only worker has gone to sleep
// once more than parks times, and returns a time no earlier than the
// moment it did: when the worker was first seen registered as idle after
// the task given had ended — the step before the sleep is counted — or,
// if the poll missed that step, when the park was seen. A late poll can
// only make a park look later than it was, so "parked too early" is
// never reported falsely.
func waitParked(t *testing.T, e *Executor, parks int64, after *spinTask) int64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var at int64
	for e.parks.Load() == parks {
		if at == 0 && after != nil && after.ended.Load() != 0 && e.idle.Load() != 0 {
			at = nanos()
		}
		if time.Now().After(deadline) {
			t.Fatal("the worker never parked")
		}
		runtime.Gosched()
	}
	if at == 0 {
		at = nanos()
	}
	return at
}

// TestWorkerRescansForTaskDuration: on a multi-proc host a worker that
// ran a task for d keeps rescanning until min(d, joinSpinCap) past its
// end, and parks after — with no lease anywhere (warmUntil stays 0), so
// the spin ends at that deadline and nowhere else. A task submitted
// inside the window is picked up without a park.
func TestWorkerRescansForTaskDuration(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e := NewExecutor(1)
	defer e.Close()
	waitParked(t, e, 0, nil) // a fresh worker has earned nothing: it parks at once
	for _, d := range []time.Duration{30 * time.Microsecond, 5 * time.Millisecond} {
		task := &spinTask{d: int64(d)}
		parks := e.parks.Load()
		submitTask(e, task, 0)
		parkedAt := waitParked(t, e, parks, task)
		earned := min(int64(d), int64(joinSpinCap))
		if idle := parkedAt - task.ended.Load(); idle < earned {
			t.Fatalf("after a %v task the worker parked %v past its end, before the %v it had earned", d, time.Duration(idle), time.Duration(earned))
		}
		if got := e.parks.Load() - parks; got != 1 {
			t.Fatalf("after a %v task: %d parks, want 1", d, got)
		}
		if e.warmUntil.Load() != 0 {
			t.Fatal("a lease was published on a bare executor")
		}
	}

	// A stale entry popped right behind a chunk is a failed claim of a few
	// nanoseconds. It earns nothing, and it must not forfeit what the
	// chunk earned: the later deadline stands.
	long, stale := &spinTask{d: int64(5 * time.Millisecond)}, &spinTask{}
	parks := e.parks.Load()
	submitTask(e, long, 0)
	submitTask(e, stale, 0) // queued behind long while it runs
	parkedAt := waitParked(t, e, parks, stale)
	if idle := parkedAt - long.ended.Load(); idle < int64(joinSpinCap) {
		t.Fatalf("a trivial task behind a 5 ms one: the worker parked %v past the long task's end, before the %v it had earned", time.Duration(idle), joinSpinCap)
	}

	// Inside the window: the second task is submitted the moment the
	// first has ended. The submitter can be descheduled past the window
	// on a busy host, so one clean handoff in the attempts is the claim.
	// The first task runs 10 ms, not 1: in a process that started on one
	// processor every thread has only ever run on one vCPU, each futex
	// wake puts the worker's thread back beside its waker's, and the
	// kernel moves one of two busy threads to the idle vCPU only at its
	// balance tick. Behind a 1 ms task the submitter's thread was still
	// waiting for the vCPU the worker was rescanning on, and saw the end
	// 105-260 us late, when the worker parked (1-3 clean handoffs in 200
	// attempts; 58-60 in 60 behind a 10 ms task).
	for attempt := 0; attempt < 200; attempt++ {
		first, second := &spinTask{d: int64(10 * time.Millisecond)}, &spinTask{}
		parks := e.parks.Load()
		submitTask(e, first, 0)
		for first.ended.Load() == 0 {
		}
		submitTask(e, second, 0)
		for second.ended.Load() == 0 {
			runtime.Gosched()
		}
		caught := e.parks.Load() == parks
		waitParked(t, e, parks, nil)
		if caught {
			return
		}
	}
	t.Fatal("a task submitted right behind a 10 ms task was never picked up without a park")
}

// TestWorkerSpinTopology: an executor built on a single processor never
// spins — parking at once hands the processor to the submitter.
func TestWorkerSpinTopology(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	single := NewExecutor(1)
	runtime.GOMAXPROCS(2)
	multi := NewExecutor(1)
	runtime.GOMAXPROCS(prev)
	defer single.Close()
	defer multi.Close()
	if single.procs > 1 || !(multi.procs > 1) {
		t.Fatalf("spin = %v at GOMAXPROCS 1, %v at 2; want false, true", single.procs > 1, multi.procs > 1)
	}
	waitParked(t, single, 0, nil) // straight from its first empty scan
	if got, want := spinDeadline(1000, 1400), int64(1800); got != want {
		t.Fatalf("spinDeadline(1000, 1400) = %d, want %d", got, want)
	}
	if got, want := spinDeadline(0, int64(time.Second)), int64(time.Second)+int64(joinSpinCap); got != want {
		t.Fatalf("spinDeadline past the cap = %d, want %d", got, want)
	}
}

// TestPoolWorkerParks: the pool's accessor reads the shared executor's
// counter, and a pool nobody has used yet has every worker asleep.
func TestPoolWorkerParks(t *testing.T) {
	p := newPool(t, plainLoop(), Config{Threads: 3})
	deadline := time.Now().Add(10 * time.Second)
	for p.WorkerParks() < int64(p.Workers()) {
		if time.Now().After(deadline) {
			t.Fatalf("WorkerParks = %d with %d idle workers", p.WorkerParks(), p.Workers())
		}
		runtime.Gosched()
	}
}
