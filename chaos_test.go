package spice_test

// Chaos suite for the library layer: seeded fault schedules injected at
// the executor-worker, chunk-body and recovery-round sites while real
// kernels run, asserting the three invariants the fault plane exists to
// prove:
//
//  1. Termination within bound — every invocation reaches a terminal
//     state (result or error) despite injected panics, stalls and
//     delays; nothing wedges a latch or strands a worker.
//  2. Exactness on success — whenever a chaotic parallel run returns
//     without error, its result is bit-identical to a clean width-1
//     oracle running the twin instance in lockstep.
//  3. Recovery — after the schedule is disarmed, the same pool serves
//     fresh instances with zero errors and exact results: faults cost
//     at most their own invocations, never the pool.
//
// Runs under -race in CI (the race-matrix job), at GOMAXPROCS 1, 2 and 8.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"spice"
	"spice/internal/faults"
	"spice/internal/workloads/native"
)

// chaosKernels spans the conflict spectrum: accum (low-conflict
// DOACROSS recurrence), histo (dialable conflict density), rcladder
// (circuit-sweep projection, read-set on node voltages).
var chaosKernels = []string{"accum", "histo", "rcladder"}

// chaosCtx bounds one invocation: far above any injected delay
// (Seeded's maxDur below is 10ms across ≤12 points), so hitting it
// means a real wedge, not injected slowness.
func chaosCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// faulted fails t unless err is nil or, while the schedule is armed,
// one it can legitimately produce: the injected error itself, a
// contained panic, or a cancellation. It reports whether err is a fault.
func faulted(t *testing.T, err error, armed bool, what string) bool {
	t.Helper()
	var pe *spice.PanicError
	if err != nil && !(armed && (errors.Is(err, faults.ErrInjected) || errors.As(err, &pe) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))) {
		t.Fatalf("%s: unexpected error (schedule armed: %v): %v", what, armed, err)
	}
	return err != nil
}

// chaosPool is a pool of loop at width threads on plane's schedule (nil:
// none), closed when t ends.
func chaosPool(t *testing.T, loop spice.Loop[*native.Node, int64], threads int, plane *faults.Plane) *spice.Pool[*native.Node, int64] {
	t.Helper()
	p, err := spice.NewPool(loop, spice.PoolConfig{Config: spice.Config{Threads: threads, Faults: plane}})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestChaosKernelsSeeded is the main lockstep suite: for every kernel ×
// seed, a chaotic width-4 session races a clean width-1 oracle on twin
// instances. Successful invocations must match the oracle exactly; the
// first failure must be a recognized injected fault; and after
// disarming, fresh twin instances must run fault-free and exact through
// the same (possibly quarantine-churned) pool.
func TestChaosKernelsSeeded(t *testing.T) {
	const (
		size        = 2048
		churn       = 4
		invocations = 8
		points      = 12
		window      = 48
	)
	for _, kname := range chaosKernels {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", kname, seed), func(t *testing.T) {
				t.Parallel()
				ctx := chaosCtx(t)
				plane := faults.Seeded(seed*1009+int64(len(kname)), points, window, 10*time.Millisecond,
					faults.ExecWorker, faults.ChunkBody, faults.RecoveryRound)
				defer func() {
					if t.Failed() {
						t.Logf("schedule: %s (fired %d)", plane, plane.Fired())
					}
				}()

				chaotic := chaosPool(t, native.SpecLoop(), 4, plane)
				oracle := chaosPool(t, native.SpecLoop(), 1, nil)

				k := native.ByName(kname)
				if k == nil {
					t.Fatalf("kernel %q not registered", kname)
				}

				lockstep := func(label string, armed bool) {
					instA := k.New(size, seed, churn)
					instB := k.New(size, seed, churn)
					sessA, err := chaotic.SessionWidth(4)
					if err != nil {
						t.Fatalf("%s: SessionWidth(chaotic): %v", label, err)
					}
					defer sessA.Close()
					sessB, err := oracle.SessionWidth(1)
					if err != nil {
						t.Fatalf("%s: SessionWidth(oracle): %v", label, err)
					}
					defer sessB.Close()
					sessA.BindCells(instA.Cells)
					sessB.BindCells(instB.Cells)

					for inv := 0; inv < invocations; inv++ {
						want, werr := sessB.Run(ctx, instB.Head)
						if werr != nil {
							t.Fatalf("%s: oracle invocation %d failed: %v", label, inv, werr)
						}
						got, gerr := sessA.Run(ctx, instA.Head)
						if faulted(t, gerr, armed, fmt.Sprintf("%s: invocation %d", label, inv)) {
							// The instance's speculative state may be dirty past
							// a failed invocation; lockstep comparison ends here.
							return
						}
						if got != want {
							t.Fatalf("%s: invocation %d: parallel %d != sequential %d", label, inv, got, want)
						}
						instA.Mutate()
						instB.Mutate()
					}
				}

				lockstep("chaotic", true)

				// Self-healing half: disarm the schedule, unblock any stall
				// still serving, and prove the pool serves fresh instances
				// exactly.
				plane.Disarm()
				plane.Release()
				lockstep("post-disarm", false)

				// Counter conservation holds across contained faults,
				// stalled workers and quarantine churn alike.
				spice.CheckConservation(t, chaotic.Stats(), 4)
			})
		}
	}
}

// chaosList builds an n-element weighted list for the DOALL chaos
// tests, returning the head and the plain-traversal sum.
func chaosList(seed int64, n int) (*native.Node, int64) {
	rng := rand.New(rand.NewSource(seed))
	head, _ := native.BuildList(rng, int64(n))
	var sum int64
	for nd := head; nd != nil; nd = nd.Next {
		sum += nd.W
	}
	return head, sum
}

// TestChaosSubmit drives the asynchronous path: a burst of Submit
// futures against a chaotic pool must all resolve within bound, every
// success must be exact, and a post-disarm burst must be all-success.
func TestChaosSubmit(t *testing.T) {
	t.Parallel()
	ctx := chaosCtx(t)
	plane := faults.Seeded(7, 10, 64, 5*time.Millisecond,
		faults.ExecWorker, faults.ChunkBody)
	p := chaosPool(t, native.Loop(), 4, plane)

	burst := func(label string, armed bool) {
		const jobs = 16
		heads := make([]*native.Node, jobs)
		wants := make([]int64, jobs)
		futs := make([]*spice.Future[int64], jobs)
		for i := range heads {
			heads[i], wants[i] = chaosList(int64(100+i), 3000)
			futs[i] = p.Submit(ctx, heads[i])
		}
		for i, f := range futs {
			got, err := f.Wait()
			if !faulted(t, err, armed, fmt.Sprintf("%s: future %d", label, i)) && got != wants[i] {
				t.Fatalf("%s: future %d: got %d want %d", label, i, got, wants[i])
			}
		}
	}
	burst("chaotic", true)
	plane.Disarm()
	plane.Release()
	burst("post-disarm", false)
}

// TestChaosRunBatch drives the batched path under chaos: a failing
// batch must fail with a recognized injected fault, a successful batch
// must be exact per item, and the post-disarm batch must succeed.
func TestChaosRunBatch(t *testing.T) {
	t.Parallel()
	ctx := chaosCtx(t)
	plane := faults.Seeded(11, 8, 48, 5*time.Millisecond,
		faults.ExecWorker, faults.ChunkBody)
	p := chaosPool(t, native.Loop(), 4, plane)
	const items = 8
	starts := make([]*native.Node, items)
	wants := make([]int64, items)
	for i := range starts {
		starts[i], wants[i] = chaosList(int64(500+i), 4000)
	}

	check := func(label string, armed bool) {
		sums, err := p.RunBatch(ctx, starts)
		if faulted(t, err, armed, label+": RunBatch") {
			return
		}
		for i, got := range sums {
			if got != wants[i] {
				t.Fatalf("%s: item %d: got %d want %d", label, i, got, wants[i])
			}
		}
	}
	check("chaotic", true)
	plane.Disarm()
	plane.Release()
	check("post-disarm", false)
}

// TestChaosQuarantine proves the pool's quarantine: a runner whose
// invocations keep dying to contained panics is retired after three
// consecutive *PanicError results (its stats folded into the pool's),
// the next acquisition mints a healthy replacement — the pool serves
// exactly once the poison clears — and a success in between resets the
// streak.
func TestChaosQuarantine(t *testing.T) {
	t.Parallel()
	ctx := chaosCtx(t)
	var poisoned atomic.Bool
	loop := spice.Loop[*native.Node, int64]{
		Done: func(n *native.Node) bool { return n == nil },
		Next: func(n *native.Node) *native.Node { return n.Next },
		Body: func(n *native.Node, a int64) int64 {
			if poisoned.Load() {
				panic("poisoned body")
			}
			return a + n.W
		},
		Init:  func() int64 { return 0 },
		Merge: func(a, b int64) int64 { return a + b },
	}
	p := chaosPool(t, loop, 2, nil)

	head, want := chaosList(42, 1000)
	poison := func(runs int) {
		t.Helper()
		poisoned.Store(true)
		for i := 0; i < runs; i++ {
			_, err := p.Run(ctx, head)
			var pe *spice.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("poisoned run %d: err = %v, want *PanicError", i, err)
			}
		}
	}
	heal := func() {
		t.Helper()
		poisoned.Store(false)
		got, err := p.Run(ctx, head)
		if err != nil || got != want {
			t.Fatalf("healed run: got %d, %v; want %d, nil", got, err, want)
		}
	}
	retired := func(want int64, what string) {
		t.Helper()
		if got := p.Stats().RunnersRetired; got != want {
			t.Fatalf("RunnersRetired %s = %d, want %d", what, got, want)
		}
	}

	// Six poisoned invocations: the body panics at iteration 0 of the
	// architectural chunk every time, so each Run returns *PanicError.
	// The pool reuses its one idle runner, so runs 1-3 poison and retire
	// runner A and runs 4-6 poison and retire its replacement B.
	poison(6)
	retired(2, "after six panics")

	// Heal: the next Run mints a fresh runner and serves exactly.
	heal()
	retired(2, "after the heal (a healthy runner must not retire)")

	// Two panics, a success, two panics: the success resets the streak,
	// so the runner never reaches three in a row.
	poison(2)
	heal()
	poison(2)
	retired(2, "with a success between two streaks of two")
	heal()
}
