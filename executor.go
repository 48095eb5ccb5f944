package spice

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spice/internal/faults"
)

// This file is the executor layer: a fixed pool of long-lived worker
// goroutines. Runners submit chunk jobs here instead of spawning
// goroutines per invocation; a Pool shares one Executor across every
// runner it manages, so concurrent invocations multiplex onto the same
// workers. Only *speculative* chunks flow through the executor — and,
// behind a DOACROSS round, the copy-out of the cell buffer such a chunk
// filled: each invocation's chunk 0 runs inline on the invoking
// goroutine (scheduler.go), so a runner-private executor is sized
// Threads-1 and the load/demand gauges below see exactly the work that
// actually competes for workers.
//
// Sharding and stripes. Every worker owns a shard: one bounded channel
// of tasks (PR 6 moved off one *shared* channel because every submitter
// and every worker met on it; this is one per worker). A runner gets a
// home shard when it is built (stripe), and slot i of every round it
// dispatches, chunk and copy-out alike, goes to shard home+i-1: the
// same shard — absent steals the same worker and the same warm cache —
// every round. Homes advance by the runner's round width, so concurrent
// runners' stripes are disjoint modulo the shard count.
//
// An entry is a hint. A queue entry is not the task: whoever swaps the
// slot's claim word (claimWord in scheduler.go) runs the chunk, and the
// invoker runs every chunk no worker took. So enqueue never waits: when
// every shard is full the slot stays armed with no entry behind it and
// the invoker's walk runs it. FIFO order, the bound, parking the owner
// and waking it are the channel's.
//
// The hand-off has five sites, and nothing else moves a task:
//
//   - send (enqueue): a non-blocking send to the hinted shard, then to
//     each other shard once. A send to a parked owner wakes it.
//   - nudge: when the owner is awake (it may be stuck behind a long
//     chunk) and some worker is parked, one parked worker is sent a nil
//     entry; a worker that receives nil goes round and steals.
//   - receive (dequeue): a non-blocking receive from the own shard,
//     which reads an empty channel without taking its lock.
//   - steal: a non-blocking receive of the oldest entry of the first
//     non-empty victim, in randomized order. One entry, not half the
//     queue: what a thief holds privately is out of every other idle
//     worker's reach for the length of its current chunk, and the tasks
//     are chunks of tens of microseconds, not microtasks whose steal
//     needs amortizing.
//   - park: register as idle (parked, idle), scan the victims once
//     more, block receiving from the own shard. A send to a busy owner's
//     shard that read idle == 0 is ordered before the registration, so
//     the rescan finds it; every later send sees someone to nudge.
//
// Layout: shards are padded to cache lines (parked is read by every
// sender to the shard and written by its owner). The load, demand and
// idle gauges each own one: load is touched on every submit and every
// task completion by every worker, and before the padding all three
// shared a line with the striping cursor, bouncing it across cores on
// exactly the paths the sharding exists to decontend. The lease
// deadline (warmUntil) owns one too: one invoker store per round, read
// by workers only while they rescan.
//
// Round handoff: claim, join, lease. A dispatch round hands chunks to
// workers and takes their completion back; with chunks of tens of
// microseconds a futex park/wake on either side of that handoff costs
// as much as the chunk. Three steps keep both sides off the futex
// without either side spinning blind:
//
//   - Claim (claimWord in scheduler.go, where the protocol is stated
//     once). Every dispatched chunkJob carries a claim word, armed just
//     before submit, and whoever swaps it back — the worker that
//     received the queue entry or the invoker — executes the chunk and
//     signals the latch; the loser returns without touching anything.
//     After chunk 0 the invoker walks its round's slots in chain order
//     and runs every chunk still unclaimed, so a round never waits on a
//     worker that is parked, stalled or busy with another runner's
//     chunk. The queue entry of a reclaimed chunk stays behind and the
//     slot is armed without a second one while it does, so queue depth
//     and the load gauge stay at one entry per slot however long a
//     worker is away. The copy-out of a DOACROSS round
//     (Runner.landCells) is the slot's second phase on the same
//     claim word, so that holds for it too: at most one entry per slot,
//     chunk or copy, and a stale entry runs whichever phase is armed.
//   - Join (latch.go). Once every chunk is claimed, whatever is still
//     outstanding is running on another processor. The invoker spins on
//     the latch for as long as its own share of the round just took
//     (capped at joinSpinCap) and only then parks.
//   - Lease. A worker that finds no work keeps rescanning (own queue,
//     steal, Gosched) for as long as the task it just finished took, at
//     most joinSpinCap — the rule the invoker's join follows — and
//     beyond that only while a lease is running. A round is dispatch,
//     join and commit: the invoker measures the gap from the moment one
//     round's results are in the store to the next round's dispatch,
//     and publishes warmUntil twice per round that had speculative
//     chunks. At the join it bridges its own chain walk: join + min(how
//     long the previous walk took, what chunk 0 just took) + the lease,
//     where the lease is 2 × the largest recent gap, at most leaseCap.
//     When the walk has landed it publishes end + lease. Workers keep
//     rescanning while the clock is short of warmUntil. A reclaimed
//     chunk publishes the same lease past its own expected end, or the
//     late worker it was reclaimed from would arrive mid-round, find
//     nothing, park, and be late for every round after.
//
// Invariants, each from a measured failure:
//
//  1. The gap estimate lives with the invoker (leaseClock). A worker's
//     own measurement includes its wake latency, never drops under the
//     cap, and so never engages.
//  2. The estimate is the maximum of the last few gaps. A loop that
//     alternates short and long gaps (a Newton iteration, then a
//     timestep boundary) otherwise parks once per long gap.
//  3. A gap over the cap is not recorded and withholds the lease for
//     that round only; Runner.reset clears the history. A recycled
//     runner or a new job re-engages within two rounds, and an idle
//     tenant's workers park as they always did.
//  4. Every spin ends at a deadline, never after an iteration count.
//     Gosched puts the spinner on the global run queue and the Go
//     scheduler hands it straight back before it reaches the network
//     poller, so an open-ended spin delays a daemon's new requests
//     until sysmon polls (measured: serve_mixed 0.66 → 0.43 with spin
//     budgets raised until nothing parked). The worker's rescan after a
//     task is bounded by that task's own duration, so spinning never
//     exceeds the work just done.
//  5. A round ends when its results are in the store. A lease that
//     stops at the join counts the invoker's own commit as "gap": on a
//     DOACROSS loop whose commit exceeds leaseCap that withholds every
//     lease, and the worker sleeps through every commit (measured on
//     doacross_cells: 5 981 parks in 6 030 ops, the worker entering its
//     chunk 122 µs after dispatch). The bridge is bounded by the
//     round's own measurements, not by a constant: capped at
//     joinSpinCap it parked again in 2 200 of 4 500 rounds as soon as a
//     slow host stretched the walk to 117–128 µs.
//
// On a single-proc host (effective GOMAXPROCS 1 at construction) no
// side spins: a worker that finds nothing parks at once, which hands
// the processor to the submitter it is waiting on, and the invoker's
// reclaim walk simply runs the whole chain.

// task is one unit of work. Jobs are preallocated structs (see
// chunkJob), so submitting them allocates nothing. Tasks must be
// independent: a task may not block on the completion of another task,
// so a single worker already guarantees progress.
type task interface {
	run()
}

// shardCap bounds one worker's run queue. A full invocation dispatches
// at most Threads chunks and joins them before its next round, so queue
// depth is driven by the number of concurrent invocations; 64 slots per
// shard absorbs heavy submitter fan-in while keeping the backlog (and
// therefore worst-case chunk latency) bounded.
const shardCap = 64

// shard is one worker's bounded run queue. Submitters send to any
// shard; the owning worker receives, and idle workers steal by
// receiving from it too. A nil entry is a nudge (see the header).
type shard struct {
	q chan task // cap shardCap
	// parked is set while the owner is registered as idle: blocked
	// receiving from q, or on its last scan before that.
	parked atomic.Bool

	_ [64]byte // pad to a cache line: shards are hammered independently
}

// Executor runs submitted tasks on a fixed set of persistent worker
// goroutines, one bounded run queue per worker. The zero value is not
// usable; construct with NewExecutor. Submission and Close may not
// race: close an Executor only after every runner using it has finished
// its last Run (Pool.Close sequences this, draining async submissions
// first).
type Executor struct {
	shards []shard
	// procs is the effective GOMAXPROCS at construction: the processors
	// the slots of a round can run on at once (a round wider than that
	// timeslices them, and its clock reads say nothing about the loop;
	// pairing). It also says whether an idle worker rescans before it
	// parks: only when procs > 1 — on a single-proc host parking at once
	// hands the processor to submitters, and leases are ignored.
	procs int
	// faults is the chaos-testing injection plane, fixed at construction
	// (workers read it without synchronization, so it must never change
	// while they run). Nil in production: NewExecutor always builds a
	// plane-free executor; only runners and pools with Config.Faults set
	// reach the internal constructor with a plane.
	faults *faults.Plane

	// The gauges below are the executor's only cross-core shared-write
	// state on the steady path; each owns a cache line (see the layout
	// notes in the file header).
	_ [64]byte
	// load gauges queued plus running tasks — incremented when a task is
	// queued, decremented when it finishes. The batched front door reads it
	// to decide whether speculating would add parallelism or only
	// queueing (see Runner.run's load-aware path).
	load atomic.Int64
	_    [56]byte
	// demand counts the speculative slots of the invocations in flight
	// across every runner sharing this executor: Threads-1 per
	// invocation of a runner that may speculate, for the invocation's
	// whole duration (chunk 0 runs on its own goroutine). Queue depth
	// alone under-reports pressure — invocations blocked between dispatch
	// rounds, or timesliced on few cores, hold no queued task at any
	// given instant — so the load-aware path also sheds on demand: when
	// the *other* in-flight invocations' slots already cover every
	// worker, speculative chunks buy queueing, not parallelism.
	demand atomic.Int64
	_      [56]byte
	// idle counts parked workers, so the submit path only pays a wakeup
	// scan when someone is actually asleep. parks counts every time a
	// worker went to sleep; it shares the line because it is written
	// only where idle just was.
	idle  atomic.Int64
	parks atomic.Int64
	_     [48]byte
	// warmUntil is the lease deadline on the nanos clock: workers that
	// find no work keep rescanning while the clock is short of it (see
	// the handoff notes in the file header).
	warmUntil atomic.Int64
	_         [56]byte

	cursor atomic.Uint32 // striping cursor behind the runners' homes (stripe)
	closed atomic.Bool
	done   sync.WaitGroup
	once   sync.Once
}

// leaseCap bounds a lease, and with it the longest gap between rounds a
// worker spins across. It is a budget of processor time taken from
// everything else on the host, not the break-even against a wake: a
// bare condition-variable wake on the 2-vCPU guest the records were taken on
// measures p50 72 µs and p90 75–83 µs, so a park is the more expensive
// side well past the cap.
const leaseCap = 50 * time.Microsecond

// leaseGaps is how many recent inter-round gaps the estimate spans.
const leaseGaps = 4

// leaseClock is the invoker's half of the lease: the gap estimator of
// one runner, touched only by the invoking goroutine. A round ends when
// its chain walk has landed its results, so a gap runs from there to
// the next round's dispatch — the caller's time between invocations,
// which a worker has to stay awake across to catch the next round
// without a wake. The walk itself (join to landed) is the invoker's
// work, not the caller's: it is measured apart and bridged.
type leaseClock struct {
	released int64            // end of the previous round's walk (0: none to measure from)
	joined   int64            // this round's join (0: it has not joined, or has landed)
	walk     int64            // what the previous round's walk took, join to landed
	gaps     [leaseGaps]int64 // the most recent gaps within leaseCap, as a ring
	next     int              // ring cursor
	withheld bool             // the gap before this round was over the cap
}

// dispatched records the gap that ends with a round's dispatch at now.
func (c *leaseClock) dispatched(now int64) {
	c.withheld = false
	if c.released == 0 {
		return
	}
	gap := now - c.released
	if gap > int64(leaseCap) {
		c.withheld = true
		return
	}
	c.gaps[c.next] = gap
	c.next = (c.next + 1) % leaseGaps
}

// grant is the lease the history supports, in nanoseconds past the
// moment the workers go idle: twice the largest recent gap, at most
// leaseCap, and nothing while withheld or before any gap is measured.
func (c *leaseClock) grant() int64 {
	if c.withheld {
		return 0
	}
	var widest int64
	for _, g := range c.gaps {
		widest = max(widest, g)
	}
	return min(2*widest, int64(leaseCap))
}

// join records a round's join at now, own after the invoker began its
// share of the round, and returns the deadline that keeps the workers
// rescanning through the walk that follows: the walk is expected to
// take what the previous one took, and never credited with more than
// the round's own chunk 0 — a bound that scales with the round instead
// of a constant a slow host outgrows. 0 when there is no lease to add.
func (c *leaseClock) join(now, own int64) int64 {
	c.joined = now
	if g := c.grant(); g > 0 {
		return now + min(c.walk, own) + g
	}
	return 0
}

// landed ends the round at now — its results are in the store — and
// returns the lease deadline counted from there (0: no lease).
func (c *leaseClock) landed(now int64) int64 {
	c.walk = now - c.joined
	c.joined = 0
	c.released = now
	if g := c.grant(); g > 0 {
		return now + g
	}
	return 0
}

// extendLease publishes a lease deadline. Runners sharing the executor
// each publish their own; a later deadline is never cut short by an
// earlier one (a lost race between two publishers costs one of them at
// most one park).
func (e *Executor) extendLease(until int64) {
	if e.warmUntil.Load() < until {
		e.warmUntil.Store(until)
	}
}

// NewExecutor starts an executor with the given number of workers
// (minimum 1), each owning one run-queue shard. Workers live until
// Close. Whether idle workers spin at all is decided from the effective
// GOMAXPROCS at construction (never on single-proc hosts).
func NewExecutor(workers int) *Executor {
	return newExecutor(workers, nil)
}

// newExecutor is NewExecutor plus the fault-injection plane, threaded
// only from runner/pool construction so the field is immutable before
// any worker starts.
func newExecutor(workers int, plane *faults.Plane) *Executor {
	if workers < 1 {
		workers = 1
	}
	procs := runtime.GOMAXPROCS(0)
	e := &Executor{
		shards: make([]shard, workers),
		procs:  procs,
		faults: plane,
	}
	for i := range e.shards {
		e.shards[i].q = make(chan task, shardCap)
	}
	e.done.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker(i)
	}
	return e
}

// runContained isolates one task: workers are a shared, process-long
// resource, so a panic escaping a task must not kill the goroutine (a
// dead worker would silently strand its shard's queue and, with a
// pending WaitGroup, deadlock its invocation). Tasks are expected to
// contain their own failures (chunkJob.run converts panics to
// *PanicError); this is the executor layer's backstop for any task that
// does not.
//
// It is also the ExecWorker fault-injection site. Slow/Stall are served
// before the task body runs (a wedged or descheduled worker; the chunk's
// completion latch waits it out, bounded by the point's duration). An
// injected Panic deliberately fires *after* the task completes: the
// task's own lat.done() defer has then run, so the panic exercises this
// backstop's containment without stranding the invocation latch — a
// pre-run panic would be swallowed here with the latch never counted
// down, wedging the invoker forever.
func (e *Executor) runContained(t task) {
	defer func() { _ = recover() }()
	if e.faults == nil {
		t.run()
		return
	}
	op := e.faults.Hit(faults.ExecWorker)
	t.run()
	if op.Kind == faults.KindPanic {
		panic(faults.Injected{Site: faults.ExecWorker, Match: op.Match})
	}
}

// Workers returns the fixed worker count.
func (e *Executor) Workers() int { return len(e.shards) }

// overloaded reports whether a threads-wide invocation dispatched now
// would find no spare worker capacity: the executor already has a task
// queued or running per worker, or the other in-flight invocations'
// speculative slots alone (the caller's own are excluded) cover every
// worker. Either way more speculative chunks buy queueing delay, not
// parallelism. The latter is the allocation rule of task-level
// speculative runtimes — grant speculation only the capacity that
// task-level parallelism leaves idle. An invocation submits only its
// threads-1 speculative chunks (chunk 0 runs inline on its own
// goroutine), so each counts its own width.
//
// own is how many of the queued entries are the caller's: entries its
// reclaimed slots left behind (claimWord.queued). Each serves the
// caller's own next round and delays no one, so it is not load. Counted
// as load, it would shed a lone runner's next item after every
// reclaimed round, and the worker, given nothing, would park and be
// late again.
func (e *Executor) overloaded(threads int, own int64) bool {
	n := int64(len(e.shards))
	return e.load.Load()-own >= n || e.demand.Load()-int64(threads-1) >= n
}

// stripe assigns a runner its home shard and advances the cursor by
// width, the runner's submissions per round (see the header).
func (e *Executor) stripe(width int) uint32 {
	return e.cursor.Add(uint32(width)) - uint32(width)
}

// enqueue offers t to the hinted shard and then to each other shard
// once, and reports whether one had room; it never waits. The hint is
// reduced modulo the shard count while still unsigned, so it stays a
// valid index however far the cursor has wrapped.
func (e *Executor) enqueue(t task, hint uint32) bool {
	if e.closed.Load() {
		panic("spice: submit on closed Executor")
	}
	// Counted ahead of the send: the worker that receives the entry may
	// finish it, and count it off, before the send returns here.
	e.load.Add(1)
	n := uint32(len(e.shards))
	hint %= n
	for k := uint32(0); k < n; k++ {
		i := (hint + k) % n
		sh := &e.shards[i]
		select {
		case sh.q <- t:
			if !sh.parked.Load() && e.idle.Load() > 0 {
				e.nudge(i)
			}
			return true
		default:
		}
	}
	e.load.Add(-1)
	return false
}

// nudge sends a nil entry to one parked worker other than the owner of
// shard i. A worker whose queue is full needs no help waking.
func (e *Executor) nudge(i uint32) {
	n := uint32(len(e.shards))
	for k := uint32(1); k < n; k++ {
		if sh := &e.shards[(i+k)%n]; sh.parked.Load() {
			select {
			case sh.q <- nil:
			default:
			}
			return
		}
	}
}

// worker is the run loop of worker i. Every task is timed: what it took
// is what the worker may spend rescanning for the next one
// (spinDeadline; a single-proc host never rescans).
func (e *Executor) worker(i int) {
	defer e.done.Done()
	var spinUntil int64
	for {
		t := e.dequeue(i, spinUntil)
		if t == nil {
			return // closed and nothing left to run or steal
		}
		start := nanos()
		e.runContained(t)
		e.load.Add(-1)
		// The later deadline stands: a stale entry received behind a chunk
		// is a failed claim of a few nanoseconds, and must not forfeit the
		// rescan the chunk earned.
		spinUntil = max(spinUntil, spinDeadline(start, nanos()))
	}
}

// spinDeadline is how long a worker that ran a task from start to end
// keeps rescanning for the next one before it considers parking: as
// long again as the task took, at most joinSpinCap. It is the invoker's
// join rule (latch.wait) on the worker's side. A chunk that finishes
// ahead of the invoker's — the speculative chunks of a balanced round
// do, they hunt nothing on their last stretch — is then still awake
// when the round's lease is published, and a spin never exceeds the
// work just done.
func spinDeadline(start, end int64) int64 {
	return end + min(end-start, int64(joinSpinCap))
}

// dequeue returns worker i's next task: the head of its own shard, else
// the head of another (steal), else — on multi-proc hosts — whatever a
// rescan finds until spinUntil (what its last task earned, see
// spinDeadline) and then for as long as a lease runs; only then does it
// park. Back-to-back dispatch rounds land their chunks inside the lease,
// so the steady state pays no park/wake round trip per worker per
// round. A nil return means the executor is closed, the own shard is
// drained and no victim has work left.
func (e *Executor) dequeue(i int, spinUntil int64) task {
	own := &e.shards[i]
	// Cheap per-worker xorshift for victim order; no shared state, no
	// allocation.
	rnd := uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for {
		for {
			select {
			case t, ok := <-own.q:
				if !ok {
					// Closed and drained: help the other owners drain theirs.
					return e.steal(i, &rnd)
				}
				if t != nil {
					return t
				}
			default:
			}
			if t := e.steal(i, &rnd); t != nil {
				return t
			}
			// Rescan until the worker's own deadline and then while a lease
			// runs, with a Gosched between scans so an oversubscribed host
			// donates the timeslice instead of burning it.
			if e.procs == 1 {
				break
			}
			if now := nanos(); now >= spinUntil && now >= e.warmUntil.Load() {
				break
			}
			runtime.Gosched()
		}

		// Park (see the header for why the victims are scanned once more
		// after registering). A nil from the blocking receive is a nudge or
		// the close: either way the scan above decides.
		own.parked.Store(true)
		e.idle.Add(1)
		t := e.steal(i, &rnd)
		if t == nil {
			if len(own.q) == 0 && !e.closed.Load() {
				e.parks.Add(1)
			}
			t = <-own.q
		}
		own.parked.Store(false)
		e.idle.Add(-1)
		if t != nil {
			return t
		}
	}
}

// steal scans the other shards in randomized victim order and takes the
// oldest entry of the first non-empty one. A nudge met on the way is
// consumed: the thief is already doing what it asked for.
func (e *Executor) steal(i int, rnd *uint64) task {
	n := len(e.shards)
	if n == 1 {
		return nil
	}
	// xorshift64* advance; start at a random victim and walk from there.
	x := *rnd
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*rnd = x
	start := int(x % uint64(n))
	for k := 0; k < n; k++ {
		j := (start + k) % n
		if j == i {
			continue
		}
		select {
		case t := <-e.shards[j].q:
			if t != nil {
				return t
			}
		default:
		}
	}
	return nil
}

// Close stops the workers after every queue drains and waits for them
// to exit. Workers keep running — including finishing steals in flight
// — until their own shard is empty and no victim has work; tasks
// accepted before Close are never lost. Close is idempotent; submitting
// after Close panics.
func (e *Executor) Close() {
	e.once.Do(func() {
		e.closed.Store(true)
		for i := range e.shards {
			close(e.shards[i].q)
		}
	})
	e.done.Wait()
}
