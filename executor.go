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
// The executor is *sharded*: every worker owns a bounded run queue, and
// submitters spread their jobs round-robin across the shards instead of
// funnelling through one shared channel. Each runner submits through
// its own striped handle (see submitter), so two concurrent Pool
// sessions touch disjoint shards in the steady state and never contend
// on a single lock. Imbalance — a worker stuck behind a long chunk
// while its queue backs up — is repaired by work stealing: an idle
// worker scans the other shards in randomized victim order and steals
// half of the first non-empty victim's queue (steal-half amortizes the
// steal cost over several tasks, the classic work-stealing tradeoff).
//
// Multicore layout and topology invariants:
//
//   - shards are padded to cache lines (each is hammered by its owner
//     and, under steal pressure, one thief at a time);
//   - the load/demand/idle gauges each own a cache line: load is
//     touched on every submit and every task completion by every
//     worker, and before the padding all three shared one line with
//     the striping cursor, bouncing it across cores on exactly the
//     paths the sharded queues exist to decontend;
//   - a submitter handle is round-oriented: rewind() returns it to its
//     home shard at the start of each dispatch round, so one runner's
//     chunk i lands on the same shard — and therefore, absent steals,
//     the same worker and the same warm cache — every round (runner →
//     shard affinity). Handles are striped at creation with a stride
//     of the runner's round width, so concurrent runners' stripes are
//     disjoint modulo the shard count;
//   - the lease deadline (warmUntil) owns a cache line too: one
//     invoker store per round, read by workers only while they rescan.
//
// Round handoff: claim, join, lease. A dispatch round hands chunks to
// workers and takes their completion back; with chunks of tens of
// microseconds a futex park/wake on either side of that handoff costs
// as much as the chunk. Three steps keep both sides off the futex
// without either side spinning blind:
//
//   - Claim (claimWord in scheduler.go, where the protocol is stated
//     once). Every dispatched chunkJob carries a claim word, armed just
//     before submit, and whoever swaps it back — the worker that popped
//     the queue entry or the invoker — executes the chunk and signals
//     the latch; the loser returns without touching anything. After
//     chunk 0 the invoker walks its round's slots in chain order and
//     runs every chunk still unclaimed, so a round never waits on a
//     worker that is parked, stalled or busy with another runner's
//     chunk. The queue entry of a reclaimed chunk stays behind and the
//     slot is armed without a second one while it does, so queue depth
//     and the load gauge stay at one entry per slot however long a
//     worker is away. The copy-out tasks of a DOACROSS round (copyJob,
//     scheduler.landCells) embed a claim word of their own: one more
//     entry per slot at most.
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
//     that round only; scheduler.purge clears the history. A recycled
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
// at most Threads chunks and blocks on their completion before its next
// round, so queue depth is driven by the number of concurrent
// invocations; 64 slots per shard absorbs heavy submitter fan-in while
// keeping the backlog (and therefore worst-case chunk latency) bounded.
const shardCap = 64

// shard is one worker's bounded run queue: a mutex-guarded ring plus
// the owner's parking slot. Submitters push to any shard; the owning
// worker pops, and idle workers steal. The critical section is a few
// loads and stores, so even a stolen-from shard is released in tens of
// nanoseconds.
type shard struct {
	mu     sync.Mutex
	ready  sync.Cond // owner parks here when idle; signaled on push
	space  sync.Cond // submitters park here when every shard is full
	buf    [shardCap]task
	head   int  // index of the oldest task
	n      int  // occupied slots
	parked bool // owner is parked (or about to park) on ready
	// wake records a wakeup granted to a parked owner. The owner waits
	// on the predicate "wake || own work || closed" rather than on the
	// bare signal, so a Signal delivered in the window between the
	// owner registering as parked and actually calling Wait is never
	// lost.
	wake bool
	// waiting counts submitters blocked on space. Tracked so pop/steal
	// only broadcast when someone is actually parked there (the common
	// case is nobody).
	waiting int

	_ [64]byte // pad to a cache line: shards are hammered independently
}

// push appends under mu. Callers must hold mu and have checked n < cap.
func (s *shard) push(t task) {
	s.buf[(s.head+s.n)%shardCap] = t
	s.n++
}

// pop removes the oldest task under mu. Callers must hold mu and have
// checked n > 0. FIFO order keeps chunk jobs of one invocation roughly
// in dispatch order, which is what the validation chain profits from.
func (s *shard) pop() task {
	t := s.buf[s.head]
	s.buf[s.head] = nil // do not pin finished jobs (and their contexts)
	s.head = (s.head + 1) % shardCap
	s.n--
	return t
}

// Executor runs submitted tasks on a fixed set of persistent worker
// goroutines, one bounded run queue per worker. The zero value is not
// usable; construct with NewExecutor. Submission and Close may not
// race: close an Executor only after every runner using it has finished
// its last Run (Pool.Close sequences this, draining async submissions
// first).
type Executor struct {
	shards  []shard
	workers int
	// spin says whether an idle worker rescans before it parks, fixed at
	// construction from the effective GOMAXPROCS (false on single-proc
	// hosts — parking immediately hands the processor to submitters, and
	// leases are ignored).
	spin bool
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
	// load gauges queued plus running tasks — incremented at submit,
	// decremented when a task finishes. The batched front door reads it
	// to decide whether speculating would add parallelism or only
	// queueing (see Runner.run's load-aware path).
	load atomic.Int64
	_    [56]byte
	// demand gauges in-flight invocations across every runner sharing
	// this executor (each submitting up to Threads-1 speculative
	// chunks; chunk 0 runs on its own goroutine). Queue depth alone
	// under-reports pressure — invocations blocked between dispatch
	// rounds, or timesliced on few cores, hold no queued task at any
	// given instant — so the load-aware path also sheds on demand: when
	// the *other* in-flight invocations already cover every worker,
	// speculative chunks buy queueing, not parallelism.
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

	cursor atomic.Uint32 // striping cursor for submitter homes
	closed atomic.Bool
	done   sync.WaitGroup
	once   sync.Once
}

// leaseCap bounds a lease, and with it the longest gap between rounds a
// worker spins across. It is a budget of processor time taken from
// everything else on the host, not the break-even against a wake: a
// bare sync.Cond wake on the 2-vCPU guest the records were taken on
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
	e := &Executor{
		shards:  make([]shard, workers),
		workers: workers,
		faults:  plane,
	}
	e.spin = runtime.GOMAXPROCS(0) > 1
	for i := range e.shards {
		sh := &e.shards[i]
		sh.ready.L = &sh.mu
		sh.space.L = &sh.mu
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
func (e *Executor) Workers() int { return e.workers }

// saturated reports whether the executor already has at least one task
// queued or running per worker — the point where dispatching additional
// speculative chunks buys queueing delay, not parallelism.
func (e *Executor) saturated() bool { return e.load.Load() >= int64(e.workers) }

// overloaded reports whether a threads-wide invocation dispatched now
// would find no spare worker capacity: the run queues already hold a
// task per worker, or the other in-flight invocations alone (the
// caller's own registration is excluded) span at least one chunk per
// worker. The latter is the allocation rule of task-level speculative
// runtimes — grant speculation only the capacity that task-level
// parallelism leaves idle. An invocation submits only its threads-1
// speculative chunks (chunk 0 runs inline on its own goroutine), so
// that is the per-invocation demand counted here.
func (e *Executor) overloaded(threads int) bool {
	return e.saturated() || (e.demand.Load()-1)*int64(threads-1) >= int64(e.workers)
}

// submitter is a runner's striped handle into the sharded executor:
// each handle owns a home shard and advances one shard per submission
// within a dispatch round, so concurrent runners spread their chunk
// jobs across disjoint shard stripes instead of contending on one
// lock. rewind() returns the handle to its home at the start of every
// round, giving the runner shard affinity: chunk i of every round
// lands on the same shard — and, absent steals, the same worker with
// the chunk's slot still warm in cache. A submitter is not safe for
// concurrent use — exactly the runner's own serialization contract.
type submitter struct {
	e    *Executor
	home uint32
	next uint32
}

// newSubmitter assigns a fresh handle its home shard, advancing the
// executor-wide cursor by width (the handle's expected submissions per
// round) so concurrent handles occupy disjoint stripes modulo the
// shard count.
func (e *Executor) newSubmitter(width int) submitter {
	if width < 1 {
		width = 1
	}
	home := e.cursor.Add(uint32(width)) - uint32(width)
	return submitter{e: e, home: home, next: home}
}

// rewind returns the handle to its home shard for a new dispatch round
// (runner → shard affinity; see the type comment).
func (s *submitter) rewind() { s.next = s.home }

// submit enqueues a task on the handle's next shard; it blocks only
// while every shard is full. Tasks never block on other tasks (chunk
// jobs are independent), so a single worker already guarantees
// progress and the wait is bounded.
func (s *submitter) submit(t task) {
	s.e.enqueue(t, s.next)
	s.next++
}

// skip passes over the handle's next shard without enqueuing, for a
// chunk whose entry is already queued, so the chunks after it keep
// their home shards.
func (s *submitter) skip() { s.next++ }

// enqueue places t on the first non-full shard at or after the hinted
// one, wrapping around; when every shard is full it parks on the home
// shard until a worker frees a slot. After placing, it wakes the
// shard's owner if parked — and otherwise, if any worker at all is
// idle, wakes one so it can steal (the owner may be stuck behind a
// long chunk). The wrapping cursor is reduced modulo the shard count
// while still unsigned, so it stays a valid index even once the
// cursor's int interpretation would go negative on 32-bit platforms.
func (e *Executor) enqueue(t task, hintCursor uint32) {
	if e.closed.Load() {
		panic("spice: submit on closed Executor")
	}
	e.load.Add(1)
	n := len(e.shards)
	hint := int(hintCursor % uint32(n))
	for {
		for k := 0; k < n; k++ {
			i := (hint + k) % n
			sh := &e.shards[i]
			sh.mu.Lock()
			if sh.n < shardCap {
				sh.push(t)
				parked := sh.parked
				if parked {
					sh.wake = true
				}
				sh.mu.Unlock()
				if parked {
					sh.ready.Signal()
				} else if e.idle.Load() > 0 {
					e.wakeIdle(i)
				}
				return
			}
			sh.mu.Unlock()
		}
		// Every shard is full: wait for space on the home shard. pop and
		// steal broadcast space when they free slots on a shard with
		// waiters.
		sh := &e.shards[hint]
		sh.mu.Lock()
		if sh.n >= shardCap {
			sh.waiting++
			sh.space.Wait()
			sh.waiting--
		}
		sh.mu.Unlock()
	}
}

// wakeIdle signals one parked worker other than the owner of shard i
// (whose wakeup the caller already handled) so it can steal the job
// just placed. The wake grant is recorded under the target's lock, so
// a worker between registering as parked and calling Wait still
// observes it.
func (e *Executor) wakeIdle(i int) {
	for k := 1; k < len(e.shards); k++ {
		sh := &e.shards[(i+k)%len(e.shards)]
		sh.mu.Lock()
		parked := sh.parked
		if parked {
			sh.wake = true
		}
		sh.mu.Unlock()
		if parked {
			sh.ready.Signal()
			return
		}
	}
}

// worker is the run loop of worker i: drain the private stolen batch,
// then the own shard, then steal, then park. Stolen tasks are kept in a
// private batch (they were already claimed under the victim's lock;
// re-publishing them would just invite re-stealing churn) and drained
// before the next dequeue, so a worker never exits holding work. Every
// task is timed: what it took is what the worker may spend rescanning
// for the next one (spinDeadline; a single-proc host never rescans).
func (e *Executor) worker(i int) {
	defer e.done.Done()
	var batch []task // claimed by a steal, not yet run
	var spinUntil int64
	for {
		var t task
		if len(batch) > 0 {
			t = batch[len(batch)-1]
			batch[len(batch)-1] = nil
			batch = batch[:len(batch)-1]
		} else {
			t = e.dequeue(i, &batch, spinUntil)
			if t == nil {
				return // closed and nothing left to run or steal
			}
		}
		start := nanos()
		e.runContained(t)
		e.load.Add(-1)
		// The later deadline stands: a stale entry popped behind a chunk
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

// dequeue returns worker i's next task: its own shard's head, else a
// steal-half from another shard (randomized victim order), else — on
// multi-proc hosts — rescans until spinUntil (what its last task
// earned, see spinDeadline) and then for as long as a lease runs, and
// only then parking until a submitter signals. Back-to-back dispatch
// rounds land their chunks inside the lease, so the steady state pays
// no park/wake round trip per worker per round. A nil return means the
// executor is closed and neither the own shard nor any victim has work
// left.
func (e *Executor) dequeue(i int, batch *[]task, spinUntil int64) task {
	own := &e.shards[i]
	// Cheap per-worker xorshift for victim order; no shared state, no
	// allocation.
	rnd := uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for {
		for {
			own.mu.Lock()
			if own.n > 0 {
				t := own.pop()
				waiting := own.waiting > 0
				own.mu.Unlock()
				if waiting {
					own.space.Broadcast()
				}
				return t
			}
			own.mu.Unlock()

			if t := e.steal(i, &rnd, batch); t != nil {
				return t
			}
			// Spin-before-park: rescan until the worker's own deadline and
			// then while a lease runs, unless the executor is shutting down
			// (then fall through to the close-aware park path, which drains
			// and exits). A Gosched between scans, so an oversubscribed host
			// donates the timeslice instead of burning it.
			if e.closed.Load() || !e.spin {
				break
			}
			if now := nanos(); now >= spinUntil && now >= e.warmUntil.Load() {
				break
			}
			runtime.Gosched()
		}

		// Nothing anywhere: park on the own shard unless the executor is
		// closed — then remaining work, if any, lives in other workers'
		// own shards and is drained by their owners.
		own.mu.Lock()
		if own.n > 0 {
			own.mu.Unlock()
			continue
		}
		if e.closed.Load() {
			own.mu.Unlock()
			return nil
		}
		own.parked = true
		e.idle.Add(1)
		own.mu.Unlock()

		// Close the park/enqueue race before sleeping: a task enqueued
		// onto a busy owner's shard between this worker's failed steal
		// scan above and the idle registration saw no one to wake (its
		// submitter read idle == 0). Any such push is strictly ordered
		// before the registration, so one more steal scan — now visible
		// as a wake target for everything later — is guaranteed to find
		// it; everything enqueued after the registration wakes this
		// worker through its wake grant.
		if t := e.steal(i, &rnd, batch); t != nil {
			e.unpark(own)
			return t
		}

		own.mu.Lock()
		if !own.wake && own.n == 0 && !e.closed.Load() {
			e.parks.Add(1)
		}
		for !own.wake && own.n == 0 && !e.closed.Load() {
			own.ready.Wait()
		}
		own.wake = false
		own.parked = false
		e.idle.Add(-1)
		own.mu.Unlock()
	}
}

// unpark withdraws a worker's idle registration after it found work on
// its pre-sleep re-scan, consuming any wake grant handed to it in the
// meantime (the grantor's task was either this one or is found by the
// next scan).
func (e *Executor) unpark(own *shard) {
	own.mu.Lock()
	own.wake = false
	own.parked = false
	e.idle.Add(-1)
	own.mu.Unlock()
}

// steal scans the other shards in randomized victim order and claims
// half of the first non-empty victim's queue (the oldest half, keeping
// rough FIFO order). The first claimed task is returned to run
// immediately; the rest land in the worker's private batch.
func (e *Executor) steal(i int, rnd *uint64, batch *[]task) task {
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
		v := &e.shards[j]
		v.mu.Lock()
		if v.n == 0 {
			v.mu.Unlock()
			continue
		}
		take := v.n - v.n/2 // ceil(n/2): steal half, rounding toward the thief
		var first task
		for c := 0; c < take; c++ {
			t := v.pop()
			if c == 0 {
				first = t
			} else {
				*batch = append(*batch, t)
			}
		}
		waiting := v.waiting > 0
		v.mu.Unlock()
		if waiting {
			v.space.Broadcast()
		}
		return first
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
			sh := &e.shards[i]
			sh.mu.Lock()
			sh.ready.Broadcast()
			sh.space.Broadcast()
			sh.mu.Unlock()
		}
	})
	e.done.Wait()
}
