package server

// Admission control: a bounded queue with backpressure in front of the
// shared pool. Every job is either admitted — entered in the job table,
// registered against its tenant's concurrency cap and the drain
// WaitGroup, then queued — or rejected immediately with 429 (queue
// full, tenant over its cap, async table full) or 503 (draining), both
// with a Retry-After hint. Nothing in the server buffers without a
// bound, so overload sheds instead of growing the heap: the paper's
// runtime already degrades to sequential execution under
// misspeculation, and the serving layer mirrors that philosophy at the
// job level.

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"spice/internal/faults"
	"spice/internal/workloads/native"
)

// The admission bounds: queueDepth admitted jobs may wait for a
// dispatcher, tenantCap of them (waiting or running) per tenant, and
// asyncCap async jobs may sit in the job table (until their result is
// fetched, or expired after resultTTL, watchdog.go).
const (
	queueDepth = 256
	tenantCap  = 32
	asyncCap   = 256
)

// jobState tracks a job through the queue.
type jobState int32

const (
	jobQueued jobState = iota
	jobRunning
	jobDone
)

// job is one admitted unit of work: a validated request bound to its
// tenant, a context bounding its execution, and a done channel the sync
// handler (or async poller) observes.
type job struct {
	id     string
	req    JobRequest
	t      *tenant
	ctx    context.Context
	cancel context.CancelFunc
	// stopNotify deregisters cancel from the request's context (a sync
	// job's extra cancellation source; nil for an async job). release
	// calls it.
	stopNotify func() bool

	state atomic.Int32 // holds a jobState
	// async marks a job submitted through /v1/submit: pollable by id,
	// and kept in the job table past its finish.
	async  bool
	done   chan struct{}
	result *JobResult
	err    *apiError
	// killed latches the watchdog's force-cancel so a job is killed (and
	// counted) at most once; a second overdue sweep means wedged instead.
	killed atomic.Bool
	// doneAt is the finish instant in UnixNanos, read by the resultTTL
	// reaper (atomic: finish and the sweep race benignly).
	doneAt atomic.Int64
}

// finish completes the job exactly once.
func (j *job) finish(res *JobResult, aerr *apiError) {
	j.result, j.err = res, aerr
	j.doneAt.Store(time.Now().UnixNano())
	j.state.Store(int32(jobDone))
	close(j.done)
	j.release()
}

// release lets go of the job's contexts, at finish or when admission
// refused it: cancel comes off the request's context, and the job's own
// is cancelled. Cancelling the job's context does not do the first: left
// registered, cancel is started on a goroutine of its own when net/http
// cancels the request's context as the handler returns, once per
// finished synchronous job, to cancel a context already cancelled here.
func (j *job) release() {
	if j.stopNotify != nil {
		j.stopNotify()
	}
	j.cancel()
}

// admit runs the full admission path. On success the job is in the job
// table and the queue, its tenant's inflight count incremented and the
// drain WaitGroup holding a reference; on failure the returned apiError
// names the backpressure reason.
func (s *Server) admit(j *job) *apiError {
	// Fault-injection site: an injected Err sheds the request with a 503
	// (counted under its own rejection reason so admission accounting
	// stays conserved), an injected Cancel abandons the job's client at
	// the admission instant (the job is still admitted and fails 499
	// downstream), and Slow delays admission like a glitching front end.
	if op := s.cfg.Faults.Hit(faults.ServerAdmit); op.Kind != faults.KindNone {
		switch op.Kind {
		case faults.KindErr:
			s.met.rejInjected.Add(1)
			return &apiError{code: http.StatusServiceUnavailable, msg: "injected admission fault", retryAfter: 1}
		case faults.KindCancel:
			j.cancel()
		}
	}
	// Held across the jobWG registration below, and Drain flips
	// s.draining under it: no new job can slip past, so "drain completes
	// in-flight jobs" is exact.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.met.rejDraining.Add(1)
		return &apiError{code: http.StatusServiceUnavailable, msg: "draining", retryAfter: 1}
	}
	if j.async && s.async >= asyncCap {
		s.met.rejAsyncFull.Add(1)
		return &apiError{
			code:       http.StatusTooManyRequests,
			msg:        fmt.Sprintf("async job table full (%d jobs); fetch finished jobs to free slots", asyncCap),
			retryAfter: 1,
		}
	}

	// The tenant's slot is reserved without its lock: a build holds that
	// lock, and s.mu must never wait on it.
	t := j.t
	if t.inflight.Add(1) > tenantCap {
		t.inflight.Add(-1)
		s.met.rejTenantCap.Add(1)
		return &apiError{
			code:       http.StatusTooManyRequests,
			msg:        fmt.Sprintf("tenant %q at its concurrency cap (%d in flight)", t.name, tenantCap),
			retryAfter: 1,
		}
	}

	s.jobs[j.id] = j
	if j.async {
		s.async++
	}
	// Added before the send: once queued, a dispatcher may finish the
	// job, and Done it, before the send returns.
	s.jobWG.Add(1)
	select {
	case s.queue <- j:
		s.met.admitted.Add(1)
		return nil
	default:
		s.forget(j)
		s.jobWG.Done()
		t.inflight.Add(-1)
		s.met.rejQueueFull.Add(1)
		return &apiError{
			code:       http.StatusTooManyRequests,
			msg:        fmt.Sprintf("admission queue full (%d jobs)", cap(s.queue)),
			retryAfter: 1,
		}
	}
}

// forget takes a job out of the job table. The caller holds s.mu.
func (s *Server) forget(j *job) {
	delete(s.jobs, j.id)
	if j.async {
		s.async--
	}
}

// dispatcher is one executor goroutine: it drains the admission queue
// until the queue is closed (Drain does that only after the jobWG hits
// zero, so `range` never strands an admitted job).
func (s *Server) dispatcher() {
	defer s.loops.Done()
	for j := range s.queue {
		s.execute(j)
	}
}

// execute runs one admitted job to completion and settles all admission
// accounting.
func (s *Server) execute(j *job) {
	if gate := s.cfg.testGate; gate != nil {
		<-gate // test hook: hold the dispatcher to make queue states deterministic
	}
	j.state.Store(int32(jobRunning))
	started := time.Now()
	// The admission instant is the context's deadline less the job
	// timeout (newJob).
	deadline, _ := j.ctx.Deadline()
	s.met.jobQueue.observe(started.Sub(deadline.Add(-s.cfg.JobTimeout)))
	res, aerr := s.runJobGuarded(j, started)
	s.met.jobLatency.observe(time.Since(started))
	if aerr == nil {
		s.met.jobsOK.Add(1)
	} else {
		s.met.jobsFailed.Add(1)
	}
	j.t.inflight.Add(-1)
	j.finish(res, aerr)
	if !j.async {
		// A sync job is settled; an async one waits in the table for its
		// poller or the sweep.
		s.mu.Lock()
		s.forget(j)
		s.mu.Unlock()
	}
	s.jobWG.Done()
}

// runJobGuarded runs runJob with panic containment: a panicking kernel
// (New, Mutate, a future registry bug) must cost exactly its own job a
// 500, never the dispatcher. The client is told the panic value only: the
// stack (goroutines, file paths, addresses of the daemon) goes to the
// server's log under the job id, not into a response any caller that can
// make a kernel panic would read. An unrecovered panic here would kill the
// dispatcher goroutine — permanently shrinking the dispatcher pool —
// and strand the job's jobWG and tenant.inflight references, wedging
// Drain forever and hanging the sync handler on a job that can no
// longer finish. Every lock on the panic path is defer-released
// (instance.mu in runJob, tenant.mu in instanceFor), so recovering at
// this boundary leaves no lock held, and execute settles the
// accounting exactly once on the way out as for any failed job.
func (s *Server) runJobGuarded(j *job, started time.Time) (res *JobResult, aerr *apiError) {
	defer func() {
		if r := recover(); r != nil {
			s.met.jobsPanicked.Add(1)
			log.Printf("spiced: job %s: panic executing job: %v\n%s", j.id, r, debug.Stack())
			res = nil
			aerr = &apiError{
				code: http.StatusInternalServerError,
				msg:  fmt.Sprintf("panic executing job: %v", r),
			}
		}
	}()
	// Fault-injection site, inside this containment boundary so every
	// kind lands where a real fault would: Slow/Stall occupy the
	// dispatcher with the job registered and running (the watchdog's
	// prey), Cancel abandons the client mid-dispatch (499 downstream),
	// Err fails the job with a 500, and Panic is contained above.
	if op := s.cfg.Faults.Hit(faults.ServerDispatch); op.Kind != faults.KindNone {
		switch op.Kind {
		case faults.KindCancel:
			j.cancel()
		case faults.KindErr:
			return nil, &apiError{code: http.StatusInternalServerError, msg: "injected dispatcher fault"}
		case faults.KindPanic:
			panic(faults.Injected{Site: faults.ServerDispatch, Match: op.Match})
		}
	}
	return s.runJob(j, started)
}

// runJob executes the job's invocations on the tenant's structure
// instance through the instance's session, and folds the resulting
// Stats delta into the tenant's accounting. Every invocation goes
// through the load-aware door (Session.RunBatch): it runs in place,
// sequentially, when no executor worker is free or the traversal is too
// small to chunk (Stats.BatchSheds), and the session's confidence gate
// decides which rows the others speculate on.
func (s *Server) runJob(j *job, started time.Time) (*JobResult, *apiError) {
	if err := j.ctx.Err(); err != nil {
		// Cancelled while queued (client gone, timeout, or drain abort).
		return nil, &apiError{code: statusClientClosedRequest, msg: "cancelled while queued: " + err.Error()}
	}
	inst := j.t.instanceFor(s, &j.req)
	inst.mu.Lock()
	defer inst.mu.Unlock()

	if aerr := inst.ensureSession(s); aerr != nil {
		return nil, aerr
	}
	before := inst.sess.Stats()

	// An immutable structure lets the whole job ride one batch; a churned
	// one changes between two invocations (the kernel's churn profile,
	// the Spice scenario), so each is a batch of its own.
	batch := j.req.Invocations
	if j.req.Churn != 0 {
		batch = 1
	}
	starts := make([]*native.Node, batch)
	var acc int64
	var err error
	for done := int64(0); done < j.req.Invocations && err == nil; done += batch {
		for i := range starts {
			starts[i] = inst.inst.Head
		}
		var accs []int64
		if accs, err = inst.sess.RunBatch(j.ctx, starts); len(accs) > 0 {
			acc = accs[len(accs)-1]
		}
		if err == nil {
			inst.inst.Mutate()
		}
	}

	d := inst.sess.Stats().Delta(before)
	j.t.record(d)

	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			code = statusClientClosedRequest
		}
		return nil, &apiError{code: code, msg: err.Error()}
	}
	return &JobResult{
		ID:          j.id,
		Tenant:      j.req.Tenant,
		Kernel:      j.req.Kernel,
		Result:      acc,
		Invocations: j.req.Invocations,
		Iters:       d.TotalIters,
		Hits:        d.Hits,
		Misses:      d.Misses,
		Conflicts:   d.Conflicts,
		Sheds:       d.BatchSheds,
		Budget:      int(d.EffectiveThreads),
		ElapsedMS:   float64(time.Since(started)) / float64(time.Millisecond),
	}, nil
}

// statusClientClosedRequest is nginx's conventional status for a
// request abandoned by its client (there is no standard HTTP code).
const statusClientClosedRequest = 499

// newJobID mints a process-unique job id.
func (s *Server) newJobID() string {
	return "j" + strconv.FormatInt(s.nextID.Add(1), 10)
}
