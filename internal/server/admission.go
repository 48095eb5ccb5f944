package server

// Admission control: a bounded queue with backpressure in front of the
// shared pool. Every job is either admitted — registered against its
// tenant's concurrency cap and the drain WaitGroup, then queued — or
// rejected immediately with 429 (queue full, tenant over its cap, async
// table full) or 503 (draining), both with a Retry-After hint. Nothing
// in the server buffers without a bound, so overload sheds instead of
// growing the heap: the paper's runtime already degrades to sequential
// execution under misspeculation, and the serving layer mirrors that
// philosophy at the job level.

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
// dispatcher, tenantCap of them (waiting or running) per tenant.
const (
	queueDepth = 256
	tenantCap  = 32
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
	// deadline mirrors the context's JobTimeout expiry for the watchdog,
	// which sweeps against it plus its grace.
	deadline time.Time

	state  atomic.Int32 // holds a jobState
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

// admit runs the full admission path. On success the job is in the
// queue, its tenant's inflight count incremented and the drain
// WaitGroup holding a reference; on failure the returned apiError names
// the backpressure reason.
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
	// The RLock pairs with Drain's exclusive flip of s.draining: once
	// Drain holds the write lock, no new job can slip past the jobWG
	// registration below, so "drain completes in-flight jobs" is exact.
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		s.met.rejDraining.Add(1)
		return &apiError{code: http.StatusServiceUnavailable, msg: "draining", retryAfter: 1}
	}

	t := j.t
	t.mu.Lock()
	if t.inflight >= tenantCap {
		t.mu.Unlock()
		s.met.rejTenantCap.Add(1)
		return &apiError{
			code:       http.StatusTooManyRequests,
			msg:        fmt.Sprintf("tenant %q at its concurrency cap (%d in flight)", t.name, tenantCap),
			retryAfter: 1,
		}
	}
	t.inflight++
	t.mu.Unlock()

	s.jobWG.Add(1)
	// The watchdog sweeps the job until execute untracks it. Tracked
	// before the send: once queued, a dispatcher may finish the job
	// before the send returns, and a job tracked after that would stay in
	// the registry for good, to be killed and then reported wedged.
	s.trackJob(j)
	select {
	case s.queue <- j:
		s.met.admitted.Add(1)
		return nil
	default:
		s.untrackJob(j)
		s.jobWG.Done()
		t.mu.Lock()
		t.inflight--
		t.mu.Unlock()
		s.met.rejQueueFull.Add(1)
		return &apiError{
			code:       http.StatusTooManyRequests,
			msg:        fmt.Sprintf("admission queue full (%d jobs)", cap(s.queue)),
			retryAfter: 1,
		}
	}
}

// dispatcher is one executor goroutine: it drains the admission queue
// until the queue is closed (Drain does that only after the jobWG hits
// zero, so `range` never strands an admitted job).
func (s *Server) dispatcher() {
	defer s.dispatchWG.Done()
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
	// newJob's clock read, the admission instant, is the deadline less
	// the job timeout.
	s.met.jobQueue.observe(started.Sub(j.deadline.Add(-s.cfg.JobTimeout)))
	res, aerr := s.runJobGuarded(j, started)
	s.met.jobLatency.observe(time.Since(started))
	if aerr == nil {
		s.met.jobsOK.Add(1)
	} else {
		s.met.jobsFailed.Add(1)
	}
	j.t.mu.Lock()
	j.t.inflight--
	j.t.mu.Unlock()
	j.finish(res, aerr)
	s.untrackJob(j)
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
// instance through a budget-width session, and folds the resulting
// Stats delta into the tenant's accounting.
func (s *Server) runJob(j *job, started time.Time) (*JobResult, *apiError) {
	if err := j.ctx.Err(); err != nil {
		// Cancelled while queued (client gone, timeout, or drain abort).
		return nil, &apiError{code: statusClientClosedRequest, msg: "cancelled while queued: " + err.Error()}
	}
	inst := j.t.instanceFor(s, &j.req)
	inst.mu.Lock()
	defer inst.mu.Unlock()

	budget := int(j.t.budget.Load())
	if aerr := inst.ensureSession(s, budget); aerr != nil {
		return nil, aerr
	}
	// Bind the instance's private cell store every job: a width change
	// reopens the session, and the fresh runner's reset cleared any
	// earlier binding. DOALL kernels carry a minimal store that the
	// universal SpecLoop's reduction declarations require.
	inst.sess.BindCells(inst.inst.Cells)
	before := inst.sess.Stats()

	var acc int64
	var err error
	if j.req.Churn == 0 && j.req.Invocations > 1 {
		// An immutable structure lets the whole job ride one batched
		// call: per-invocation session overhead is amortized and each
		// item is shed-aware (sequential in place when the executor is
		// saturated or the traversal too small — Stats.BatchSheds).
		starts := make([]*native.Node, j.req.Invocations)
		for i := range starts {
			starts[i] = inst.inst.Head
		}
		var accs []int64
		accs, err = inst.sess.RunBatch(j.ctx, starts)
		if len(accs) > 0 {
			acc = accs[len(accs)-1]
		}
	} else {
		for inv := int64(0); inv < j.req.Invocations; inv++ {
			acc, err = inst.sess.Run(j.ctx, inst.inst.Head)
			if err != nil {
				break
			}
			// The kernel's churn profile between invocations — the Spice
			// scenario, and what makes per-tenant hit rates diverge.
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
		Budget:      budget,
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
