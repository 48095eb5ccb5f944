// Package server implements spiced, a multi-tenant serving daemon over
// the spice runtime: a JSON wire protocol naming registered native
// workload kernels, a bounded admission queue with per-tenant
// concurrency caps, a per-tenant speculation-budget allocator that
// re-divides the shared executor's capacity in proportion to what each
// tenant's speculation recently paid, and Prometheus-style /metrics —
// all on the standard library alone.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spice"
	"spice/internal/faults"
	"spice/internal/workloads/native"
)

// Config holds what a deployment sets: a zero MaxWidth is
// max(GOMAXPROCS, 2), a zero JobTimeout 30 s. Every other bound of the
// daemon is a constant beside the code that enforces it (the queue, the
// caps and the tables shed overload instead of buffering it) or derives
// from these: the watchdog's grace is JobTimeout/15 and it sweeps every
// grace/8, and max(GOMAXPROCS, 2) dispatchers feed an executor of the
// pool's topology-default size.
type Config struct {
	// MaxWidth is the widest speculation any single invocation may use
	// (the shared pool's Threads). Budgets allocate within [1, MaxWidth].
	MaxWidth int
	// JobTimeout bounds one job's execution (and queue wait).
	JobTimeout time.Duration
	// Faults, when non-nil, arms the deterministic fault-injection plane
	// on the serving path (admission, dispatch, tenant builds) and on
	// the shared pool's runtime sites. Chaos testing only; nil costs an
	// inlined nil-check per site.
	Faults *faults.Plane

	// testGate, settable only from inside the package, holds every
	// dispatcher before it starts a job until the test releases it —
	// making queue occupancy deterministic in the backpressure tests.
	testGate chan struct{}
}

// Server is the spiced daemon's engine, independent of any listener:
// Handler() exposes it over HTTP, Drain() shuts it down gracefully.
type Server struct {
	cfg  Config
	pool *spice.Pool[*native.Node, int64]
	met  *metrics

	mu      sync.Mutex
	tenants map[string]*tenant

	queue chan *job

	// admitMu orders admission against Drain: admission holds the read
	// lock across the draining check and its jobWG.Add, so once Drain
	// holds the write lock and flips draining, the in-flight job set is
	// exactly what jobWG counts.
	admitMu  sync.RWMutex
	draining bool

	jobWG      sync.WaitGroup
	dispatchWG sync.WaitGroup

	// baseCtx parents every job context so an aborted drain can cancel
	// all outstanding work at once.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	nextID atomic.Int64

	asyncMu   sync.Mutex
	asyncJobs map[string]*job

	// Watchdog state (see watchdog.go): the in-flight job registry it
	// sweeps, the wedged-dispatcher flag healthz reports, and the sweep
	// goroutine's lifecycle.
	watchMu      sync.Mutex
	inflightJobs map[*job]struct{}
	wedged       atomic.Bool
	stopWatchdog chan struct{}
	watchdogWG   sync.WaitGroup

	stopRebalance chan struct{}
	rebalanced    sync.WaitGroup

	drained  chan struct{}
	drainErr error
}

// ErrDraining is returned by Drain when the server is already draining.
var ErrDraining = errors.New("spiced: already draining")

// New builds and starts a Server (its dispatchers and allocator run
// until Drain).
func New(cfg Config) (*Server, error) {
	// The job-level concurrency of the daemon, and the default width.
	procs := max(runtime.GOMAXPROCS(0), 2)
	if cfg.MaxWidth <= 0 {
		cfg.MaxWidth = procs
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 30 * time.Second
	}
	// SpecLoop rather than Loop: the universal speculative body serves
	// DOALL and DOACROSS kernels alike (DOALL nodes never touch the cell
	// store), so one shared pool covers the whole registry. Each job
	// binds its instance's private Cells before running.
	pool, err := spice.NewPool(native.SpecLoop(), spice.PoolConfig{
		Config: spice.Config{Threads: cfg.MaxWidth, Faults: cfg.Faults},
	})
	if err != nil {
		return nil, fmt.Errorf("spiced: pool: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:           cfg,
		pool:          pool,
		met:           &metrics{},
		tenants:       make(map[string]*tenant),
		queue:         make(chan *job, queueDepth),
		baseCtx:       ctx,
		baseCancel:    cancel,
		asyncJobs:     make(map[string]*job),
		inflightJobs:  make(map[*job]struct{}),
		stopWatchdog:  make(chan struct{}),
		stopRebalance: make(chan struct{}),
		drained:       make(chan struct{}),
	}
	s.dispatchWG.Add(procs)
	for i := 0; i < procs; i++ {
		go s.dispatcher()
	}
	s.rebalanced.Add(1)
	go s.rebalanceLoop()
	s.watchdogWG.Add(1)
	go s.watchdog()
	return s, nil
}

// rebalanceLoop runs the budget allocator once per window until Drain.
func (s *Server) rebalanceLoop() {
	defer s.rebalanced.Done()
	t := time.NewTicker(rebalanceWindow)
	defer t.Stop()
	for {
		select {
		case <-s.stopRebalance:
			return
		case <-t.C:
			s.rebalance()
		}
	}
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.counted(s.handleRun))
	mux.HandleFunc("POST /v1/submit", s.counted(s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs/{id}", s.counted(s.handleJob))
	mux.HandleFunc("GET /v1/kernels", s.counted(s.handleKernels))
	// Scrape endpoints go through the same status-class counting as the
	// API: a healthz flipping to 503 should move the 5xx counter, not
	// vanish from it.
	mux.HandleFunc("GET /metrics", s.counted(s.handleMetrics))
	mux.HandleFunc("GET /healthz", s.counted(s.handleHealthz))
	return mux
}

// newJob validates the request and binds it to its tenant and a
// deadline context parented on baseCtx. notify, when non-nil, is an
// extra cancellation source (the HTTP request's context for sync jobs).
func (s *Server) newJob(req JobRequest, notify context.Context) (*job, *apiError) {
	if aerr := req.normalize(); aerr != nil {
		return nil, aerr
	}
	t, aerr := s.tenantFor(req.Tenant)
	if aerr != nil {
		return nil, aerr
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	j := &job{
		id:       s.newJobID(),
		req:      req,
		t:        t,
		ctx:      ctx,
		cancel:   cancel,
		deadline: time.Now().Add(s.cfg.JobTimeout),
		done:     make(chan struct{}),
	}
	if notify != nil {
		// Registered on notify until the job's release takes it off.
		j.stopNotify = context.AfterFunc(notify, cancel)
	}
	return j, nil
}

// handleRun is the synchronous door: admit, wait, answer.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if aerr := decodeJob(w, r, &req); aerr != nil {
		aerr.write(w)
		return
	}
	j, aerr := s.newJob(req, r.Context())
	if aerr != nil {
		aerr.write(w)
		return
	}
	if aerr := s.admit(j); aerr != nil {
		j.release()
		aerr.write(w)
		return
	}
	<-j.done
	if j.err != nil {
		j.err.write(w)
		return
	}
	writeJSON(w, http.StatusOK, j.result)
}

// asyncCap bounds the async job table: submitted jobs whose result has
// not been fetched (or reaped after resultTTL, watchdog.go).
const asyncCap = 256

// handleSubmit is the asynchronous door: admit, remember, answer 202.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if aerr := decodeJob(w, r, &req); aerr != nil {
		aerr.write(w)
		return
	}
	j, aerr := s.newJob(req, nil) // async jobs outlive the submitting request
	if aerr != nil {
		aerr.write(w)
		return
	}
	s.asyncMu.Lock()
	if len(s.asyncJobs) >= asyncCap {
		s.asyncMu.Unlock()
		j.release()
		s.met.rejAsyncFull.Add(1)
		(&apiError{
			code:       http.StatusTooManyRequests,
			msg:        fmt.Sprintf("async job table full (%d jobs); fetch finished jobs to free slots", asyncCap),
			retryAfter: 1,
		}).write(w)
		return
	}
	s.asyncJobs[j.id] = j
	s.asyncMu.Unlock()
	if aerr := s.admit(j); aerr != nil {
		s.asyncMu.Lock()
		delete(s.asyncJobs, j.id)
		s.asyncMu.Unlock()
		j.release()
		aerr.write(w)
		return
	}
	writeJSON(w, http.StatusAccepted, JobStatus{ID: j.id, State: "queued"})
}

// handleJob polls an async job. Fetching a finished job's status frees
// its table slot (at-most-once delivery of the result body).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// The state is read and a finished job's slot freed under one hold,
	// so of any number of concurrent polls exactly one sees it done.
	s.asyncMu.Lock()
	j, ok := s.asyncJobs[id]
	var state jobState
	if ok {
		if state = jobState(j.state.Load()); state == jobDone {
			delete(s.asyncJobs, id)
		}
	}
	s.asyncMu.Unlock()
	if !ok {
		(&apiError{code: http.StatusNotFound, msg: "unknown job id (finished results are delivered once)"}).write(w)
		return
	}
	st := JobStatus{ID: id}
	switch state {
	case jobQueued:
		st.State = "queued"
	case jobRunning:
		st.State = "running"
	case jobDone:
		st.State = "done"
		st.Result = j.result
		if j.err != nil {
			st.Error = j.err.msg
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// handleKernels lists the registered native workload kernels.
func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	ks := native.All()
	out := make([]KernelInfo, 0, len(ks))
	for _, k := range ks {
		out = append(out, KernelInfo{
			Name:           k.Name,
			Description:    k.Description,
			Predictability: k.Predictability,
			DOACROSS:       k.DOACROSS,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// Drain shuts the server down gracefully: new admissions answer 503,
// every already-admitted job runs to completion, then the dispatchers,
// allocator, tenant sessions and pool are released. If ctx expires
// first, all outstanding job contexts are cancelled and Drain waits for
// the (now unblocked) jobs before returning ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.admitMu.Lock()
	if s.draining {
		s.admitMu.Unlock()
		<-s.drained
		return ErrDraining
	}
	s.draining = true
	s.admitMu.Unlock()

	close(s.stopRebalance)
	s.rebalanced.Wait()

	done := make(chan struct{})
	go func() { s.jobWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		// Abort: cancel every job context; jobs observe it and finish.
		s.baseCancel()
		<-done
		s.drainErr = ctx.Err()
	}

	// The watchdog runs until every job has settled — force-cancelling
	// overdue jobs is exactly what makes the wait above converge when a
	// fault stalls a dispatcher — and only then stops.
	close(s.stopWatchdog)
	s.watchdogWG.Wait()

	close(s.queue)
	s.dispatchWG.Wait()

	// Release every tenant session, then the pool.
	s.mu.Lock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()
	for _, t := range tenants {
		t.mu.Lock()
		insts := make([]*instance, 0, len(t.insts))
		for _, i := range t.insts {
			insts = append(insts, i)
		}
		t.mu.Unlock()
		for _, i := range insts {
			i.mu.Lock()
			i.closeSession()
			i.mu.Unlock()
		}
	}
	s.baseCancel()
	s.pool.Close()
	close(s.drained)
	return s.drainErr
}

// Close is Drain without a deadline.
func (s *Server) Close() error { return s.Drain(context.Background()) }
