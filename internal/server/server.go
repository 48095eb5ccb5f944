// Package server implements spiced, a multi-tenant serving daemon over
// the spice runtime: a JSON wire protocol naming registered native
// workload kernels, a bounded admission queue with per-tenant
// concurrency caps, one adaptive pool session per structure instance
// whose own confidence gate and load-aware door decide whether
// speculation pays, and Prometheus-style /metrics — all on the standard
// library alone.
package server

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"runtime"
	"slices"
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
	// (the shared pool's Threads); a session's gate narrows it down to 1.
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

	queue chan *job

	// mu guards the tenant table, the job table and the draining flag.
	// It is a leaf: no other lock is taken while it is held.
	// The job table holds every admitted job by id: a sync job until it
	// settles, an async one (async counts those) until its result is
	// fetched or expired. It is the in-flight set the watchdog sweeps.
	// Admission holds mu across its draining check and jobWG.Add, so
	// once Drain has flipped draining under mu, jobWG counts exactly the
	// jobs that drain must complete.
	mu       sync.Mutex
	tenants  map[string]*tenant
	jobs     map[string]*job
	async    int
	draining bool

	jobWG sync.WaitGroup
	// loops counts the dispatchers and the housekeeping loop; stop ends
	// the latter (housekeep).
	loops sync.WaitGroup
	stop  chan struct{}

	// baseCtx parents every job context so an aborted drain can cancel
	// all outstanding work at once.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	nextID atomic.Int64
	// wedged is the watchdog's verdict, reported by /healthz (sweep).
	wedged atomic.Bool

	drained  chan struct{}
	drainErr error
}

// ErrDraining is returned by Drain when the server is already draining.
var ErrDraining = errors.New("spiced: already draining")

// New builds and starts a Server (its dispatchers and housekeeping loop
// run until Drain).
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
	// store), so one shared pool covers the whole registry. Each
	// instance's session binds its private Cells once. Adaptive: each
	// session's confidence gate judges, row by row, whether its tenant's
	// speculation pays.
	pool, err := spice.NewPool(native.SpecLoop(), spice.PoolConfig{
		Config: spice.Config{Threads: cfg.MaxWidth, Faults: cfg.Faults, Options: spice.Options{Adaptive: true}},
	})
	if err != nil {
		return nil, fmt.Errorf("spiced: pool: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		pool:       pool,
		met:        &metrics{},
		queue:      make(chan *job, queueDepth),
		tenants:    make(map[string]*tenant),
		jobs:       make(map[string]*job),
		stop:       make(chan struct{}),
		baseCtx:    ctx,
		baseCancel: cancel,
		drained:    make(chan struct{}),
	}
	s.loops.Add(procs + 1)
	for i := 0; i < procs; i++ {
		go s.dispatcher()
	}
	go s.housekeep()
	return s, nil
}

// housekeep is the server's background work besides the dispatchers: a
// watchdog sweep every sweepInterval, until Drain closes s.stop.
func (s *Server) housekeep() {
	defer s.loops.Done()
	sweep := time.NewTicker(s.sweepInterval())
	defer sweep.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-sweep.C:
			s.sweep(time.Now())
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
		id:     s.newJobID(),
		req:    req,
		t:      t,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	if notify != nil {
		// Registered on notify until the job's release takes it off.
		j.stopNotify = context.AfterFunc(notify, cancel)
	}
	return j, nil
}

// door is what the two doors share: decode the body, bind it to its
// tenant and admit it. notify is newJob's extra cancellation source; a
// door that passes none admits an async job, which outlives its
// request. door answers a refusal itself and returns nil.
func (s *Server) door(w http.ResponseWriter, r *http.Request, notify context.Context) *job {
	var req JobRequest
	if aerr := decodeJob(w, r, &req); aerr != nil {
		aerr.write(w)
		return nil
	}
	j, aerr := s.newJob(req, notify)
	if aerr != nil {
		aerr.write(w)
		return nil
	}
	j.async = notify == nil
	if aerr := s.admit(j); aerr != nil {
		j.release()
		aerr.write(w)
		return nil
	}
	return j
}

// handleRun is the synchronous door: admit, wait, answer.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	j := s.door(w, r, r.Context())
	if j == nil {
		return
	}
	<-j.done
	if j.err != nil {
		j.err.write(w)
		return
	}
	writeJSON(w, http.StatusOK, j.result)
}

// handleSubmit is the asynchronous door: admit, answer 202 with the id
// to poll.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if j := s.door(w, r, nil); j != nil {
		writeJSON(w, http.StatusAccepted, JobStatus{ID: j.id, State: "queued"})
	}
}

// handleJob polls an async job. Fetching a finished job's status frees
// its table slot (at-most-once delivery of the result body).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// The state is read and a finished job's slot freed under one hold,
	// so of any number of concurrent polls exactly one sees it done.
	s.mu.Lock()
	j, ok := s.jobs[id]
	ok = ok && j.async // a sync job's id is never pollable
	var state jobState
	if ok {
		if state = jobState(j.state.Load()); state == jobDone {
			s.forget(j)
		}
	}
	s.mu.Unlock()
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
// housekeeping loop, tenant sessions and pool are released. If ctx
// expires first, all outstanding job contexts are cancelled and Drain
// waits for the (now unblocked) jobs before returning ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.drained
		return ErrDraining
	}
	s.draining = true
	s.mu.Unlock()

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

	// The housekeeping loop runs until every job has settled — the
	// watchdog force-cancelling overdue jobs is exactly what makes the
	// wait above converge when a fault stalls a dispatcher — and only
	// then stops, with the dispatchers.
	close(s.stop)
	close(s.queue)
	s.loops.Wait()

	// Release every tenant session, then the pool.
	for _, t := range s.tenantList() {
		t.mu.Lock()
		insts := slices.Collect(maps.Values(t.insts))
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
