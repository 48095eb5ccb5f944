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
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spice"
	"spice/internal/faults"
	"spice/internal/workloads/native"
)

// Config tunes a Server. The zero value gets sensible defaults from
// withDefaults; every bound exists because a serving daemon must shed
// overload instead of buffering it.
type Config struct {
	// MaxWidth is the widest speculation any single invocation may use
	// (the shared pool's Threads). Budgets allocate within [1, MaxWidth].
	MaxWidth int
	// Workers sizes the shared executor (0 = topology default).
	Workers int
	// QueueDepth bounds the admission queue; a full queue answers 429.
	QueueDepth int
	// TenantCap bounds one tenant's admitted-but-unfinished jobs.
	TenantCap int
	// Dispatchers is the number of goroutines draining the queue — the
	// job-level concurrency of the daemon.
	Dispatchers int
	// Rebalance is the budget allocator's window length.
	Rebalance time.Duration
	// MinSample is the hit+miss evidence floor below which a window does
	// not move a tenant's score.
	MinSample int64
	// StarveScore is the score below which a tenant is starved to
	// sequential execution (budget 1). The score is the smoothed payoff
	// of the tenant's speculation: hit rate × the share of its
	// speculative chunks a worker ran beside chunk 0 (not reclaimed by
	// the invoker) × the committed share of its iterations. A tenant
	// whose chunks commit and run in parallel scores near 1. Speculation
	// that only misses, or only runs after the invoker's own share,
	// scores near 0. The default is 0.5.
	StarveScore float64
	// ProbeWindows paces starved tenants' width-2 probes: one probe
	// window every ProbeWindows active windows.
	ProbeWindows int
	// MaxTenants bounds the tenant table; MaxInstances bounds each
	// tenant's LRU of structure instances.
	MaxTenants   int
	MaxInstances int
	// MaxListSize and MaxInvocations cap a single request's structure
	// size and invocation count.
	MaxListSize    int64
	MaxInvocations int64
	// JobTimeout bounds one job's execution (and queue wait).
	JobTimeout time.Duration
	// AsyncCap bounds the async job table (POST /v1/submit).
	AsyncCap int
	// WatchdogInterval paces the self-healing sweep (see watchdog.go).
	WatchdogInterval time.Duration
	// WatchdogGrace is the slack past a job's JobTimeout deadline before
	// the watchdog force-cancels it; a job still unfinished a further
	// grace after that marks the dispatcher wedged (healthz 503).
	WatchdogGrace time.Duration
	// ResultTTL expires finished-but-never-fetched async jobs from the
	// result table, freeing their AsyncCap slots.
	ResultTTL time.Duration
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

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxWidth <= 0 {
		c.MaxWidth = runtime.GOMAXPROCS(0)
		if c.MaxWidth < 2 {
			c.MaxWidth = 2
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.TenantCap <= 0 {
		c.TenantCap = 32
	}
	if c.Dispatchers <= 0 {
		c.Dispatchers = runtime.GOMAXPROCS(0)
		if c.Dispatchers < 2 {
			c.Dispatchers = 2
		}
	}
	if c.Rebalance <= 0 {
		c.Rebalance = 500 * time.Millisecond
	}
	if c.MinSample <= 0 {
		c.MinSample = 8
	}
	if c.StarveScore <= 0 {
		c.StarveScore = 0.5
	}
	if c.ProbeWindows <= 0 {
		c.ProbeWindows = 4
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.MaxInstances <= 0 {
		c.MaxInstances = 8
	}
	if c.MaxListSize <= 0 {
		c.MaxListSize = 1_000_000
	}
	if c.MaxInvocations <= 0 {
		c.MaxInvocations = 10_000
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 30 * time.Second
	}
	if c.AsyncCap <= 0 {
		c.AsyncCap = 256
	}
	if c.WatchdogInterval <= 0 {
		c.WatchdogInterval = 250 * time.Millisecond
	}
	if c.WatchdogGrace <= 0 {
		c.WatchdogGrace = 2 * time.Second
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = 2 * time.Minute
	}
	return c
}

// initialScore is a new tenant's starting payoff estimate (tenantFor).
const initialScore = 0.9

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

	// testGate, when non-nil, holds every dispatcher before it starts a
	// job until the test sends on it — making queue occupancy
	// deterministic in the backpressure tests.
	testGate chan struct{}
}

// ErrDraining is returned by Drain when the server is already draining.
var ErrDraining = errors.New("spiced: already draining")

// New builds and starts a Server (its dispatchers and allocator run
// until Drain).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	// SpecLoop rather than Loop: the universal speculative body serves
	// DOALL and DOACROSS kernels alike (DOALL nodes never touch the cell
	// store), so one shared pool covers the whole registry. Each job
	// binds its instance's private Cells before running.
	pool, err := spice.NewPool(native.SpecLoop(), spice.PoolConfig{
		Config:  spice.Config{Threads: cfg.MaxWidth, Faults: cfg.Faults},
		Workers: cfg.Workers,
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
		queue:         make(chan *job, cfg.QueueDepth),
		baseCtx:       ctx,
		baseCancel:    cancel,
		asyncJobs:     make(map[string]*job),
		inflightJobs:  make(map[*job]struct{}),
		stopWatchdog:  make(chan struct{}),
		stopRebalance: make(chan struct{}),
		drained:       make(chan struct{}),
		testGate:      cfg.testGate,
	}
	s.dispatchWG.Add(cfg.Dispatchers)
	for i := 0; i < cfg.Dispatchers; i++ {
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
	t := time.NewTicker(s.cfg.Rebalance)
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
	// API: a healthz flipping to 503 or a /debug/vars encode failure
	// should move the 5xx counter, not vanish from it.
	mux.HandleFunc("GET /metrics", s.counted(s.handleMetrics))
	mux.HandleFunc("GET /healthz", s.counted(s.handleHealthz))
	mux.HandleFunc("GET /debug/vars", s.counted(s.handleVars))
	return mux
}

// newJob validates the request and binds it to its tenant and a
// deadline context parented on baseCtx. notify, when non-nil, is an
// extra cancellation source (the HTTP request's context for sync jobs).
func (s *Server) newJob(req JobRequest, notify context.Context) (*job, *apiError) {
	if aerr := req.normalize(&s.cfg); aerr != nil {
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

// maxRequestBytes bounds a job request's body. A JobRequest is a dozen
// scalar fields; anything near this size is not one.
const maxRequestBytes = 64 << 10

// decodeJob reads the one JobRequest that is the request body, refusing
// a body over maxRequestBytes with 413 and anything else with 400: bad
// JSON, a field JobRequest does not have (a misspelt "invocations" must
// not run with the default), or anything after the first value.
func decodeJob(w http.ResponseWriter, r *http.Request, req *JobRequest) *apiError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(req)
	if err == nil {
		// The body is one value: a second Decode has to find its end
		// (io.EOF, which Decode returns bare).
		if err = dec.Decode(&struct{}{}); err == io.EOF {
			return nil
		} else if err == nil {
			err = errors.New("more than one value in the body")
		}
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return &apiError{code: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("request body over %d bytes", maxRequestBytes)}
	default:
		return badRequest("bad JSON: " + err.Error())
	}
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
	if len(s.asyncJobs) >= s.cfg.AsyncCap {
		s.asyncMu.Unlock()
		j.release()
		s.met.rejAsyncFull.Add(1)
		(&apiError{
			code:       http.StatusTooManyRequests,
			msg:        fmt.Sprintf("async job table full (%d jobs); fetch finished jobs to free slots", s.cfg.AsyncCap),
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
