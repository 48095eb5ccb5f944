package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spice"
	"spice/internal/workloads/native"
)

// testConfig is the tests' baseline: a width the allocator tests reason
// about; every other bound is the daemon's own.
func testConfig() Config { return Config{MaxWidth: 4} }

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// dispatchers is the number of dispatchers New starts.
func dispatchers() int { return max(runtime.GOMAXPROCS(0), 2) }

// stopAllocator stops the server's allocator loop, so that a test
// calling rebalance() by hand owns every window. The fresh stop channel
// is for Drain to close.
func stopAllocator(s *Server) {
	close(s.stopRebalance)
	s.rebalanced.Wait()
	s.stopRebalance = make(chan struct{})
}

// admitN admits n small jobs straight into the queue (no async table
// slot), tenantCap to a tenant named prefix0, prefix1, … so that no
// tenant's cap fires first.
func admitN(t *testing.T, s *Server, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		j, aerr := s.newJob(JobRequest{Tenant: fmt.Sprintf("%s%d", prefix, i/tenantCap), Kernel: "sumlist", Size: 100}, nil)
		if aerr != nil {
			t.Fatalf("job %d: %s", i, aerr.msg)
		}
		if aerr := s.admit(j); aerr != nil {
			j.release()
			t.Fatalf("admit %d: %s", i, aerr.msg)
		}
	}
}

// TestDerivedDefaults: New(Config{}) runs with the defaults spiced runs
// with — width and dispatchers max(GOMAXPROCS, 2), a 30 s job bound, the
// watchdog's clock derived from it, a 256-job queue.
func TestDerivedDefaults(t *testing.T) {
	gate := make(chan struct{})
	s := newTestServer(t, Config{testGate: gate})
	defer close(gate)
	if s.cfg.MaxWidth != dispatchers() || s.cfg.JobTimeout != 30*time.Second {
		t.Fatalf("MaxWidth %d, JobTimeout %v; want %d, 30s", s.cfg.MaxWidth, s.cfg.JobTimeout, dispatchers())
	}
	if g, i := s.grace(), s.sweepInterval(); g != 2*time.Second || i != 250*time.Millisecond {
		t.Fatalf("watchdog grace %v, interval %v; want 2s, 250ms", g, i)
	}
	// Each dispatcher takes one job and holds it at the gate, so of one
	// job more than there are dispatchers, one stays queued.
	admitN(t, s, "held", dispatchers()+1)
	waitFor(t, "every dispatcher to hold a job", func() bool { return len(s.queue) == 1 })
	time.Sleep(20 * time.Millisecond) // room for a further dispatcher to take it
	if n := len(s.queue); n != 1 {
		t.Fatalf("%d jobs queued behind %d held ones, want 1: more dispatchers than max(GOMAXPROCS, 2)", n, dispatchers())
	}
	w := do(s.Handler(), "GET", "/metrics", nil)
	if !regexp.MustCompile(`(?m)^spiced_queue_capacity 256$`).MatchString(w.Body.String()) {
		t.Fatal("/metrics does not report spiced_queue_capacity 256")
	}
}

// do runs one request through the server's handler.
// do serves one request: body is sent as it is when it is a string, as
// its JSON encoding otherwise, and not at all when nil.
func do(h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	var r *http.Request
	if raw, ok := body.(string); ok {
		r = httptest.NewRequest(method, path, strings.NewReader(raw))
	} else if body != nil {
		b, _ := json.Marshal(body)
		r = httptest.NewRequest(method, path, strings.NewReader(string(b)))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func decode[T any](t testing.TB, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", w.Body.String(), err)
	}
	return v
}

// seqSum is the oracle: a plain traversal of the same deterministic
// structure the server builds for (kernel, size, seed).
func seqSum(kernel string, size, seed int64) int64 {
	inst := native.ByName(kernel).New(size, seed, 0)
	var sum int64
	for n := inst.Head; n != nil; n = n.Next {
		sum += n.W
	}
	return sum
}

// waitFor polls until cond holds (the dispatcher hand-off is
// asynchronous even when execution is gated).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunSyncMatchesSequentialOracle(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	w := do(h, "POST", "/v1/run", JobRequest{Tenant: "t1", Kernel: "sumlist", Size: 5000, Seed: 7})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	res := decode[JobResult](t, w)
	if want := seqSum("sumlist", 5000, 7); res.Result != want {
		t.Fatalf("result %d, sequential oracle %d", res.Result, want)
	}
	if res.Budget < 1 || res.Invocations != 1 || res.Iters == 0 {
		t.Fatalf("implausible result row: %+v", res)
	}
}

func TestRunChurnedMultiInvocation(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	// Churned jobs traverse a mutating structure; correctness is checked
	// by the workloads package's own oracle tests, here we check the job
	// accounting: every invocation executed, iterations counted.
	w := do(h, "POST", "/v1/run", JobRequest{Tenant: "t1", Kernel: "drift", Size: 3000, Churn: 16, Invocations: 10})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	res := decode[JobResult](t, w)
	if res.Invocations != 10 {
		t.Fatalf("invocations %d, want 10", res.Invocations)
	}
	if res.Iters < 10*3000 {
		t.Fatalf("iters %d, want at least %d", res.Iters, 10*3000)
	}
}

func TestRunBatchedImmutableJob(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	// churn=0 + several invocations rides Session.RunBatch; the batch's
	// final accumulator must still equal the sequential sum.
	w := do(h, "POST", "/v1/run", JobRequest{Tenant: "t1", Kernel: "sumlist", Size: 4000, Seed: 3, Invocations: 8})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	res := decode[JobResult](t, w)
	if want := seqSum("sumlist", 4000, 3); res.Result != want {
		t.Fatalf("result %d, oracle %d", res.Result, want)
	}
	if res.Invocations != 8 {
		t.Fatalf("invocations %d, want 8", res.Invocations)
	}
}

func TestValidationRejects(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	for _, tc := range []struct {
		name string
		req  JobRequest
	}{
		{"missing tenant", JobRequest{Kernel: "sumlist"}},
		{"bad tenant chars", JobRequest{Tenant: "a b", Kernel: "sumlist"}},
		{"unknown kernel", JobRequest{Tenant: "t", Kernel: "nope"}},
		{"oversize", JobRequest{Tenant: "t", Kernel: "sumlist", Size: 1 << 40}},
		{"negative churn", JobRequest{Tenant: "t", Kernel: "sumlist", Churn: -1}},
		{"too many invocations", JobRequest{Tenant: "t", Kernel: "sumlist", Invocations: 1 << 40}},
	} {
		if w := do(h, "POST", "/v1/run", tc.req); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, w.Code, w.Body.String())
		}
	}
	if w := do(h, "POST", "/v1/run", nil); w.Code != http.StatusBadRequest {
		t.Errorf("empty body: status %d, want 400", w.Code)
	}
	// Bodies no JobRequest marshals to: a misspelt field must not run
	// with the default, and the body is one value, not the first of two.
	for _, tc := range []struct{ name, body string }{
		{"unknown field", `{"tenant":"t","kernel":"sumlist","size":100,"invocation":8}`},
		{"trailing value", `{"tenant":"t","kernel":"sumlist","size":100} {"tenant":"u"}`},
		{"trailing garbage", `{"tenant":"t","kernel":"sumlist","size":100} x`},
	} {
		if w := do(h, "POST", "/v1/run", tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, w.Code, w.Body.String())
		}
	}
	if w := do(h, "POST", "/v1/run", `{"tenant":"t","kernel":"sumlist","size":100}`+"\n"); w.Code != http.StatusOK {
		t.Errorf("a request followed by a newline: status %d, want 200 (%s)", w.Code, w.Body.String())
	}
}

func TestKernelsEndpoint(t *testing.T) {
	s := newTestServer(t, testConfig())
	w := do(s.Handler(), "GET", "/v1/kernels", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	ks := decode[[]KernelInfo](t, w)
	names := make(map[string]bool)
	for _, k := range ks {
		names[k.Name] = true
	}
	for _, want := range []string{"sumlist", "drift", "shuffle", "hostile"} {
		if !names[want] {
			t.Fatalf("kernel %q missing from %v", want, ks)
		}
	}
}

// TestQueueFullSheds429 is the bounded-queue contract: with the
// dispatcher gated and the queue at capacity, admission answers 429
// with a Retry-After hint instead of buffering without bound.
func TestQueueFullSheds429(t *testing.T) {
	cfg := testConfig()
	cfg.testGate = make(chan struct{})
	s := newTestServer(t, cfg)
	defer close(cfg.testGate)
	h := s.Handler()

	// One job per dispatcher: picked up and held at the gate.
	admitN(t, s, "held", dispatchers())
	waitFor(t, "dispatcher pickup", func() bool { return len(s.queue) == 0 })
	// queueDepth more fill the queue.
	admitN(t, s, "queued", queueDepth)
	// The queue is full: the next admission must shed.
	w := do(h, "POST", "/v1/submit", JobRequest{Tenant: "t", Kernel: "sumlist", Size: 100})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overload: status %d, want 429 (%s)", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
	if got := s.met.rejQueueFull.Load(); got != 1 {
		t.Fatalf("rejQueueFull %d, want 1", got)
	}
	// Sync requests shed identically.
	if w := do(h, "POST", "/v1/run", JobRequest{Tenant: "t", Kernel: "sumlist", Size: 100}); w.Code != http.StatusTooManyRequests {
		t.Fatalf("sync overload: status %d, want 429", w.Code)
	}
}

// TestTenantCap verifies per-tenant concurrency isolation: one tenant
// at its cap is rejected while another tenant is still admitted. Run
// under -race this also exercises the admission accounting.
func TestTenantCap(t *testing.T) {
	cfg := testConfig()
	cfg.testGate = make(chan struct{})
	s := newTestServer(t, cfg)
	defer close(cfg.testGate)
	h := s.Handler()

	submit := func(tenant string) *httptest.ResponseRecorder {
		return do(h, "POST", "/v1/submit", JobRequest{Tenant: tenant, Kernel: "sumlist", Size: 100})
	}
	for i := 0; i < tenantCap; i++ {
		if w := submit("capped"); w.Code != http.StatusAccepted {
			t.Fatalf("capped job %d: status %d", i, w.Code)
		}
	}
	w := submit("capped")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over cap: status %d, want 429 (%s)", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
	if got := s.met.rejTenantCap.Load(); got != 1 {
		t.Fatalf("rejTenantCap %d, want 1", got)
	}
	// A different tenant is unaffected by the first tenant's cap.
	if w := submit("other"); w.Code != http.StatusAccepted {
		t.Fatalf("other tenant: status %d, want 202", w.Code)
	}
}

// TestTenantCapConcurrent hammers one capped tenant from many
// goroutines; the data-race detector covers the admission path and the
// invariant is exact accounting: accepted + capped == total, and after
// the jobs finish the tenant's inflight count returns to zero.
func TestTenantCapConcurrent(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()

	const clients = 2 * tenantCap
	var wg sync.WaitGroup
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := do(h, "POST", "/v1/run", JobRequest{Tenant: "hammer", Kernel: "sumlist", Size: 20_000, Invocations: 4})
			codes[i] = w.Code
		}(i)
	}
	wg.Wait()
	var ok, capped int
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			capped++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok+capped != clients || ok == 0 {
		t.Fatalf("ok=%d capped=%d, want them to partition %d with ok>0", ok, capped, clients)
	}
	tn, _ := s.tenantFor("hammer")
	tn.mu.Lock()
	inflight := tn.inflight
	tn.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("inflight %d after all jobs finished, want 0", inflight)
	}
}

// notifyCtx stands in for a request's context and keeps its own
// registrations: context.AfterFunc schedules through a context's
// AfterFunc method when it has one, so a test can count what is still
// registered and run it by hand.
type notifyCtx struct {
	context.Context
	done  chan struct{}
	mu    sync.Mutex
	err   error
	funcs map[int]func()
	next  int
}

func newNotifyCtx() *notifyCtx {
	return &notifyCtx{Context: context.Background(), done: make(chan struct{}), funcs: map[int]func(){}}
}

func (c *notifyCtx) Done() <-chan struct{} { return c.done }

func (c *notifyCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *notifyCtx) AfterFunc(f func()) (stop func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.next
	c.next++
	c.funcs[id] = f
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, registered := c.funcs[id]
		delete(c.funcs, id)
		return registered
	}
}

// cancel ends the context the way net/http ends a request's when its
// handler returns, and reports how many registered functions that ran.
func (c *notifyCtx) cancel() int {
	c.mu.Lock()
	c.err = context.Canceled
	close(c.done)
	funcs := c.funcs
	c.funcs = nil
	c.mu.Unlock()
	for _, f := range funcs {
		f()
	}
	return len(funcs)
}

// TestFinishedJobLeavesRequestContext: a synchronous job cancels with
// its request while it is live, and takes that registration off the
// request's context when it finishes (or is refused admission). Left
// there, the end of every request would start a goroutine to cancel a
// context finish had already cancelled.
func TestFinishedJobLeavesRequestContext(t *testing.T) {
	s := newTestServer(t, testConfig())
	req := JobRequest{Tenant: "t", Kernel: "sumlist", Size: 100}

	// The premise: a live job goes with its client.
	notify := newNotifyCtx()
	live, aerr := s.newJob(req, notify)
	if aerr != nil {
		t.Fatalf("newJob: %v", aerr.msg)
	}
	if ran := notify.cancel(); ran != 1 {
		t.Fatalf("%d functions registered on the request's context of a live job, want 1", ran)
	}
	select {
	case <-live.ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the request's cancellation did not reach the live job")
	}
	live.release()

	for name, settle := range map[string]func(*job){
		"finished": func(j *job) { j.finish(nil, nil) },
		"refused":  (*job).release,
	} {
		notify := newNotifyCtx()
		j, aerr := s.newJob(req, notify)
		if aerr != nil {
			t.Fatalf("newJob: %v", aerr.msg)
		}
		settle(j)
		if j.ctx.Err() == nil {
			t.Fatalf("%s job: its context is still live", name)
		}
		if ran := notify.cancel(); ran != 0 {
			t.Fatalf("%s job: the end of the request ran %d function(s) it had left registered", name, ran)
		}
	}
}

// TestQueuedSyncJobCancelledByClient: a client that goes away while its
// synchronous job waits in the queue gets no run: the job settles 499
// once a dispatcher reaches it, and the books balance.
func TestQueuedSyncJobCancelledByClient(t *testing.T) {
	cfg := testConfig()
	cfg.testGate = make(chan struct{})
	s := newTestServer(t, cfg)
	openGate := sync.OnceFunc(func() { close(cfg.testGate) })
	defer openGate() // also on a failed wait, so the server's Close can drain
	h := s.Handler()

	// A job occupies every (gated) dispatcher, so the next one queues.
	held := dispatchers()
	admitN(t, s, "held", held)
	waitFor(t, "dispatcher pickup", func() bool { return len(s.queue) == 0 })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	answered := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		body, _ := json.Marshal(JobRequest{Tenant: "t", Kernel: "sumlist", Size: 100})
		r := httptest.NewRequest("POST", "/v1/run", strings.NewReader(string(body))).WithContext(ctx)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		answered <- w
	}()
	waitFor(t, "the sync job to queue", func() bool { return len(s.queue) == 1 })

	cancel()
	waitFor(t, "the cancellation to reach the queued job", func() bool {
		s.watchMu.Lock()
		defer s.watchMu.Unlock()
		for j := range s.inflightJobs {
			if j.ctx.Err() != nil {
				return true
			}
		}
		return false
	})
	openGate()

	w := <-answered
	if w.Code != statusClientClosedRequest {
		t.Fatalf("status %d, want %d (%s)", w.Code, statusClientClosedRequest, w.Body.String())
	}
	waitFor(t, "every job to settle", func() bool { return s.met.jobsOK.Load()+s.met.jobsFailed.Load() == int64(held+1) })
	if adm, ok, failed := s.met.admitted.Load(), s.met.jobsOK.Load(), s.met.jobsFailed.Load(); adm != int64(held+1) || ok != int64(held) || failed != 1 {
		t.Fatalf("admitted %d, ok %d, failed %d; want %d, %d, 1", adm, ok, failed, held+1, held)
	}
	tn, _ := s.tenantFor("t")
	waitFor(t, "inflight to drop", func() bool {
		tn.mu.Lock()
		defer tn.mu.Unlock()
		return tn.inflight == 0
	})
	waitFor(t, "the watchdog to forget every job", func() bool {
		s.watchMu.Lock()
		defer s.watchMu.Unlock()
		return len(s.inflightJobs) == 0
	})
}

// TestDrain is the graceful-shutdown contract: draining finishes
// admitted jobs, rejects new ones with 503, flips /healthz, and leaves
// the async results fetchable.
func TestDrain(t *testing.T) {
	cfg := testConfig()
	cfg.testGate = make(chan struct{})
	s := newTestServer(t, cfg)
	h := s.Handler()

	w := do(h, "POST", "/v1/submit", JobRequest{Tenant: "t", Kernel: "sumlist", Size: 2000, Seed: 5})
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d", w.Code)
	}
	id := decode[JobStatus](t, w).ID
	waitFor(t, "dispatcher pickup", func() bool { return len(s.queue) == 0 })

	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(context.Background()) }()
	waitFor(t, "draining flag", func() bool {
		return do(h, "GET", "/healthz", nil).Code == http.StatusServiceUnavailable
	})

	// New work is rejected while draining.
	if w := do(h, "POST", "/v1/run", JobRequest{Tenant: "t", Kernel: "sumlist"}); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("run while draining: status %d, want 503", w.Code)
	}

	// Release the in-flight job; drain must now complete.
	close(cfg.testGate)
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// The admitted job ran to completion and its result is intact.
	w = do(h, "GET", "/v1/jobs/"+id, nil)
	st := decode[JobStatus](t, w)
	if st.State != "done" || st.Result == nil || st.Error != "" {
		t.Fatalf("drained job status: %+v", st)
	}
	if want := seqSum("sumlist", 2000, 5); st.Result.Result != want {
		t.Fatalf("drained job result %d, oracle %d", st.Result.Result, want)
	}

	// A second Drain reports the server was already draining.
	if err := s.Drain(context.Background()); err != ErrDraining {
		t.Fatalf("second Drain: %v, want ErrDraining", err)
	}
}

// feed folds one allocator window of constructed evidence into the
// named tenant through tenant.record and returns the tenant. The window
// is the Stats delta of 20 invocations over a 4 000-node list at the
// budget the allocator last granted: each invocation dispatches
// budget-1 speculative chunks, a miss share of them squashed (a chunk's
// worth of iterations each) and a reclaim share run by the invoker
// after its own chunk. A width-1 window carries no speculative
// evidence, as a starved tenant's sequential jobs carry none. The
// allocator tests are built on these windows, not on real jobs: what a
// real job reclaims depends on whether a worker wakes in time, which
// the host's core count decides.
func feed(t *testing.T, s *Server, name string, miss, reclaim float64) *tenant {
	t.Helper()
	tn, aerr := s.tenantFor(name)
	if aerr != nil {
		t.Fatalf("tenant %s: %s", name, aerr.msg)
	}
	const invocations, size = 20, 4000
	d := spice.Stats{Invocations: invocations, TotalIters: invocations * size}
	if w := tn.budget.Load(); w > 1 {
		chunks := invocations * (w - 1)
		d.Misses = int64(float64(chunks) * miss)
		d.Hits = chunks - d.Misses
		d.Reclaimed = int64(float64(chunks) * reclaim)
		d.SquashedIters = d.Misses * size / w
	}
	tn.record(d)
	return tn
}

// isStarved reads the allocator's starved mark under the tenant lock.
func isStarved(tn *tenant) bool {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return tn.starved
}

// TestBudgetAllocatorDifferential is the allocator's core promise: a
// tenant whose loops predict well ends with at least the width of a
// tenant that misspeculates chronically — and the misspeculator is
// starved toward sequential execution.
func TestBudgetAllocatorDifferential(t *testing.T) {
	cfg := testConfig()
	s := newTestServer(t, cfg)
	stopAllocator(s)

	// Several allocator windows of opposite evidence: "good" commits
	// every chunk, "bad" squashes half of its chunks. "bad" is starved
	// within three windows, so five leave it fewer than probeWindows
	// starved windows: no full-width probe inside the test horizon.
	for window := 0; window < 5; window++ {
		feed(t, s, "good", 0, 0)
		feed(t, s, "bad", 0.5, 0)
		s.rebalance()
	}

	good, _ := s.tenantFor("good")
	bad, _ := s.tenantFor("bad")
	gb, bb := good.budget.Load(), bad.budget.Load()
	if gb < bb {
		t.Fatalf("good tenant budget %d < bad tenant budget %d", gb, bb)
	}
	if gb < 3 {
		t.Fatalf("well-predicting tenant budget %d, want near MaxWidth %d", gb, cfg.MaxWidth)
	}
	if bb > 2 {
		t.Fatalf("misspeculating tenant budget %d, want starved to <= 2", bb)
	}
	if !isStarved(bad) {
		t.Fatalf("misspeculating tenant not marked starved")
	}
}

// TestStarvedTenantProbesBack verifies recovery: a starved tenant that
// starts predicting well again earns its width back through the
// periodic full-width probes.
func TestStarvedTenantProbesBack(t *testing.T) {
	s := newTestServer(t, testConfig())
	stopAllocator(s)

	tn := feed(t, s, "flip", 0.5, 0)
	s.rebalance()
	for window := 0; window < 4 && !isStarved(tn); window++ {
		feed(t, s, "flip", 0.5, 0)
		s.rebalance()
	}
	if b := tn.budget.Load(); b > 2 || !isStarved(tn) {
		t.Fatalf("hostile phase budget %d, want starved", b)
	}
	// Reform: the same tenant now predicts well. Its starved windows run
	// sequentially and testify to nothing; a probe window readmits its
	// evidence, and the score EWMA climbs back over starveScore.
	for window := 0; window < 12 && isStarved(tn); window++ {
		feed(t, s, "flip", 0, 0)
		s.rebalance()
	}
	if b := tn.budget.Load(); b < 3 || isStarved(tn) {
		t.Fatalf("reformed tenant budget %d, want recovery above 2", b)
	}
}

// TestReclaimedChunksEarnNothing is the payoff rule: two tenants with
// the same hits, one whose every speculative chunk the invoker
// reclaimed after its own share (no worker ran it beside chunk 0), the
// other whose chunks a worker ran. The first is starved to width 1; the
// second keeps MaxWidth. A probe window whose chunks are still
// reclaimed leaves the first starved, and one whose chunks a worker ran
// earns it its width back.
func TestReclaimedChunksEarnNothing(t *testing.T) {
	cfg := testConfig()
	s := newTestServer(t, cfg)
	stopAllocator(s)

	late := feed(t, s, "late", 0, 1)
	ran := feed(t, s, "ran", 0, 0)
	// probeWindow runs windows until the allocator has granted "late" a
	// probe, then one window at the probe's width with the given reclaim
	// share (a starved window runs at width 1 and carries no evidence, so
	// the share moves nothing before). "ran" keeps MaxWidth meanwhile.
	probeWindow := func(reclaim float64) {
		t.Helper()
		for window := 0; window <= 2*probeWindows; window++ {
			probe := late.budget.Load() == int64(cfg.MaxWidth)
			feed(t, s, "late", 0, reclaim)
			feed(t, s, "ran", 0, 0)
			s.rebalance()
			if probe {
				return
			}
			if b := ran.budget.Load(); b != int64(cfg.MaxWidth) {
				t.Fatalf("window %d: the tenant whose chunks a worker ran has budget %d, want %d", window, b, cfg.MaxWidth)
			}
		}
		t.Fatal("no probe granted")
	}

	// The test drives every window itself: nothing else touches them.
	lw, rw := late.win, ran.win
	if lw.Hits != rw.Hits || lw.Misses != 0 || lw.Reclaimed != lw.Hits || rw.Reclaimed != 0 {
		t.Fatalf("windows: late %+v, ran %+v; want equal hits, all of late's reclaimed", lw, rw)
	}
	s.rebalance()
	if b := late.budget.Load(); b != 1 || !isStarved(late) {
		t.Fatalf("every hit reclaimed: budget %d starved %v, want 1 true", b, isStarved(late))
	}
	if b := ran.budget.Load(); b != int64(cfg.MaxWidth) || isStarved(ran) {
		t.Fatalf("every hit run by a worker: budget %d starved %v, want %d false", b, isStarved(ran), cfg.MaxWidth)
	}

	// A probe whose chunks are still reclaimed testifies to the same.
	probeWindow(1)
	if b := late.budget.Load(); b != 1 || !isStarved(late) {
		t.Fatalf("after a reclaimed probe: budget %d starved %v, want 1 true", b, isStarved(late))
	}
	// A probe whose chunks a worker ran earns the width back.
	probeWindow(0)
	if b := late.budget.Load(); b < 2 || isStarved(late) {
		t.Fatalf("after a probe a worker ran: budget %d starved %v, want >= 2 false", b, isStarved(late))
	}
}

var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[-+]?[0-9.eE+-]+|[-+]?Inf)$`)

// TestMetricsParseable drives traffic from two tenants and then checks
// /metrics renders well-formed exposition text with the per-tenant
// serving series present.
func TestMetricsParseable(t *testing.T) {
	s := newTestServer(t, testConfig())
	stopAllocator(s)
	h := s.Handler()

	for i := 0; i < 2; i++ {
		if w := do(h, "POST", "/v1/run", JobRequest{Tenant: "good", Kernel: "sumlist", Size: 2000, Invocations: 5}); w.Code != http.StatusOK {
			t.Fatalf("good job: %d", w.Code)
		}
		if w := do(h, "POST", "/v1/run", JobRequest{Tenant: "bad", Kernel: "hostile", Size: 2000, Churn: 64, Invocations: 5}); w.Code != http.StatusOK {
			t.Fatalf("bad job: %d", w.Code)
		}
	}
	s.rebalance()

	w := do(h, "GET", "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	seen := make(map[string]bool)
	sums := make(map[string]float64) // every series' values, added up per name
	sc := bufio.NewScanner(strings.NewReader(w.Body.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Fatalf("unparseable metric line %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		seen[name] = true
		// The value must parse as a float.
		val := line[strings.LastIndexByte(line, ' ')+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("metric line %q: bad value: %v", line, err)
		}
		sums[name] += v
	}
	// Every pool chunk ran for some tenant: the per-tenant reclaim
	// counters the allocator's evidence comes from add up to the pool's.
	if pool, tenants := sums["spiced_pool_reclaimed_chunks_total"], sums["spiced_tenant_reclaimed_chunks_total"]; pool != tenants {
		t.Fatalf("tenants' reclaimed chunks sum to %v, the pool's to %v", tenants, pool)
	}
	for _, want := range []string{
		"spiced_queue_depth", "spiced_jobs_admitted_total", "spiced_jobs_rejected_total",
		"spiced_pool_invocations_total", "spiced_pool_reclaimed_chunks_total",
		"spiced_tenant_budget", "spiced_tenant_score",
		"spiced_tenant_spec_hits_total", "spiced_tenant_spec_misses_total",
		"spiced_tenant_reclaimed_chunks_total",
		"spiced_job_duration_seconds_bucket", "spiced_job_duration_seconds_count",
	} {
		if !seen[want] {
			t.Fatalf("metric %q missing; have %v", want, seen)
		}
	}
	// The two tenants' budget series must both be present.
	body := w.Body.String()
	for _, want := range []string{`spiced_tenant_budget{tenant="good"}`, `spiced_tenant_budget{tenant="bad"}`} {
		if !strings.Contains(body, want) {
			t.Fatalf("series %q missing from /metrics", want)
		}
	}
}

// TestQueueWaitHistogram: every job that reaches a dispatcher, served
// or failed, lands once in spiced_job_queue_seconds, and what it
// records is the wait from admission to the dispatcher, here at least
// the time a burst was held at the gate.
func TestQueueWaitHistogram(t *testing.T) {
	cfg := testConfig()
	cfg.testGate = make(chan struct{})
	s := newTestServer(t, cfg)
	openGate := sync.OnceFunc(func() { close(cfg.testGate) })
	defer openGate()
	h := s.Handler()

	const hold = 20 * time.Millisecond
	n := 2*dispatchers() + 4
	var cancels []context.CancelFunc
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if i%3 == 0 {
			cancels = append(cancels, cancel) // a client that goes away: the job fails 499
		}
		go func() {
			body, _ := json.Marshal(JobRequest{Tenant: "burst", Kernel: "sumlist", Size: 500, Invocations: 2})
			r := httptest.NewRequest("POST", "/v1/run", strings.NewReader(string(body))).WithContext(ctx)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			codes <- w.Code
		}()
	}
	waitFor(t, "the burst to be admitted", func() bool { return s.met.admitted.Load() == int64(n) })
	for _, cancel := range cancels {
		cancel()
	}
	time.Sleep(hold)
	openGate()

	var ok, failed int
	for i := 0; i < n; i++ {
		switch code := <-codes; code {
		case http.StatusOK:
			ok++
		case statusClientClosedRequest:
			failed++
		default:
			t.Fatalf("status %d", code)
		}
	}
	if failed != len(cancels) {
		t.Fatalf("%d jobs failed, %d clients went away", failed, len(cancels))
	}
	waitFor(t, "every job to settle", func() bool { return s.met.jobsOK.Load()+s.met.jobsFailed.Load() == int64(n) })
	body := do(h, "GET", "/metrics", nil).Body.String()
	read := func(series string) float64 {
		m := regexp.MustCompile(`(?m)^` + series + ` (\S+)$`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("%s missing from /metrics", series)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("%s: %v", series, err)
		}
		return v
	}
	if count, jobs := read("spiced_job_queue_seconds_count"), read("spiced_jobs_completed_total")+read("spiced_jobs_failed_total"); count != jobs || count != float64(ok+failed) {
		t.Fatalf("queue histogram counts %v jobs; ok + failed = %v, the clients saw %d", count, jobs, ok+failed)
	}
	if sum := read("spiced_job_queue_seconds_sum"); sum < float64(n)*hold.Seconds() {
		t.Fatalf("queue waits sum to %vs, under %d jobs held %v each", sum, n, hold)
	}
}

// BenchmarkServeJob is serve_light's job (a batched 2 000-node sumlist
// job of 8 invocations) POSTed through Handler with no socket: decode,
// admission, the dispatcher hand-off, the pool session and the encode.
// `go test -cpuprofile` over it attributes the daemon's time per job.
func BenchmarkServeJob(b *testing.B) {
	s := newTestServer(b, Config{})
	h := s.Handler()
	body, _ := json.Marshal(JobRequest{Tenant: "light", Kernel: "sumlist", Size: 2000, Seed: 1, Invocations: 8})
	post := func() *httptest.ResponseRecorder {
		w := do(h, "POST", "/v1/run", string(body))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		return w
	}
	if got, want := decode[JobResult](b, post()).Result, seqSum("sumlist", 2000, 1); got != want {
		b.Fatalf("result %d, sequential oracle %d", got, want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// TestDebugVarsAndHealthz: /metrics is the one scrape endpoint, so
// /debug/vars answers 404; /healthz answers ok while serving.
func TestDebugVarsAndHealthz(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	if w := do(h, "POST", "/v1/run", JobRequest{Tenant: "t", Kernel: "sumlist", Size: 500}); w.Code != http.StatusOK {
		t.Fatalf("job: %d", w.Code)
	}
	if w := do(h, "GET", "/debug/vars", nil); w.Code != http.StatusNotFound {
		t.Fatalf("/debug/vars: status %d, want 404", w.Code)
	}
	if w := do(h, "GET", "/healthz", nil); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", w.Code, w.Body.String())
	}
}

func TestAsyncLifecycle(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	w := do(h, "POST", "/v1/submit", JobRequest{Tenant: "t", Kernel: "sumlist", Size: 2000, Seed: 9})
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", w.Code)
	}
	id := decode[JobStatus](t, w).ID
	var st JobStatus
	waitFor(t, "async completion", func() bool {
		st = decode[JobStatus](t, do(h, "GET", "/v1/jobs/"+id, nil))
		return st.State == "done"
	})
	if st.Result == nil || st.Result.Result != seqSum("sumlist", 2000, 9) {
		t.Fatalf("async result: %+v", st)
	}
	// The finished result was delivered once; the slot is freed.
	if w := do(h, "GET", "/v1/jobs/"+id, nil); w.Code != http.StatusNotFound {
		t.Fatalf("re-fetch: status %d, want 404", w.Code)
	}
	if w := do(h, "GET", "/v1/jobs/nope", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", w.Code)
	}
}

// TestOversizedBodyRefused: both doors bound the body they decode. A
// request over maxRequestBytes is a 413 that moves the 4xx counter; one
// just under it is decoded and judged on its content.
func TestOversizedBodyRefused(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	body := func(n int) string {
		const frame = `{"tenant":""}`
		return `{"tenant":"` + strings.Repeat("a", n-len(frame)) + `"}`
	}
	for _, tc := range []struct {
		name string
		path string
		size int
		want int
	}{
		{"run over", "/v1/run", maxRequestBytes + 1, http.StatusRequestEntityTooLarge},
		{"submit over", "/v1/submit", maxRequestBytes + 1, http.StatusRequestEntityTooLarge},
		{"run far over", "/v1/run", 16 * maxRequestBytes, http.StatusRequestEntityTooLarge},
		{"run at the bound", "/v1/run", maxRequestBytes, http.StatusBadRequest}, // decoded: a tenant name that long is refused
		{"submit at the bound", "/v1/submit", maxRequestBytes, http.StatusBadRequest},
	} {
		before := s.met.http4xx.Load()
		r := httptest.NewRequest("POST", tc.path, strings.NewReader(body(tc.size)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%.80s)", tc.name, w.Code, tc.want, w.Body.String())
		}
		if got := s.met.http4xx.Load() - before; got != 1 {
			t.Errorf("%s: 4xx counter moved by %d, want 1", tc.name, got)
		}
	}
}

// TestFinishedJobDeliveredOnce: of any number of concurrent polls of one
// finished job exactly one receives the result; the rest find the slot
// already freed. The window a second poll needs is a few instructions
// wide, so the wide row repeats: under -race (CI's test step) twenty
// rounds of 64 polls delivered a result twice in every run before the
// check and the delete shared one hold.
func TestFinishedJobDeliveredOnce(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	for _, polls := range append([]int{2, 8}, slices.Repeat([]int{64}, 20)...) {
		w := do(h, "POST", "/v1/submit", JobRequest{Tenant: "t", Kernel: "sumlist", Size: 2000, Seed: 9})
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit: %d", w.Code)
		}
		id := decode[JobStatus](t, w).ID
		// Wait on the table entry, not through the handler: a poll that
		// saw the job done would consume it.
		s.asyncMu.Lock()
		j := s.asyncJobs[id]
		s.asyncMu.Unlock()
		<-j.done

		var delivered, gone, other atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < polls; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				w := do(h, "GET", "/v1/jobs/"+id, nil)
				switch {
				case w.Code == http.StatusNotFound:
					gone.Add(1)
				case w.Code == http.StatusOK && strings.Contains(w.Body.String(), `"state":"done"`):
					delivered.Add(1)
				default:
					other.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		if delivered.Load() != 1 || gone.Load() != int64(polls-1) || other.Load() != 0 {
			t.Fatalf("%d concurrent polls: %d results, %d 404s, %d other; want 1, %d, 0",
				polls, delivered.Load(), gone.Load(), other.Load(), polls-1)
		}
	}
}

func TestAsyncCapSheds(t *testing.T) {
	cfg := testConfig()
	cfg.testGate = make(chan struct{})
	s := newTestServer(t, cfg)
	defer close(cfg.testGate)
	h := s.Handler()
	for i := 0; i < asyncCap; i++ {
		req := JobRequest{Tenant: fmt.Sprintf("t%d", i/tenantCap), Kernel: "sumlist", Size: 100}
		if w := do(h, "POST", "/v1/submit", req); w.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d (%s)", i, w.Code, w.Body.String())
		}
	}
	w := do(h, "POST", "/v1/submit", JobRequest{Tenant: "late", Kernel: "sumlist", Size: 100})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("submit over async cap: %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
	if got := s.met.rejAsyncFull.Load(); got != 1 {
		t.Fatalf("rejAsyncFull %d, want 1", got)
	}
}

// TestTenantTableBound: once maxTenants tenants have been seen, a new
// one is refused 429 for good (no tenant ever leaves the table), so the
// answer carries no Retry-After.
func TestTenantTableBound(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	for i := 0; i < maxTenants; i++ {
		name := fmt.Sprintf("t%d", i)
		if w := do(h, "POST", "/v1/run", JobRequest{Tenant: name, Kernel: "sumlist", Size: 100}); w.Code != http.StatusOK {
			t.Fatalf("tenant %s: %d", name, w.Code)
		}
	}
	w := do(h, "POST", "/v1/run", JobRequest{Tenant: "late", Kernel: "sumlist", Size: 100})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("tenant over table bound: %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "" {
		t.Fatalf("tenant-table-full 429 carries Retry-After %q; no retry can succeed", ra)
	}
}

func TestInstanceLRUEviction(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	// One instance more than the LRU holds evicts seed 1; asking for it
	// again rebuilds it.
	var seeds []int64
	for seed := int64(1); seed <= maxInstances+1; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range append(seeds, 1) {
		w := do(h, "POST", "/v1/run", JobRequest{Tenant: "t", Kernel: "sumlist", Size: 500, Seed: seed})
		if w.Code != http.StatusOK {
			t.Fatalf("seed %d: %d (%s)", seed, w.Code, w.Body.String())
		}
		res := decode[JobResult](t, w)
		if want := seqSum("sumlist", 500, seed); res.Result != want {
			t.Fatalf("seed %d: result %d, oracle %d", seed, res.Result, want)
		}
	}
	tn, _ := s.tenantFor("t")
	tn.mu.Lock()
	n := len(tn.insts)
	tn.mu.Unlock()
	if n > maxInstances {
		t.Fatalf("instance table %d entries, want <= maxInstances %d", n, maxInstances)
	}
}

// TestInstanceLookupHitInPlace: finding a present instance formats no
// key and builds no slice (it runs once per job), and the hit still
// moves to the back of the LRU, so the next eviction takes the instance
// that has gone unused longest.
func TestInstanceLookupHitInPlace(t *testing.T) {
	s := newTestServer(t, testConfig())
	tn, _ := s.tenantFor("t")
	req := func(seed int64) *JobRequest {
		return &JobRequest{Tenant: "t", Kernel: "sumlist", Size: 50, Seed: seed}
	}
	for seed := int64(1); seed <= maxInstances; seed++ {
		if _, evicted := tn.lookupOrCreate(s, req(seed)); evicted != nil {
			t.Fatalf("seed %d evicted %v below maxInstances", seed, evicted.key)
		}
	}
	hit := req(1)
	if allocs := testing.AllocsPerRun(100, func() { tn.lookupOrCreate(s, hit) }); allocs != 0 {
		t.Errorf("a lookup of a present instance allocates %v times, want 0", allocs)
	}
	tn.lookupOrCreate(s, req(2)) // oldest first: 3, …, maxInstances, 1, 2
	_, evicted := tn.lookupOrCreate(s, req(maxInstances+1))
	if evicted == nil || evicted.key != req(3).instanceKey() {
		t.Fatalf("one instance over maxInstances evicted %+v, want seed 3's", evicted)
	}
	var order, want []int64
	for _, k := range tn.lru {
		order = append(order, k.seed)
	}
	for seed := int64(4); seed <= maxInstances; seed++ {
		want = append(want, seed)
	}
	want = append(want, 1, 2, maxInstances+1)
	if !slices.Equal(order, want) {
		t.Fatalf("LRU order (oldest first) %v, want %v", order, want)
	}
}

// oracle replays req on a fresh identical instance through a width-1
// runner, mutating after every invocation: the sequential reference a
// served result must equal bit for bit (same seed, same churn stream).
// Mutate is a no-op at churn 0, so a job the server batches replays
// the same way; the oracle does not copy runJob's batch-vs-loop
// choice, so it cannot share a bug there.
func oracle(t *testing.T, req JobRequest) int64 {
	t.Helper()
	k := native.ByName(req.Kernel)
	if k == nil {
		t.Fatalf("kernel %q not registered", req.Kernel)
	}
	inst := k.New(req.Size, req.Seed, req.Churn)
	r, err := spice.NewRunner(native.SpecLoop(), spice.Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.BindCells(inst.Cells)
	var acc int64
	for i := int64(0); i < req.Invocations; i++ {
		acc, err = r.Run(context.Background(), inst.Head)
		if err != nil {
			t.Fatal(err)
		}
		inst.Mutate()
	}
	return acc
}

// TestDoacrossKernelsServed runs the DOACROSS kernels end to end
// through the serving daemon (which now fronts the registry with the
// universal SpecLoop pool) and checks results against the sequential
// oracle on all three paths: churned per-invocation accum, batched
// immutable accum, and the dense-conflict histo regime — where the
// conflict counter must actually move.
func TestDoacrossKernelsServed(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()

	// accum, churned: the per-invocation Session.Run path.
	w := do(h, "POST", "/v1/run", JobRequest{
		Tenant: "t1", Kernel: "accum", Size: 3000, Seed: 5, Churn: 16, Invocations: 6,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("accum churned: status %d (%s)", w.Code, w.Body.String())
	}
	res := decode[JobResult](t, w)
	if want := oracle(t, JobRequest{Kernel: "accum", Size: 3000, Seed: 5, Churn: 16, Invocations: 6}); res.Result != want {
		t.Fatalf("accum churned: result %d, oracle %d", res.Result, want)
	}

	// accum, immutable: rides Session.RunBatch; cells still carry state
	// across the batched invocations in order.
	w = do(h, "POST", "/v1/run", JobRequest{
		Tenant: "t1", Kernel: "accum", Size: 3000, Seed: 9, Invocations: 4,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("accum batched: status %d (%s)", w.Code, w.Body.String())
	}
	res = decode[JobResult](t, w)
	if want := oracle(t, JobRequest{Kernel: "accum", Size: 3000, Seed: 9, Invocations: 4}); res.Result != want {
		t.Fatalf("accum batched: result %d, oracle %d", res.Result, want)
	}

	// histo at full hot fraction: every node hammers 8 shared buckets, so
	// parallel invocations must take the conflict squash-and-recover path
	// and still match the oracle exactly.
	w = do(h, "POST", "/v1/run", JobRequest{
		Tenant: "t1", Kernel: "histo", Size: 4000, Seed: 3, Churn: 256, Invocations: 8,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("histo dense: status %d (%s)", w.Code, w.Body.String())
	}
	res = decode[JobResult](t, w)
	if want := oracle(t, JobRequest{Kernel: "histo", Size: 4000, Seed: 3, Churn: 256, Invocations: 8}); res.Result != want {
		t.Fatalf("histo dense: result %d, oracle %d", res.Result, want)
	}
	if res.Conflicts == 0 {
		t.Fatalf("histo dense at width %d reported zero conflicts", res.Budget)
	}

	// The kernel listing must advertise the DOACROSS kernels as such.
	kw := do(h, "GET", "/v1/kernels", nil)
	infos := decode[[]KernelInfo](t, kw)
	byName := map[string]KernelInfo{}
	for _, k := range infos {
		byName[k.Name] = k
	}
	if !byName["accum"].DOACROSS || !byName["histo"].DOACROSS || byName["sumlist"].DOACROSS {
		t.Fatalf("DOACROSS flags wrong in /v1/kernels: %+v", byName)
	}
}

// TestProbeStaggering is the regression test for the allocator's probe
// grant: a probe hands a starved tenant MaxWidth *without charging the
// proportional capacity pool*, so several starved tenants all probing
// in the same window used to oversubscribe the executor by
// (starved × MaxWidth) at once. At most one tenant may probe per
// rebalance window, and the grant must rotate so every starved tenant
// still gets its turn.
func TestProbeStaggering(t *testing.T) {
	s := newTestServer(t, testConfig())
	stopAllocator(s)
	h := s.Handler()

	tenants := []string{"s1", "s2", "s3"}
	runAll := func() {
		for _, tn := range tenants {
			w := do(h, "POST", "/v1/run", JobRequest{
				Tenant: tn, Kernel: "hostile", Size: 3000, Churn: 3000, Invocations: 20,
			})
			if w.Code != http.StatusOK {
				t.Fatalf("%s: status %d (%s)", tn, w.Code, w.Body.String())
			}
		}
	}

	// Phase 1: starve all three.
	for window := 0; window < 4; window++ {
		runAll()
		s.rebalance()
	}
	for _, name := range tenants {
		tn, _ := s.tenantFor(name)
		tn.mu.Lock()
		starved := tn.starved
		tn.mu.Unlock()
		if !starved {
			t.Fatalf("tenant %s not starved after hostile phase", name)
		}
	}

	// Phase 2: all three stay active and probe-eligible; every window
	// must grant at most one MaxWidth probe, rotating across tenants.
	probed := map[string]int{}
	for window := 0; window < 9; window++ {
		runAll()
		s.rebalance()
		var grants []string
		for _, name := range tenants {
			tn, _ := s.tenantFor(name)
			if tn.budget.Load() > 1 {
				grants = append(grants, name)
			}
		}
		if len(grants) > 1 {
			t.Fatalf("window %d granted %d simultaneous probes (%v), want at most 1",
				window, len(grants), grants)
		}
		for _, g := range grants {
			probed[g]++
		}
	}
	if len(probed) != len(tenants) {
		t.Fatalf("probe grants did not rotate: only %v probed over 9 windows", probed)
	}
}

// TestEvictedInstanceFailsQueuedJob is the regression test for the
// eviction/queued-job race: a job admitted while its instance was live
// could reach ensureSession after LRU eviction closed the instance's
// session, silently re-opening a session that no eviction or drain walk
// would ever close again (a leaked runner pinned forever). An evicted
// instance must now fail the late job fast instead.
func TestEvictedInstanceFailsQueuedJob(t *testing.T) {
	s := newTestServer(t, testConfig())

	tn, aerr := s.tenantFor("t1")
	if aerr != nil {
		t.Fatal(aerr)
	}
	reqA := JobRequest{Tenant: "t1", Kernel: "sumlist", Size: 100, Seed: 1}
	if aerr := reqA.normalize(); aerr != nil {
		t.Fatal(aerr)
	}
	a := tn.instanceFor(s, &reqA)
	a.mu.Lock()
	if aerr := a.ensureSession(s, 2); aerr != nil {
		t.Fatal(aerr)
	}
	a.mu.Unlock()

	// maxInstances more keys evict A, the least recently used.
	for seed := int64(2); seed <= maxInstances+1; seed++ {
		req := JobRequest{Tenant: "t1", Kernel: "sumlist", Size: 100, Seed: seed}
		if aerr := req.normalize(); aerr != nil {
			t.Fatal(aerr)
		}
		tn.instanceFor(s, &req)
	}

	// The "queued job" now reaches the evicted instance.
	a.mu.Lock()
	aerr = a.ensureSession(s, 2)
	leaked := a.sess != nil
	a.mu.Unlock()
	if aerr == nil || aerr.code != http.StatusGone {
		t.Fatalf("evicted instance ensureSession = %v, want 410", aerr)
	}
	if leaked {
		t.Fatal("evicted instance re-opened a session (runner leak)")
	}
}

// TestEvictionConcurrentJobs hammers the eviction path from concurrent
// clients under -race: every response must be a success or an honest
// backpressure/eviction answer, never a hang or a corrupted state.
func TestEvictionConcurrentJobs(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	// Two keys more than the LRU holds, so the clients keep evicting the
	// instances each other's jobs are queued on.
	const keys = maxInstances + 2
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*keys; i++ {
				w := do(h, "POST", "/v1/run", JobRequest{
					Tenant: "t1", Kernel: "sumlist", Size: 300, Seed: int64(i%keys + 1),
				})
				switch w.Code {
				case http.StatusOK, http.StatusGone, http.StatusTooManyRequests:
				default:
					t.Errorf("goroutine %d: status %d (%s)", g, w.Code, w.Body.String())
				}
			}
		}(g)
	}
	wg.Wait()
}
