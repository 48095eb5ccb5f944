package server

// Panic containment and scrape-path regression tests: a kernel that
// panics (in Mutate mid-job or in Build under the tenant lock) must
// cost exactly its own job a 500 — dispatchers stay alive, accounting
// settles, Drain completes — and the /metrics surface must report the
// pool's widest live width regardless of session close order.

import (
	"context"
	"math/rand"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"spice/internal/workloads/native"
)

func init() {
	// Test-only kernels exercising both panic sites: Mutate panics
	// between invocations inside runJob (instance.mu held), Build
	// panics inside instanceFor (tenant.mu held).
	native.Register(&native.Kernel{
		Name:           "panicker",
		Description:    "test-only: Mutate panics",
		Predictability: "high",
		Build:          native.BuildList,
		Mutate: func(rng *rand.Rand, inst *native.Instance, churn int) {
			panic("kernel bug: poisoned mutator")
		},
	})
	native.Register(&native.Kernel{
		Name:           "buildpanic",
		Description:    "test-only: Build panics",
		Predictability: "high",
		Build: func(rng *rand.Rand, size int64) (*native.Node, []*native.Node) {
			panic("kernel bug: poisoned builder")
		},
	})
}

// TestPanickingKernelContained proves the containment end to end: more
// panicking jobs than dispatchers all answer 500 with the panic value —
// and no goroutine stack of the daemon — in the body, on the sync door
// and to whoever polls an async job; the dispatcher pool still executes
// normal work afterwards, the tenant's inflight accounting is settled,
// the panic counter moved, and Drain returns instead of wedging on a
// leaked jobWG reference.
func TestPanickingKernelContained(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()

	syncPanics := dispatchers() + 1 // an uncontained panic could not survive this
	for i := 0; i < syncPanics; i++ {
		w := do(h, "POST", "/v1/run", JobRequest{
			Tenant: "pt", Kernel: "panicker", Size: 200, Churn: 1, Invocations: 2,
		})
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("panicking job %d: status %d, want 500: %s", i, w.Code, w.Body.String())
		}
		if !strings.Contains(w.Body.String(), "panic") {
			t.Fatalf("panicking job %d: body does not surface the panic: %s", i, w.Body.String())
		}
		if strings.Contains(w.Body.String(), "goroutine ") {
			t.Fatalf("panicking job %d: body carries the daemon's stack: %s", i, w.Body.String())
		}
	}
	// The async door hands the same message to whoever polls the job.
	w := do(h, "POST", "/v1/submit", JobRequest{Tenant: "pt", Kernel: "panicker", Size: 200, Churn: 1, Invocations: 2})
	if w.Code != http.StatusAccepted {
		t.Fatalf("async panicking job: status %d, want 202: %s", w.Code, w.Body.String())
	}
	id := decode[JobStatus](t, w).ID
	var polled JobStatus
	waitFor(t, "async panicking job to finish", func() bool {
		pw := do(h, "GET", "/v1/jobs/"+id, nil)
		if pw.Code != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, pw.Code, pw.Body.String())
		}
		polled = decode[JobStatus](t, pw)
		return polled.State == "done"
	})
	if !strings.Contains(polled.Error, "panic") || strings.Contains(polled.Error, "goroutine ") {
		t.Fatalf("async panicking job: error %q; want the panic value and no stack", polled.Error)
	}
	panics := int64(syncPanics + 1)
	if got := s.met.jobsPanicked.Load(); got != panics {
		t.Fatalf("jobsPanicked = %d, want %d", got, panics)
	}
	if got := s.met.jobsFailed.Load(); got != panics {
		t.Fatalf("jobsFailed = %d, want %d (panics count as failures)", got, panics)
	}

	// The dispatcher pool must be intact: a normal job still round-trips
	// against the sequential oracle.
	w = do(h, "POST", "/v1/run", JobRequest{Tenant: "pt", Kernel: "sumlist", Size: 3000, Seed: 5})
	if w.Code != http.StatusOK {
		t.Fatalf("post-panic job: status %d: %s", w.Code, w.Body.String())
	}
	if res := decode[JobResult](t, w); res.Result != seqSum("sumlist", 3000, 5) {
		t.Fatalf("post-panic job result %d diverges from oracle", res.Result)
	}

	// Accounting settled exactly once per job.
	tn, aerr := s.tenantFor("pt")
	if aerr != nil {
		t.Fatalf("tenantFor: %v", aerr)
	}
	if inflight := tn.inflight.Load(); inflight != 0 {
		t.Fatalf("tenant inflight = %d after all jobs finished, want 0", inflight)
	}

	// The leak the containment exists to prevent: Drain must complete.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain after contained panics: %v", err)
	}
}

// TestBuildPanicReleasesTenantLock pins the instanceFor restructure: a
// panic inside the kernel's Build unwinds through the tenant lock's
// deferred release, so the same tenant can immediately run other jobs.
func TestBuildPanicReleasesTenantLock(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()

	w := do(h, "POST", "/v1/run", JobRequest{Tenant: "bt", Kernel: "buildpanic", Size: 100})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("build-panic job: status %d, want 500: %s", w.Code, w.Body.String())
	}
	// Same tenant, healthy kernel: would deadlock on a leaked tenant.mu.
	done := make(chan *int, 1)
	go func() {
		w := do(h, "POST", "/v1/run", JobRequest{Tenant: "bt", Kernel: "sumlist", Size: 500, Seed: 3})
		done <- &w.Code
	}()
	select {
	case code := <-done:
		if *code != http.StatusOK {
			t.Fatalf("follow-up job on same tenant: status %d", *code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follow-up job on same tenant hung: tenant lock leaked by Build panic")
	}
}

// TestMetricsEffectiveThreadsWidestRunner is the /metrics-level
// regression test for the Pool.Stats EffectiveThreads fix: after mixed
// session widths where the width-1 session is released *last*, the
// scrape must report the widest runner's gauge, not the most recently
// released one.
func TestMetricsEffectiveThreadsWidestRunner(t *testing.T) {
	s := newTestServer(t, testConfig()) // MaxWidth 4
	h := s.Handler()

	run := func(width int) func() {
		sess, err := s.pool.SessionWidth(width)
		if err != nil {
			t.Fatalf("SessionWidth(%d): %v", width, err)
		}
		inst := native.ByName("sumlist").New(500, 1, 0)
		sess.BindCells(inst.Cells)
		if _, err := sess.Run(context.Background(), inst.Head); err != nil {
			t.Fatalf("width-%d run: %v", width, err)
		}
		return sess.Close
	}
	closeWide := run(4)
	closeNarrow := run(1)
	closeWide()
	closeNarrow() // the buggy "last released wins" read would now say 1

	w := do(h, "GET", "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	m := regexp.MustCompile(`(?m)^spiced_pool_effective_threads (\d+)$`).FindStringSubmatch(w.Body.String())
	if m == nil {
		t.Fatal("spiced_pool_effective_threads missing from /metrics")
	}
	if v, _ := strconv.Atoi(m[1]); v != 4 {
		t.Fatalf("spiced_pool_effective_threads = %d, want 4 (widest runner)", v)
	}
	// The executor's park counter is exported beside it and is the pool's
	// own reading (which can only have grown since the scrape).
	m = regexp.MustCompile(`(?m)^spiced_executor_worker_parks_total (\d+)$`).FindStringSubmatch(w.Body.String())
	if m == nil {
		t.Fatal("spiced_executor_worker_parks_total missing from /metrics")
	}
	if v, _ := strconv.ParseInt(m[1], 10, 64); v > s.pool.WorkerParks() {
		t.Fatalf("spiced_executor_worker_parks_total = %d, pool reads %d", v, s.pool.WorkerParks())
	}
}

// TestScrapeEndpointsCounted: the scrape surface now goes through the
// same status-class counting as the API.
func TestScrapeEndpointsCounted(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	before := s.met.http2xx.Load()
	for _, path := range []string{"/metrics", "/healthz"} {
		if w := do(h, "GET", path, nil); w.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, w.Code)
		}
	}
	if got := s.met.http2xx.Load() - before; got != 2 {
		t.Fatalf("scrapes moved http2xx by %d, want 2", got)
	}
}
