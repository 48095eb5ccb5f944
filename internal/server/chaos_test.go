package server

// Chaos suite for the serving path: seeded fault schedules injected at
// the server sites (admission, dispatch, build) and the library sites
// below them, across all three serving modes — sync (/v1/run), async
// (/v1/submit + poll), batch (churn 0, invocations > 1 → RunBatch) —
// and the three chaos kernels. The invariants:
//
//   - Terminal state within bound: every offered request reaches a
//     final HTTP outcome; every admitted job settles.
//   - Exactness on success: a 200 result is bit-identical to a clean
//     width-1 oracle running the same (kernel, size, seed, churn,
//     invocations) job.
//   - Conservation: admitted == completed + failed, and offered ==
//     admitted + every rejection reason — injected faults get their own
//     reason so the books always balance.
//   - Self-healing: after Disarm the same server serves exact results
//     and /healthz returns to 200.
//
// Plus targeted tests for the watchdog kill + wedged-healthz path, the
// drain-under-stall contract, the async resultTTL reaper, and the
// build/admission fault sites.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"spice/internal/faults"
)

// chaosConfig is the serving chaos baseline: small enough to churn
// through states quickly, generous enough that only injected faults
// (never capacity) fail jobs.
func chaosConfig(plane *faults.Plane) Config {
	return Config{MaxWidth: 4, JobTimeout: 20 * time.Second, Faults: plane}
}

// TestChaosServingSeeded is the serving-path lockstep suite.
func TestChaosServingSeeded(t *testing.T) {
	modes := []struct {
		name string
		req  func(seed int64, kernel string) JobRequest
	}{
		// sync and async exercise the per-invocation Run + Mutate path;
		// batch (churn 0, invocations > 1) rides one RunBatch call.
		{"sync", func(seed int64, kernel string) JobRequest {
			return JobRequest{Tenant: "chaos", Kernel: kernel, Size: 1500, Seed: seed, Churn: 4, Invocations: 3}
		}},
		{"async", func(seed int64, kernel string) JobRequest {
			return JobRequest{Tenant: "chaos", Kernel: kernel, Size: 1500, Seed: seed, Churn: 4, Invocations: 3}
		}},
		{"batch", func(seed int64, kernel string) JobRequest {
			return JobRequest{Tenant: "chaos", Kernel: kernel, Size: 1500, Seed: seed, Invocations: 4}
		}},
	}
	for _, kernel := range []string{"accum", "histo", "rcladder"} {
		for mi, mode := range modes {
			t.Run(kernel+"/"+mode.name, func(t *testing.T) {
				plane := faults.Seeded(int64(7*mi+len(kernel)), 10, 24, 20*time.Millisecond,
					faults.ServerAdmit, faults.ServerDispatch, faults.ServerBuild,
					faults.ChunkBody, faults.ExecWorker)
				s := newTestServer(t, chaosConfig(plane))
				t.Cleanup(plane.Release) // runs before the server's Close
				h := s.Handler()

				const jobs = 6
				offered, rejected := 0, 0
				runOne := func(seed int64) (*JobResult, bool) {
					req := mode.req(seed, kernel)
					offered++
					if mode.name == "async" {
						w := do(h, "POST", "/v1/submit", req)
						if w.Code != http.StatusAccepted {
							rejected++
							return nil, false
						}
						st := decode[JobStatus](t, w)
						deadline := time.Now().Add(30 * time.Second)
						for {
							pw := do(h, "GET", "/v1/jobs/"+st.ID, nil)
							if pw.Code != http.StatusOK {
								t.Fatalf("poll %s: code %d body %s", st.ID, pw.Code, pw.Body.String())
							}
							ps := decode[JobStatus](t, pw)
							if ps.State == "done" {
								if ps.Error != "" {
									return nil, false
								}
								return ps.Result, true
							}
							if time.Now().After(deadline) {
								t.Fatalf("job %s not terminal within bound (state %q)", st.ID, ps.State)
							}
							time.Sleep(2 * time.Millisecond)
						}
					}
					w := do(h, "POST", "/v1/run", req)
					switch {
					case w.Code == http.StatusOK:
						res := decode[JobResult](t, w)
						return &res, true
					case w.Code == http.StatusTooManyRequests || w.Code == http.StatusServiceUnavailable:
						rejected++
						return nil, false
					default:
						// Admitted but failed (injected dispatch/build/body fault).
						return nil, false
					}
				}

				for i := 0; i < jobs; i++ {
					seed := int64(1000*mi + 10*i + 1)
					if res, ok := runOne(seed); ok {
						want := oracle(t, mode.req(seed, kernel))
						if res.Result != want {
							t.Fatalf("seed %d: result %d != oracle %d", seed, res.Result, want)
						}
					}
				}

				// Conservation: every admitted job settled as OK or failed,
				// and every offer is accounted for.
				waitFor(t, "admitted jobs to settle", func() bool {
					return s.met.admitted.Load() == s.met.jobsOK.Load()+s.met.jobsFailed.Load()
				})
				admitted := s.met.admitted.Load()
				rej := s.met.rejQueueFull.Load() + s.met.rejTenantCap.Load() +
					s.met.rejDraining.Load() + s.met.rejAsyncFull.Load() + s.met.rejInjected.Load()
				if admitted+rej != int64(offered) {
					t.Fatalf("conservation: admitted %d + rejected %d != offered %d", admitted, rej, offered)
				}
				if ps := s.pool.Stats(); ps.ConflictIters > ps.SquashedIters || ps.Reclaimed > ps.Hits+ps.Misses {
					t.Fatalf("conservation: conflict iters %d / squashed %d, reclaimed %d / hits %d + misses %d",
						ps.ConflictIters, ps.SquashedIters, ps.Reclaimed, ps.Hits, ps.Misses)
				}

				// Self-healing: disarm, unblock stalls, and the same server
				// must serve a clean job exactly and report healthy.
				plane.Disarm()
				plane.Release()
				cleanSeed := int64(9999)
				res, ok := runOne(cleanSeed)
				if !ok {
					t.Fatalf("post-disarm job failed")
				}
				if want := oracle(t, mode.req(cleanSeed, kernel)); res.Result != want {
					t.Fatalf("post-disarm: result %d != oracle %d", res.Result, want)
				}
				waitFor(t, "healthz to recover", func() bool {
					return do(h, "GET", "/healthz", nil).Code == http.StatusOK
				})
			})
		}
	}
}

// TestChaosWatchdogKillAndWedge pins the watchdog chain end to end: a
// dispatcher stalled past JobTimeout+grace gets its job force-cancelled
// and counted; still not settling a full extra grace later flips
// /healthz to 503 (wedged); releasing the stall settles the job as
// cancelled, and the next sweep heals the health endpoint.
func TestChaosWatchdogKillAndWedge(t *testing.T) {
	plane, err := faults.Parse("server-dispatch:1:stall:30s")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cfg := chaosConfig(plane)
	cfg.JobTimeout = 300 * time.Millisecond // grace 20 ms, a sweep every 2.5 ms
	s := newTestServer(t, cfg)
	t.Cleanup(plane.Release)
	h := s.Handler()

	codes := make(chan int, 1)
	go func() {
		w := do(h, "POST", "/v1/run", JobRequest{Tenant: "t", Kernel: "sumlist", Size: 500})
		codes <- w.Code
	}()

	waitFor(t, "watchdog to kill the stalled job", func() bool {
		return s.met.watchdogKilled.Load() >= 1
	})
	waitFor(t, "healthz to report wedged", func() bool {
		return do(h, "GET", "/healthz", nil).Code == http.StatusServiceUnavailable
	})

	// Unblock the stall: the dispatcher wakes into a cancelled context,
	// the job settles as client-closed, and health recovers.
	plane.Release()
	select {
	case code := <-codes:
		if code != statusClientClosedRequest && code != http.StatusInternalServerError {
			t.Fatalf("stalled job settled with %d, want %d", code, statusClientClosedRequest)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled job never settled after release")
	}
	waitFor(t, "healthz to heal", func() bool {
		return do(h, "GET", "/healthz", nil).Code == http.StatusOK
	})
	if killed := s.met.watchdogKilled.Load(); killed != 1 {
		t.Fatalf("watchdogKilled = %d, want 1 (kill must latch exactly once)", killed)
	}
}

// TestChaosDrainUnderStall is the drain-under-fault contract: Drain
// with an already-expired context racing a stalled in-flight job
// reports ctx.Err(), the watchdog's force-cancel settles the job
// exactly once (a double jobWG.Done would panic), and the server still
// tears down cleanly.
func TestChaosDrainUnderStall(t *testing.T) {
	plane, err := faults.Parse("server-dispatch:1:stall:250ms")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cfg := chaosConfig(plane)
	cfg.JobTimeout = 10 * time.Second // the stall, not the timeout, holds the job
	s := newTestServer(t, cfg)
	t.Cleanup(plane.Release)
	h := s.Handler()

	codes := make(chan int, 1)
	go func() {
		w := do(h, "POST", "/v1/run", JobRequest{Tenant: "t", Kernel: "sumlist", Size: 500})
		codes <- w.Code
	}()
	waitFor(t, "job to reach the stalled dispatcher", func() bool {
		return s.met.admitted.Load() == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want context.DeadlineExceeded", err)
	}
	select {
	case code := <-codes:
		if code != statusClientClosedRequest && code != http.StatusServiceUnavailable {
			t.Fatalf("in-flight job settled with %d, want %d", code, statusClientClosedRequest)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight job never settled after aborted drain")
	}
	if got := s.met.jobsOK.Load() + s.met.jobsFailed.Load(); got != 1 {
		t.Fatalf("job settled %d times, want exactly 1", got)
	}
}

// TestAsyncResultTTL is the reaper regression: finished-but-never-
// fetched async jobs must free their table slots after resultTTL, their
// ids must answer 404 afterwards, and the recovered capacity must
// accept new submissions. The test sweeps at instants of its choosing.
func TestAsyncResultTTL(t *testing.T) {
	s := newTestServer(t, chaosConfig(nil))
	h := s.Handler()

	ids := make([]string, 0, asyncCap)
	for i := 0; i < asyncCap; i++ {
		req := JobRequest{Tenant: fmt.Sprintf("t%d", i/tenantCap), Kernel: "sumlist", Size: 200, Seed: int64(i + 1)}
		w := do(h, "POST", "/v1/submit", req)
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d body %s", i, w.Code, w.Body.String())
		}
		ids = append(ids, decode[JobStatus](t, w).ID)
	}
	waitFor(t, "every job to finish", func() bool {
		s.watchMu.Lock()
		defer s.watchMu.Unlock()
		return s.met.jobsOK.Load()+s.met.jobsFailed.Load() == asyncCap && len(s.inflightJobs) == 0
	})
	// The table is full: a further submit must shed.
	if w := do(h, "POST", "/v1/submit", JobRequest{Tenant: "t", Kernel: "sumlist", Size: 200}); w.Code != http.StatusTooManyRequests {
		t.Fatalf("submit to a full table: code %d, want 429", w.Code)
	}
	// Never fetched: a sweep now keeps every result, one past resultTTL
	// reclaims every slot.
	s.sweep(time.Now())
	if got := s.met.asyncExpired.Load(); got != 0 {
		t.Fatalf("%d results expired before resultTTL", got)
	}
	s.sweep(time.Now().Add(resultTTL + time.Second))
	if got := s.met.asyncExpired.Load(); got != asyncCap {
		t.Fatalf("%d results expired after resultTTL, want %d", got, asyncCap)
	}
	if n := s.asyncJobCount(); n != 0 {
		t.Fatalf("async table holds %d jobs after expiry, want 0", n)
	}
	for _, id := range ids {
		if w := do(h, "GET", "/v1/jobs/"+id, nil); w.Code != http.StatusNotFound {
			t.Fatalf("expired job %s: code %d, want 404", id, w.Code)
		}
	}
	// Recovered capacity accepts fresh submissions.
	w := do(h, "POST", "/v1/submit", JobRequest{Tenant: "t", Kernel: "sumlist", Size: 200})
	if w.Code != http.StatusAccepted {
		t.Fatalf("post-expiry submit: code %d body %s", w.Code, w.Body.String())
	}
}

// TestChaosBuildPanic pins the ServerBuild site: an injected build
// fault costs exactly its own job a contained-panic 500, and the same
// instance key serves exactly once disarmed.
func TestChaosBuildPanic(t *testing.T) {
	plane, err := faults.Parse("server-build:1:panic")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	s := newTestServer(t, chaosConfig(plane))
	h := s.Handler()

	req := JobRequest{Tenant: "t", Kernel: "accum", Size: 1000, Seed: 5}
	if w := do(h, "POST", "/v1/run", req); w.Code != http.StatusInternalServerError {
		t.Fatalf("build-panic job: code %d, want 500", w.Code)
	}
	if got := s.met.jobsPanicked.Load(); got != 1 {
		t.Fatalf("jobsPanicked = %d, want 1", got)
	}
	plane.Disarm()
	w := do(h, "POST", "/v1/run", req)
	if w.Code != http.StatusOK {
		t.Fatalf("post-disarm job: code %d body %s", w.Code, w.Body.String())
	}
	res := decode[JobResult](t, w)
	if want := oracle(t, JobRequest{Tenant: "t", Kernel: "accum", Size: 1000, Seed: 5, Invocations: 1}); res.Result != want {
		t.Fatalf("post-disarm result %d != oracle %d", res.Result, want)
	}
}

// TestChaosAdmitInjected pins the ServerAdmit site: an injected
// admission fault sheds with 503 + Retry-After under its own rejection
// reason, and the next request is admitted normally.
func TestChaosAdmitInjected(t *testing.T) {
	plane, err := faults.Parse("server-admit:1:err")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	s := newTestServer(t, chaosConfig(plane))
	h := s.Handler()

	req := JobRequest{Tenant: "t", Kernel: "sumlist", Size: 500}
	w := do(h, "POST", "/v1/run", req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("injected admission: code %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("injected admission rejection missing Retry-After")
	}
	if got := s.met.rejInjected.Load(); got != 1 {
		t.Fatalf("rejInjected = %d, want 1", got)
	}
	if w := do(h, "POST", "/v1/run", req); w.Code != http.StatusOK {
		t.Fatalf("post-fault admission: code %d body %s", w.Code, w.Body.String())
	}
	if adm, ok, fail := s.met.admitted.Load(), s.met.jobsOK.Load(), s.met.jobsFailed.Load(); adm != ok+fail {
		t.Fatalf("conservation: admitted %d != ok %d + failed %d", adm, ok, fail)
	}
}
