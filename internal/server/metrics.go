package server

// Prometheus-style observability, hand-rolled on stdlib only: the
// /metrics endpoint renders the text exposition format (counters,
// gauges, two latency histograms) from the pool's Stats counters, the
// admission queue's gauges and every tenant's budget and aggregate
// counters.

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"spice"
)

// durationBuckets are the job-latency histogram's upper bounds, in
// seconds (log-spaced from 250µs to 10s, plus +Inf).
var durationBuckets = [...]float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram with atomic counters
// (cumulative rendering happens at scrape time).
type histogram struct {
	buckets [len(durationBuckets) + 1]atomic.Int64 // last = +Inf
	sumNS   atomic.Int64
	count   atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	secs := d.Seconds()
	i := sort.SearchFloat64s(durationBuckets[:], secs)
	h.buckets[i].Add(1)
	h.sumNS.Add(int64(d))
	h.count.Add(1)
}

// render writes the histogram in exposition format under the metric
// name.
func (h *histogram) render(b *strings.Builder, name string) {
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	var cum int64
	for i, le := range durationBuckets[:] {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, trimFloat(le), cum)
	}
	cum += h.buckets[len(durationBuckets)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %g\n", name, float64(h.sumNS.Load())/1e9)
	fmt.Fprintf(b, "%s_count %d\n", name, h.count.Load())
}

func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }

// metrics holds the server-level counters not derivable from pool or
// tenant state.
type metrics struct {
	admitted     atomic.Int64
	rejQueueFull atomic.Int64
	rejTenantCap atomic.Int64
	rejDraining  atomic.Int64
	rejAsyncFull atomic.Int64
	// rejInjected counts admissions shed by an injected ServerAdmit
	// fault, kept separate so chaos suites can conserve accounting
	// exactly (admitted + every rejection reason = requests offered).
	rejInjected atomic.Int64
	jobsOK      atomic.Int64
	jobsFailed  atomic.Int64
	// jobsPanicked counts jobs that failed because a kernel panicked
	// (contained in runJobGuarded); such jobs also count as failed.
	jobsPanicked atomic.Int64
	// watchdogKilled counts in-flight jobs force-cancelled by the
	// watchdog after overrunning deadline+grace; asyncExpired counts
	// finished async results reaped from the table after resultTTL.
	watchdogKilled atomic.Int64
	asyncExpired   atomic.Int64
	// jobQueue times a job from admission to the start of its
	// dispatch, jobLatency from there to its end: a slow job is
	// either one that waited or one that ran long.
	jobQueue   histogram
	jobLatency histogram
	// HTTP responses by status class (2xx/4xx/5xx) plus the exact 429
	// count, the backpressure signal load generators watch.
	http2xx, http429, http4xx, http5xx atomic.Int64
}

func (m *metrics) countStatus(code int) {
	switch {
	case code >= 200 && code < 300:
		m.http2xx.Add(1)
	case code == http.StatusTooManyRequests:
		m.http429.Add(1)
	case code >= 400 && code < 500:
		m.http4xx.Add(1)
	case code >= 500:
		m.http5xx.Add(1)
	}
}

// statusRecorder captures the response code for the HTTP counters.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// countedHandler wraps a handler with status-class counting.
func (s *Server) counted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.met.countStatus(rec.code)
	}
}

// tenantMetricsRow is one tenant's scrape snapshot, taken under the
// tenant's accounting lock in snapshotTenants.
type tenantMetricsRow struct {
	name     string
	budget   int64
	inflight int64
	agg      spice.Stats // the tenant's lifetime counters
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	ps := s.pool.Stats()

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	// Admission and queue.
	gauge("spiced_queue_depth", "jobs waiting in the admission queue", int64(len(s.queue)))
	gauge("spiced_queue_capacity", "admission queue bound", int64(cap(s.queue)))
	counter("spiced_jobs_admitted_total", "jobs accepted into the admission queue", s.met.admitted.Load())
	fmt.Fprintf(&b, "# HELP spiced_jobs_rejected_total jobs rejected at admission\n# TYPE spiced_jobs_rejected_total counter\n")
	fmt.Fprintf(&b, "spiced_jobs_rejected_total{reason=\"queue_full\"} %d\n", s.met.rejQueueFull.Load())
	fmt.Fprintf(&b, "spiced_jobs_rejected_total{reason=\"tenant_cap\"} %d\n", s.met.rejTenantCap.Load())
	fmt.Fprintf(&b, "spiced_jobs_rejected_total{reason=\"draining\"} %d\n", s.met.rejDraining.Load())
	fmt.Fprintf(&b, "spiced_jobs_rejected_total{reason=\"async_full\"} %d\n", s.met.rejAsyncFull.Load())
	fmt.Fprintf(&b, "spiced_jobs_rejected_total{reason=\"injected\"} %d\n", s.met.rejInjected.Load())
	counter("spiced_jobs_completed_total", "jobs that finished successfully", s.met.jobsOK.Load())
	counter("spiced_jobs_failed_total", "jobs that finished with an error", s.met.jobsFailed.Load())
	counter("spiced_jobs_panicked_total", "jobs failed by a contained kernel panic", s.met.jobsPanicked.Load())
	counter("spiced_jobs_watchdog_killed_total", "in-flight jobs force-cancelled by the watchdog", s.met.watchdogKilled.Load())
	counter("spiced_async_jobs_expired_total", "finished async results reaped after the result TTL", s.met.asyncExpired.Load())
	gauge("spiced_async_jobs", "async jobs currently held in the result table", s.asyncJobCount())

	// HTTP.
	fmt.Fprintf(&b, "# HELP spiced_http_responses_total HTTP responses by status class\n# TYPE spiced_http_responses_total counter\n")
	fmt.Fprintf(&b, "spiced_http_responses_total{class=\"2xx\"} %d\n", s.met.http2xx.Load())
	fmt.Fprintf(&b, "spiced_http_responses_total{class=\"429\"} %d\n", s.met.http429.Load())
	fmt.Fprintf(&b, "spiced_http_responses_total{class=\"4xx\"} %d\n", s.met.http4xx.Load())
	fmt.Fprintf(&b, "spiced_http_responses_total{class=\"5xx\"} %d\n", s.met.http5xx.Load())

	// Pool-level runtime counters.
	gauge("spiced_pool_workers", "shared executor workers", int64(s.pool.Workers()))
	gauge("spiced_pool_runners", "runner states created (high-water concurrency)", int64(s.pool.Runners()))
	gauge("spiced_pool_effective_threads", "widest adaptive effective width across the pool's runners", int64(ps.EffectiveThreads))
	counter("spiced_executor_worker_parks_total", "times an executor worker went to sleep for want of work; each is a wake the next round's speculative chunk starts behind", s.pool.WorkerParks())
	counter("spiced_pool_invocations_total", "loop invocations executed", ps.Invocations)
	counter("spiced_pool_iters_total", "loop iterations committed", ps.TotalIters)
	counter("spiced_pool_spec_hits_total", "speculative chunks committed", ps.Hits)
	counter("spiced_pool_spec_misses_total", "speculative chunks squashed", ps.Misses)
	counter("spiced_pool_reclaimed_chunks_total", "speculative chunks the invoking goroutine ran itself because no worker had started them", ps.Reclaimed)
	counter("spiced_pool_squashed_iters_total", "speculative iterations discarded", ps.SquashedIters)
	counter("spiced_pool_conflicts_total", "DOACROSS read/write-set conflict events", ps.Conflicts)
	counter("spiced_pool_conflict_iters_total", "speculative iterations squashed by DOACROSS conflicts", ps.ConflictIters)
	counter("spiced_pool_recoveries_total", "parallel squash-recovery rounds", ps.Recoveries)
	counter("spiced_pool_batch_sheds_total", "invocations shed to in-place sequential execution", ps.BatchSheds)
	counter("spiced_pool_runners_retired", "runners quarantined after repeated contained panics", ps.RunnersRetired)

	// Per-tenant serving state: the width each tenant's session runs at
	// next to the evidence its gate judged.
	rows := s.snapshotTenants()
	if len(rows) > 0 {
		fmt.Fprintf(&b, "# HELP spiced_tenant_budget width the tenant's session ran at after its last job: 1 once its confidence gate closed every row\n# TYPE spiced_tenant_budget gauge\n")
		for _, t := range rows {
			fmt.Fprintf(&b, "spiced_tenant_budget{tenant=%q} %d\n", t.name, t.budget)
		}
		fmt.Fprintf(&b, "# HELP spiced_tenant_inflight admitted jobs not yet finished\n# TYPE spiced_tenant_inflight gauge\n")
		for _, t := range rows {
			fmt.Fprintf(&b, "spiced_tenant_inflight{tenant=%q} %d\n", t.name, t.inflight)
		}
		perTenantCounter := func(name, help string, get func(tenantMetricsRow) int64) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, t := range rows {
				fmt.Fprintf(&b, "%s{tenant=%q} %d\n", name, t.name, get(t))
			}
		}
		perTenantCounter("spiced_tenant_invocations_total", "loop invocations executed for the tenant",
			func(t tenantMetricsRow) int64 { return t.agg.Invocations })
		perTenantCounter("spiced_tenant_iters_total", "loop iterations committed for the tenant",
			func(t tenantMetricsRow) int64 { return t.agg.TotalIters })
		perTenantCounter("spiced_tenant_spec_hits_total", "speculative chunks committed for the tenant",
			func(t tenantMetricsRow) int64 { return t.agg.Hits })
		perTenantCounter("spiced_tenant_spec_misses_total", "speculative chunks squashed for the tenant",
			func(t tenantMetricsRow) int64 { return t.agg.Misses })
		perTenantCounter("spiced_tenant_reclaimed_chunks_total", "the tenant's speculative chunks the invoking goroutine ran itself because no worker had started them",
			func(t tenantMetricsRow) int64 { return t.agg.Reclaimed })
		perTenantCounter("spiced_tenant_conflicts_total", "DOACROSS read/write-set conflict events for the tenant",
			func(t tenantMetricsRow) int64 { return t.agg.Conflicts })
		perTenantCounter("spiced_tenant_misspec_invocations_total", "tenant invocations with at least one squashed chunk",
			func(t tenantMetricsRow) int64 { return t.agg.MisspecInvocations })
		perTenantCounter("spiced_tenant_batch_sheds_total", "tenant invocations shed to sequential in-place execution",
			func(t tenantMetricsRow) int64 { return t.agg.BatchSheds })
		perTenantCounter("spiced_tenant_sequential_fallbacks_total", "tenant invocations forced sequential by the adaptive layer",
			func(t tenantMetricsRow) int64 { return t.agg.SequentialFallbacks })
	}

	// Latency.
	s.met.jobQueue.render(&b, "spiced_job_queue_seconds")
	s.met.jobLatency.render(&b, "spiced_job_duration_seconds")

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String()))
}

// asyncJobCount snapshots the job table's async entries for /metrics.
func (s *Server) asyncJobCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.async)
}

// handleHealthz reports liveness: 200 while serving, 503 once draining
// or once the watchdog has marked the dispatcher wedged (a force-
// cancelled job still running a full grace later). The wedged flag is
// recomputed every sweep, so the endpoint heals itself when the job
// finally settles.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if s.wedged.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "wedged: force-cancelled job ignoring cancellation")
		return
	}
	fmt.Fprintln(w, "ok")
}
