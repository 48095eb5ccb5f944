package main

import "encoding/json"

// metricDef names one metric the benchmark prints. BENCHMARK.json at
// the repository root repeats these tables (a test keeps them equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median it may worsen by
	Moves  string  // per-layer only: the end-to-end metric@workload it should move
}

// endToEnd is what a user of the runtime, the circuit simulator or the
// daemon sees, in the form a shared two-processor VM can hold steady:
// the two timing metrics are ratios of series measured within the same
// fraction of a second (see trio.round). The absolute times and rates
// (iters_per_s, jobs_per_s, op_p50_us, op_p90_us) follow the host's load
// — 25 to 35 % between runs of the same code, checked by the driver —
// and are per-layer metrics for that reason. Every workload reports
// every metric; README.md gives the reading of each one on the serving
// workloads. Run-to-run spreads of the ratios reach 5-15 % (README.md
// has the table), so a bound tighter than 0.25 would flag the host, not
// the code.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "speedup_vs_seq", Unit: "ratio", Better: "higher", Bound: 0.25},
	{Name: "w1_overhead", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer comes from the traced run. The first group is measured on
// the workload's own series, the rest on the fixed ladder every traced
// run repeats (so a layer's rung is comparable across workloads). Moves
// is in the issue's terms: an absolute time or rate at a workload is
// gated as speedup_vs_seq (serving path: w1_overhead) at that workload.
var perLayer = []metricDef{
	// The workload's own series.
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Moves: "correct/failed on every workload"},
	{Name: "iters_per_s", Unit: "iter/s", Better: "higher", Moves: "speedup_vs_seq on the same workload (the same wN ops, in host time)"},
	{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Moves: "speedup_vs_seq on the same workload"},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Moves: "speedup_vs_seq on the same workload"},
	{Name: "op_p90_us", Unit: "us", Better: "lower", Moves: "the tail of the same ops"},
	{Name: "op_p99_us", Unit: "us", Better: "lower", Moves: "the tail of the same ops"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "must stay near 1"},
	{Name: "client.idle_ratio", Unit: "ratio", Better: "lower", Moves: "jobs_per_s@serve_* (a starved load generator)"},
	{Name: "body.ref_ns_per_iter", Unit: "ns/iter", Better: "lower", Moves: "floor of speedup_vs_seq and w1_overhead"},
	{Name: "runner.w1_ns_per_iter", Unit: "ns/iter", Better: "lower", Moves: "w1_overhead@doall_hot"},
	{Name: "runner.w1_self_ns_per_iter", Unit: "ns/iter", Better: "lower", Moves: "w1_overhead@doall_hot, @doacross_cells"},
	{Name: "scheduler.wN_ns_per_iter", Unit: "ns/iter", Better: "lower", Moves: "iters_per_s@doall_hot"},
	{Name: "runner.allocs_per_op", Unit: "count", Better: "lower", Moves: "op_p90_us, peak_rss_mb"},
	{Name: "runner.seq_fallback_ratio", Unit: "ratio", Better: "lower", Moves: "speedup_vs_seq@doall_churn"},
	{Name: "runner.effective_threads", Unit: "count", Better: "higher", Moves: "speedup_vs_seq@doall_churn"},
	{Name: "predictor.hit_ratio", Unit: "ratio", Better: "higher", Moves: "speedup_vs_seq@doall_churn, jobs_per_s@serve_mixed"},
	{Name: "predictor.spec_chunks_per_op", Unit: "count", Better: "higher", Moves: "speedup_vs_seq@doall_churn"},
	{Name: "predictor.chunk_imbalance", Unit: "ratio", Better: "lower", Moves: "speedup_vs_seq@doall_scattered"},
	{Name: "scheduler.squashed_iter_ratio", Unit: "ratio", Better: "lower", Moves: "iters_per_s@doall_churn"},
	{Name: "scheduler.misspec_op_ratio", Unit: "ratio", Better: "lower", Moves: "iters_per_s@doall_churn"},
	{Name: "scheduler.recoveries_per_op", Unit: "count", Better: "lower", Moves: "iters_per_s@doall_churn"},
	{Name: "scheduler.tail_iter_ratio", Unit: "ratio", Better: "lower", Moves: "iters_per_s@doall_churn"},
	{Name: "cells.conflicts_per_op", Unit: "count", Better: "lower", Moves: "iters_per_s@doacross_cells"},
	{Name: "cells.conflict_iter_ratio", Unit: "ratio", Better: "lower", Moves: "iters_per_s@doacross_cells"},
	{Name: "pool.batch_shed_ratio", Unit: "ratio", Better: "lower", Moves: "jobs_per_s@serve_light"},

	// Ladder: runner, scheduler, executor (two-size fit and the small list).
	{Name: "runner.fixed_us_per_op", Unit: "us", Better: "lower", Moves: "op_p50_us@circuit_transient"},
	{Name: "runner.fit_ns_per_iter", Unit: "ns/iter", Better: "lower", Moves: "w1_overhead@doall_hot"},
	{Name: "scheduler.fixed_us_per_op", Unit: "us", Better: "lower", Moves: "op_p50_us@circuit_transient"},
	{Name: "scheduler.fit_ns_per_iter", Unit: "ns/iter", Better: "lower", Moves: "iters_per_s@doall_hot"},
	{Name: "executor.cold_wake_us", Unit: "us", Better: "lower", Moves: "op_p50_us@circuit_transient, @serve_*"},
	{Name: "executor.shared_vs_private", Unit: "ratio", Better: "lower", Moves: "op_p50_us@doall_churn"},
	// Ladder: the pool used five ways on the small list.
	{Name: "pool.run_us_small", Unit: "us", Better: "lower", Moves: "op_p50_us@circuit_transient"},
	{Name: "pool.session_run_us_small", Unit: "us", Better: "lower", Moves: "op_p50_us@circuit_transient, jobs_per_s@serve_mixed"},
	{Name: "pool.batch_us_per_inv_small", Unit: "us", Better: "lower", Moves: "jobs_per_s@serve_light"},
	{Name: "pool.submit_us_per_inv_small", Unit: "us", Better: "lower", Moves: "jobs_per_s@serve_light"},
	{Name: "pool.run2_us_small", Unit: "us", Better: "lower", Moves: "jobs_per_s@serve_mixed"},
	{Name: "pool.ladder_shed_ratio", Unit: "ratio", Better: "lower", Moves: "jobs_per_s@serve_light"},
	// Ladder: the cell store in the other conflict regimes.
	{Name: "cells.none_wN_ns_per_iter", Unit: "ns/iter", Better: "lower", Moves: "guards doacross_cells gains"},
	{Name: "cells.dense_wN_ns_per_iter", Unit: "ns/iter", Better: "lower", Moves: "guards doacross_cells gains"},
	{Name: "cells.dense_conflicts_per_op", Unit: "count", Better: "lower", Moves: "guards doacross_cells gains"},
	{Name: "cells.dense_seq_fallback_ratio", Unit: "ratio", Better: "higher", Moves: "guards doacross_cells gains"},
	// Ladder: the circuit simulator.
	{Name: "circuit.seq_ms", Unit: "ms", Better: "lower", Moves: "floor of circuit_transient"},
	{Name: "circuit.w1_ms", Unit: "ms", Better: "lower", Moves: "w1_overhead@circuit_transient"},
	{Name: "circuit.wN_ms", Unit: "ms", Better: "lower", Moves: "op_p50_us@circuit_transient"},
	{Name: "circuit.sweeps_per_run", Unit: "count", Better: "lower", Moves: "repeats exactly"},
	{Name: "circuit.sweep_tax_us", Unit: "us", Better: "lower", Moves: "w1_overhead@circuit_transient"},
	{Name: "circuit.hit_ratio", Unit: "ratio", Better: "higher", Moves: "speedup_vs_seq@circuit_transient"},
	{Name: "circuit.pool_setup_us", Unit: "us", Better: "lower", Moves: "op_p50_us@circuit_transient"},
	{Name: "circuit.rectifier_seq_ms", Unit: "ms", Better: "lower", Moves: "guards circuit_transient gains"},
	{Name: "circuit.rectifier_w1_ms", Unit: "ms", Better: "lower", Moves: "guards circuit_transient gains"},
	{Name: "circuit.rectifier_wN_ms", Unit: "ms", Better: "lower", Moves: "guards circuit_transient gains"},
	{Name: "circuit.rectifier_sweeps_per_run", Unit: "count", Better: "lower", Moves: "repeats exactly"},
	// Ladder: kernel build and churn, work spiced does inside a job.
	{Name: "native.build_ms_20k", Unit: "ms", Better: "lower", Moves: "setup_s@serve_*"},
	{Name: "native.mutate_us_sumlist", Unit: "us", Better: "lower", Moves: "jobs_per_s@serve_mixed"},
	{Name: "native.mutate_us_hostile", Unit: "us", Better: "lower", Moves: "jobs_per_s@serve_mixed"},
	// The daemon: the serving workload's own child, or a short
	// serve_mixed probe in the traced run of a library workload.
	{Name: "server.boot_ms", Unit: "ms", Better: "lower", Moves: "setup_s@serve_*"},
	{Name: "server.service_p50_us", Unit: "us", Better: "lower", Moves: "op_p50_us@serve_mixed"},
	{Name: "server.overhead_p50_us", Unit: "us", Better: "lower", Moves: "op_p50_us@serve_light"},
	{Name: "server.ping_p50_us", Unit: "us", Better: "lower", Moves: "floor of w1_overhead@serve_* (an empty round trip)"},
	{Name: "server.good_p50_us", Unit: "us", Better: "lower", Moves: "op_p90_us@serve_mixed"},
	{Name: "server.bad_p50_us", Unit: "us", Better: "lower", Moves: "op_p90_us@serve_mixed"},
	{Name: "server.circ_p50_us", Unit: "us", Better: "lower", Moves: "op_p90_us@serve_mixed"},
	{Name: "server.acc_p50_us", Unit: "us", Better: "lower", Moves: "op_p90_us@serve_mixed"},
	{Name: "server.admitted", Unit: "count", Better: "higher", Moves: "conserves with the client tally"},
	{Name: "server.rejected", Unit: "count", Better: "lower", Moves: "fail_ratio@serve_*"},
	{Name: "server.jobs_failed", Unit: "count", Better: "lower", Moves: "fail_ratio@serve_*"},
	{Name: "server.budget_good", Unit: "count", Better: "higher", Moves: "jobs_per_s@serve_mixed"},
	{Name: "server.budget_bad", Unit: "count", Better: "lower", Moves: "jobs_per_s@serve_mixed"},
	{Name: "server.hit_ratio", Unit: "ratio", Better: "higher", Moves: "jobs_per_s@serve_mixed"},
	{Name: "server.squashed_iter_ratio", Unit: "ratio", Better: "lower", Moves: "jobs_per_s@serve_mixed"},
	{Name: "server.sheds_per_job", Unit: "count", Better: "lower", Moves: "jobs_per_s@serve_light"},
	{Name: "server.cold_job_ms", Unit: "ms", Better: "lower", Moves: "setup_s@serve_*"},
	{Name: "server.async_roundtrip_us", Unit: "us", Better: "lower", Moves: "guards serve_* gains"},
	{Name: "server.metrics_scrape_us", Unit: "us", Better: "lower", Moves: "guards serve_* gains"},
}

// workloadDef names one workload and why it is in the set.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"doall_hot", "100k-node contiguous list, 2 ns bodies, predictions always hit: time is the chunk hot loop plus one dispatch and join, so hot-loop, latch and hand-off work shows here most clearly."},
	{"doall_scattered", "200k-node list linked in seed-shuffled order (past L2): memory latency dominates, overlapping misses across chunks is where speculation pays; a hot-loop change should not move it."},
	{"doall_churn", "100k nodes, 20% replaced and relinked before every op, adaptive pool session: the only workload where misses, squashes, the confidence gate and the width throttle do the work."},
	{"doacross_cells", "100k-node accumulate loop on CellView (1 load, 1 store per node, a flow dependence every 64): per-access cell-store cost and commit validation dominate; conflicts are rare."},
	{"circuit_transient", "RC-ladder transient (4097 devices, 50 steps, about 100 small sweeps): per-invocation fixed cost, worker wake after the solve gap and per-run pool set-up dominate."},
	{"serve_mixed", "spiced with predictable, hostile, circuit and DOACROSS tenants per client, 20k-node jobs: runtime dominates service time; the budget allocator and both session paths are live."},
	{"serve_light", "spiced with one small batched sumlist job per request (2k nodes x 8): decode, admission, tenant lookup, pool session and encode dominate; a runtime change should not move it."},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runSeconds is the measuring time BENCHMARK.json asks the driver for.
const runSeconds = 13

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	file := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		file.Workloads = append(file.Workloads, workload(w))
	}
	for _, d := range endToEnd {
		file.EndToEnd = append(file.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		file.PerLayer = append(file.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, _ := json.MarshalIndent(file, "", "  ")
	return append(data, '\n')
}
