package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"spice"
)

// statRatios turns a Stats delta into the runtime's per-layer ratios.
// "per op" here is per loop invocation (a circuit op is ~100 of them).
func statRatios(d spice.Stats) map[string]float64 {
	inv := float64(d.Invocations)
	done := float64(d.TotalIters + d.SquashedIters)
	return map[string]float64{
		"runner.seq_fallback_ratio":     ratio(float64(d.SequentialFallbacks), inv),
		"runner.effective_threads":      float64(d.EffectiveThreads),
		"predictor.hit_ratio":           ratio(float64(d.Hits), float64(d.Hits+d.Misses)),
		"predictor.spec_chunks_per_op":  ratio(float64(d.Hits+d.Misses), inv),
		"scheduler.squashed_iter_ratio": ratio(float64(d.SquashedIters), done),
		"scheduler.misspec_op_ratio":    ratio(float64(d.MisspecInvocations), inv),
		"scheduler.recoveries_per_op":   ratio(float64(d.Recoveries), inv),
		"scheduler.tail_iter_ratio":     ratio(float64(d.TailIters), float64(d.TotalIters)),
		"cells.conflicts_per_op":        ratio(float64(d.Conflicts), inv),
		"cells.conflict_iter_ratio":     ratio(float64(d.ConflictIters), done),
		"pool.batch_shed_ratio":         ratio(float64(d.BatchSheds), inv),
	}
}

// tracePairs is how many plain/traced round pairs a serving traced run
// alternates; the tracing overhead is the ratio of their medians.
const tracePairs = 3

// traceTrio is the traced run of a library or circuit workload: after
// the warm-in share, pairs of short rounds as in the timed run — one
// plain, one recording spans, blocks in the same order — for the given
// time, and the counters across all of them. The absolute times and
// rates it reports say as much about the host's state during the run as
// about the code (see round); they are here for orientation, and the
// timed run's ratios are what a claim rests on.
func traceTrio(t *trio, name string, seconds float64, outdir string) (map[string]float64, error) {
	total := time.Duration(seconds * float64(time.Second))
	n := t.opsPerRound(time.Second / roundsPerSecond)
	wn := t.s[sWN]
	rec := newRecorder(1 << 16)
	t0 := time.Now()
	r := 0
	for ; time.Since(t0) < time.Duration(warmShare*float64(total)); r++ {
		t.round(r, n, nil)
	}
	before := wn.stats()
	var lat, over [nSeries][]float64 // over: per pair, p50 traced / p50 plain
	var imbalance []float64
	var mallocsWN, mallocsRef float64
	pairs := 0
	for ; pairs == 0 || time.Since(t0) < total; pairs++ {
		plain, traced := t.round(r+pairs, n, nil), t.round(r+pairs, n, rec)
		for i := range lat {
			lat[i] = append(append(lat[i], plain.lat[i]...), traced.lat[i]...)
			over[i] = append(over[i], ratio(median(traced.lat[i]), median(plain.lat[i])))
		}
		imbalance = append(imbalance, traced.imbalance...)
		mallocsWN += float64(plain.mallocs[sWN])
		mallocsRef += float64(plain.mallocs[sRef])
	}
	d := wn.stats().Delta(before)
	if err := writeSpans(outdir, name, rec.spans); err != nil {
		return nil, err
	}

	m := statRatios(d)
	itersPerOp := ratio(float64(d.TotalIters), float64(2*pairs*n))
	ref := median(lat[sRef]) / itersPerOp
	w1 := median(lat[sW1]) / itersPerOp
	m["body.ref_ns_per_iter"] = ref
	m["runner.w1_ns_per_iter"] = w1
	m["runner.w1_self_ns_per_iter"] = w1 - ref
	m["scheduler.wN_ns_per_iter"] = median(lat[sWN]) / itersPerOp
	timed, busy := float64(len(lat[sWN])), sum(lat[sWN])/1e9
	m["iters_per_s"] = ratio(itersPerOp*timed, busy)
	m["jobs_per_s"] = ratio(timed, busy)
	m["op_p50_us"] = median(lat[sWN]) / 1e3
	m["op_p90_us"] = percentile(lat[sWN], 0.9) / 1e3
	m["op_p99_us"] = percentile(lat[sWN], 0.99) / 1e3
	// Recording costs every series the same few calls, so the overhead
	// is read off all three and the middle one kept: the wN series alone
	// is bimodal on a small VM and would report its own noise.
	m["trace.overhead_ratio"] = median([]float64{median(over[sRef]), median(over[sW1]), median(over[sWN])})
	m["predictor.chunk_imbalance"] = mean(imbalance)
	// The churn allocates the same objects in every series; the ref
	// series has nothing else, so the difference is the runtime's.
	m["runner.allocs_per_op"] = (mallocsWN - mallocsRef) / float64(pairs*n)
	// One caller, ops back to back: the load generator is never idle.
	m["client.idle_ratio"] = 0
	return m, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// serverLayers reads the daemon's layer metrics off one serving round
// and the /metrics pages scraped around it.
func serverLayers(g *rig, r *serveRound, before, after promSample) (map[string]float64, error) {
	delta := func(name string) float64 { return after.sum(name) - before.sum(name) }
	m := map[string]float64{
		"server.service_p50_us":  median(r.wN.elapsed) / 1e3,
		"server.overhead_p50_us": median(r.wN.overhead) / 1e3,
		"server.ping_p50_us":     median(r.wN.rtt) / 1e3,
		"server.admitted":        delta("spiced_jobs_admitted_total"),
		"server.rejected":        delta("spiced_jobs_rejected_total"),
		"server.jobs_failed":     delta("spiced_jobs_failed_total"),
		"server.hit_ratio": ratio(delta("spiced_pool_spec_hits_total"),
			delta("spiced_pool_spec_hits_total")+delta("spiced_pool_spec_misses_total")),
		"server.squashed_iter_ratio": ratio(delta("spiced_pool_squashed_iters_total"),
			delta("spiced_pool_squashed_iters_total")+delta("spiced_pool_iters_total")),
		"server.sheds_per_job": ratio(float64(r.wN.sheds), float64(r.wN.jobs-r.wN.bad)),
	}
	// Latency by tenant kind: serve_mixed is multimodal, serve_light has
	// the one kind, reported as "good".
	for _, key := range []string{"good", "bad", "circ", "acc"} {
		m["server."+key+"_p50_us"] = 0
	}
	for i, k := range g.spec.kinds {
		key := k.prefix
		if len(g.spec.kinds) == 1 {
			key = "good"
		}
		m["server."+key+"_p50_us"] = median(r.wN.byKind[i]) / 1e3
	}
	for _, key := range []string{"good", "bad"} {
		prefix := key
		if len(g.spec.kinds) == 1 && key == "good" {
			prefix = g.spec.kinds[0].prefix
		}
		sum, n := after.tenantPrefix("spiced_tenant_budget", prefix+"-")
		m["server.budget_"+key] = ratio(sum, float64(n))
	}
	// Conservation: every job the clients sent during the round was
	// either admitted or rejected, and none failed.
	if got, want := m["server.admitted"]+m["server.rejected"], float64(r.wN.jobs); got != want {
		return m, fmt.Errorf("%s: spiced admitted+rejected %v jobs, clients sent %v", g.spec.name, got, want)
	}
	return m, nil
}

// serverDoors times the doors beside POST /v1/run: the first job on a
// new instance key, the async submit-and-poll path, and a scrape.
func serverDoors(ctx context.Context, d *daemon, seed int64) (map[string]float64, int64, int64, error) {
	hc := &http.Client{Timeout: 60 * time.Second}
	defer hc.CloseIdleConnections()
	var attempted, failed int64
	k := tenantKind{"cold", "sumlist", 8, 20000, 4, 1}
	l, err := newLane(serveSpec{"doors", []tenantKind{k}}, seed+1, 0, d.base)
	if err != nil {
		return nil, 0, 0, err
	}
	defer l.close()
	l.submit(0)
	cold := float64(l.log[0].lat)
	_, bad := l.replayLog()
	attempted++
	failed += bad

	var async []float64
	for i := 0; i < 20 && ctx.Err() == nil; i++ {
		t0 := time.Now()
		var st struct {
			ID     string     `json:"id"`
			State  string     `json:"state"`
			Result *jobResult `json:"result"`
			Error  string     `json:"error"`
		}
		attempted++
		if err := post(hc, d.base+"/v1/submit", l.bodies[0], &st); err != nil {
			failed++
			continue
		}
		id := st.ID
		for st.State != "done" {
			if err := getJSON(hc, d.base+"/v1/jobs/"+id, &st); err != nil {
				return nil, attempted, failed + 1, fmt.Errorf("poll async job %s: %w", id, err)
			}
		}
		async = append(async, float64(time.Since(t0)))
		want, err := l.replay[0].job()
		if err != nil || st.Result == nil || st.Error != "" || st.Result.Result != want {
			failed++
		}
	}

	var scrapes []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := scrape(hc, d.base); err != nil {
			return nil, attempted, failed, err
		}
		scrapes = append(scrapes, float64(time.Since(t0)))
	}
	return map[string]float64{
		"server.cold_job_ms":        cold / 1e6,
		"server.async_roundtrip_us": median(async) / 1e3,
		"server.metrics_scrape_us":  median(scrapes) / 1e3,
	}, attempted, failed, nil
}

func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	return decodeReply(resp, url, out)
}

// serveOwnLayers is the part of a serving workload's traced run that
// describes the workload's own series, named as the library workloads
// name theirs: the daemon's /metrics deltas stand in for Stats. What the
// wire does not expose (tail iterations, chunk imbalance, allocations
// inside the child) reads 0. both pools the plain and the traced rounds.
func serveOwnLayers(both, plain, traced *serveRound, before, after promSample) map[string]float64 {
	delta := func(name string) int64 { return int64(after.sum(name) - before.sum(name)) }
	m := statRatios(spice.Stats{
		Invocations:         delta("spiced_pool_invocations_total"),
		TotalIters:          delta("spiced_pool_iters_total"),
		SquashedIters:       delta("spiced_pool_squashed_iters_total"),
		Hits:                delta("spiced_pool_spec_hits_total"),
		Misses:              delta("spiced_pool_spec_misses_total"),
		Conflicts:           delta("spiced_pool_conflicts_total"),
		ConflictIters:       delta("spiced_pool_conflict_iters_total"),
		Recoveries:          delta("spiced_pool_recoveries_total"),
		BatchSheds:          delta("spiced_pool_batch_sheds_total"),
		SequentialFallbacks: delta("spiced_tenant_sequential_fallbacks_total"),
		MisspecInvocations:  delta("spiced_tenant_misspec_invocations_total"),
		EffectiveThreads:    int64(after.sum("spiced_pool_effective_threads")),
	})
	wN, w1 := &both.wN, &both.w1
	ref := ratio(sum(wN.ref)+sum(w1.ref), float64(wN.iters+w1.iters))
	w1ns := ratio(sum(w1.lat), float64(w1.iters))
	m["iters_per_s"] = ratio(float64(wN.iters), wN.wall.Seconds())
	m["jobs_per_s"] = ratio(float64(wN.jobs-wN.bad), wN.wall.Seconds())
	m["op_p50_us"] = median(wN.lat) / 1e3
	m["op_p90_us"] = percentile(wN.lat, 0.9) / 1e3
	m["op_p99_us"] = percentile(wN.lat, 0.99) / 1e3
	m["trace.overhead_ratio"] = ratio(median(traced.wN.lat), median(plain.wN.lat))
	m["client.idle_ratio"] = wN.idle()
	m["body.ref_ns_per_iter"] = ref
	m["runner.w1_ns_per_iter"] = w1ns
	m["runner.w1_self_ns_per_iter"] = w1ns - ref
	m["scheduler.wN_ns_per_iter"] = ratio(sum(wN.lat), float64(wN.iters))
	m["runner.allocs_per_op"] = 0
	m["predictor.chunk_imbalance"] = 0
	return m
}

// mergeInto copies src into dst; a name written twice is a bug in the
// benchmark, not a measurement.
func mergeInto(dst, src map[string]float64) error {
	var dup []string
	for k, v := range src {
		if _, ok := dst[k]; ok {
			dup = append(dup, k)
		}
		dst[k] = v
	}
	if len(dup) > 0 {
		return fmt.Errorf("metrics emitted twice: %s", strings.Join(dup, ", "))
	}
	return nil
}
