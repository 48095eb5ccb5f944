package main

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// setupRig boots and warms the serving workload repeatedly (once when
// once is set, else as moreSetups says), keeps the last rig and returns
// the median set-up time.
func setupRig(ctx context.Context, cfg config, spec serveSpec, once bool) (*rig, float64, error) {
	var times []float64
	var g *rig
	for len(times) == 0 || (!once && moreSetups(times)) {
		if g != nil {
			if err := g.close(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if g, err = newRig(ctx, cfg.spiced, spec, cfg.seed); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return g, median(times), nil
}

// warm loads both daemons before the first round, so the budget
// allocator has sorted the tenants and every predictor is primed.
// Warm-up jobs are verified like any other.
func (g *rig) warm(ctx context.Context, seconds float64) (attempted, failed int64) {
	for _, side := range []int{rigW1, rigWN} {
		share := serveWarmShare
		if side == rigW1 {
			share /= 3 // width 1 has no budgets to settle
		}
		b := g.block(ctx, side, time.Duration(seconds*share*float64(time.Second)), false)
		attempted += b.jobs
		failed += b.bad
	}
	return attempted, failed
}

// timedServe is the untraced run of a serving workload.
func timedServe(ctx context.Context, cfg config) (*outcome, error) {
	if cfg.rounds == 0 {
		cfg.rounds = max(1, int(serveRoundsPerSecond*cfg.seconds))
	}
	spec := serveSpecByName(cfg.workload)
	g, setup, err := setupRig(ctx, cfg, spec, false)
	if err != nil {
		return nil, err
	}
	defer g.close()
	o := &outcome{}
	o.attempted, o.failed = g.warm(ctx, cfg.seconds)

	// Rounds sized so that cfg.rounds of them fill the time, run until
	// the time is up.
	var rounds []map[string]float64
	var idle []float64
	total := time.Duration(cfg.seconds * float64(time.Second))
	per := total / time.Duration(cfg.rounds)
	for t0 := time.Now(); (len(rounds) == 0 || time.Since(t0) < total) && ctx.Err() == nil; {
		sr := g.round(ctx, per, false)
		rounds = append(rounds, sr.values(spec.kinds))
		o.attempted += sr.w1.jobs + sr.wN.jobs
		o.failed += sr.w1.bad + sr.wN.bad
		idle = append(idle, sr.wN.idle())
	}
	o.rounds = len(rounds)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o.values, o.spread = summarize(rounds)
	o.values["setup_s"] = setup
	if o.values["peak_rss_mb"], err = peakRSSMB(g.dN.pid()); err != nil {
		return nil, err
	}
	o.notes = append(o.notes, fmt.Sprintf("client time outside requests: %.1f%% (median over rounds, %d closed-loop clients)", 100*median(idle), clients()))
	if err := g.close(); err != nil {
		o.failed++
		o.notes = append(o.notes, err.Error())
	}
	return o, nil
}

// Shares of a traced run's time: the own rounds of a library workload,
// the own rounds of a serving one, and the serve_mixed probe a library
// workload's traced run adds. The ladder's probes scale with the run
// length through reps.
const (
	tracedOwnShare   = 0.3
	tracedServeShare = 0.3
	tracedProbeShare = 0.15
)

// tracedRun is the traced run: every per-layer metric.
func tracedRun(ctx context.Context, cfg config) (*outcome, error) {
	o := &outcome{values: map[string]float64{}, spread: map[string]float64{}, rounds: 1}
	add := func(m map[string]float64, err error) error {
		if err != nil {
			return err
		}
		return mergeInto(o.values, m)
	}

	// The workload's own series, and the daemon's layers: from the
	// workload's own child if it is a serving one, else from a short
	// serve_mixed probe.
	if build := trioBuilder(cfg.workload, cfg.seed); build != nil {
		t, err := build()
		if err != nil {
			return nil, err
		}
		if err := t.warm(); err != nil {
			return nil, err
		}
		if err := add(traceTrio(t, cfg.workload, cfg.seconds*tracedOwnShare, cfg.outdir)); err != nil {
			return nil, err
		}
		a, f, err := t.verify()
		o.attempted, o.failed = a, f
		if err != nil {
			o.notes = append(o.notes, err.Error())
		}
		if err := tracedServe(ctx, cfg, serveMixed, tracedProbeShare, false, o); err != nil {
			return nil, err
		}
	} else if err := tracedServe(ctx, cfg, serveSpecByName(cfg.workload), tracedServeShare, true, o); err != nil {
		return nil, err
	}

	// The ladder.
	var c tally
	if err := add(ladderRuntime(&c, cfg.seed, cfg.seconds)); err != nil {
		return nil, err
	}
	if err := add(ladderCells(&c, cfg.seed, cfg.seconds)); err != nil {
		return nil, err
	}
	if err := add(ladderCircuit(&c, cfg.seconds)); err != nil {
		return nil, err
	}
	if err := add(ladderNative(cfg.seed, cfg.seconds), nil); err != nil {
		return nil, err
	}
	o.attempted += c.attempted
	o.failed += c.failed
	o.values["fail_ratio"] = ratio(float64(o.failed), float64(o.attempted))
	return o, ctx.Err()
}

// tracedServe boots a rig, runs plain and traced rounds of roundShare
// of the run each in all, and adds the daemon's layer metrics. With
// own set it also adds the workload's own series and writes the spans.
func tracedServe(ctx context.Context, cfg config, spec serveSpec, roundShare float64, own bool, o *outcome) error {
	g, _, err := setupRig(ctx, cfg, spec, true)
	if err != nil {
		return err
	}
	defer g.close()
	a, f := g.warm(ctx, cfg.seconds)
	o.attempted += a
	o.failed += f

	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	before, err := scrape(hc, g.dN.base)
	if err != nil {
		return err
	}
	// Plain and traced rounds in turn, pooled per kind of round.
	per := time.Duration(cfg.seconds * roundShare / tracePairs * float64(time.Second))
	var plain, traced serveRound
	for k := 0; k < tracePairs; k++ {
		p, t := g.round(ctx, per, false), g.round(ctx, per, true)
		if k == 0 {
			plain, traced = p, t
			continue
		}
		plain, traced = plain.join(p), traced.join(t)
	}
	after, err := scrape(hc, g.dN.base)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, r := range []*serveRound{&plain, &traced} {
		o.attempted += r.w1.jobs + r.wN.jobs
		o.failed += r.w1.bad + r.wN.bad
	}

	both := plain.join(traced)
	m, err := serverLayers(g, &both, before, after)
	if err != nil {
		o.failed++
		o.notes = append(o.notes, err.Error())
	}
	m["server.boot_ms"] = g.boot.Seconds() * 1e3
	if err := mergeInto(o.values, m); err != nil {
		return err
	}
	doors, a, f, err := serverDoors(ctx, g.dN, cfg.seed)
	o.attempted += a
	o.failed += f
	if err != nil {
		return err
	}
	if err := mergeInto(o.values, doors); err != nil {
		return err
	}
	if own {
		if err := mergeInto(o.values, serveOwnLayers(&both, &plain, &traced, before, after)); err != nil {
			return err
		}
		var spans []span
		for side := range g.lanes {
			for _, l := range g.lanes[side] {
				if l.rec != nil {
					spans = appendSpans(spans, l.rec.spans, side*clients()+l.client)
				}
			}
		}
		if err := writeSpans(cfg.outdir, cfg.workload, spans); err != nil {
			return err
		}
	}
	if err := g.close(); err != nil {
		o.failed++
		o.notes = append(o.notes, err.Error())
	}
	return nil
}
