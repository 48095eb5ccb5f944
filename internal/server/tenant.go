package server

// Per-tenant serving state and the speculation-budget allocator.
//
// Garmon et al. (PAPERS.md) frame speculation as a resource-allocation
// problem: when many clients share a speculative runtime, width should
// flow to the tenants whose speculation pays — success probability
// times what success buys. spiced makes that concrete: every tenant's
// jobs run through width-budgeted pool sessions (Pool.SessionWidth),
// the tenant's Stats deltas over its sessions feed a smoothed payoff
// score (payoff below), and a periodic rebalance re-divides the
// executor's speculative capacity across the active tenants in
// proportion to their scores — starving tenants whose speculation does
// not pay down to width 1 (pure sequential execution, zero speculative
// chunks), with periodic full-width probes so a reformed tenant can
// earn its budget back.

import (
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spice"
	"spice/internal/faults"
	"spice/internal/workloads/native"
)

// tenant is one tenant's serving state.
type tenant struct {
	name string

	// budget is the current speculation width, written by the allocator
	// and read (without the tenant lock) by the execution path.
	budget atomic.Int64
	// inflight counts admitted jobs not yet finished. Atomic, so that
	// admission never waits on the tenant lock, which a build holds.
	inflight atomic.Int64

	// mu guards the structure instances. A build holds it (instanceFor),
	// so it blocks only this tenant's own jobs.
	mu sync.Mutex
	// insts holds the tenant's structure instances keyed by
	// (kernel,size,seed,churn), with LRU eviction at maxInstances.
	insts map[instanceKey]*instance
	lru   []instanceKey // oldest first

	// acct guards the allocator's accounting below. Nothing holds it
	// across a build, so /metrics and the allocator window never wait
	// on one.
	acct sync.Mutex
	// agg accumulates the tenant's lifetime Stats counters (for
	// /metrics); win accumulates the current allocator window's deltas.
	agg     spice.Stats
	win     spice.Stats
	winJobs int64

	// score is the EWMA of the tenant's payoff, updated once per
	// allocator window that carries enough evidence. New tenants start
	// optimistic so they get width to prove themselves.
	score float64
	// starved marks tenants the allocator pinned to sequential
	// execution; starvedWindows counts active windows since, pacing the
	// width-2 probes.
	starved        bool
	starvedWindows int
}

// instance is one mutable workload structure plus the session pinned to
// it. instance.mu serializes jobs against the structure (a traversal
// must never overlap the between-invocation churn) and is strictly
// ordered before tenant.mu: an execution path holding instance.mu may
// take the tenant's locks (record), never the reverse.
type instance struct {
	mu   sync.Mutex
	key  instanceKey
	inst *native.Instance
	sess *spice.Session[*native.Node, int64]
	// dead marks an instance evicted from its tenant's LRU. A queued job
	// may still hold the pointer; once set (under mu, by the evictor),
	// ensureSession fails fast instead of re-opening a session that no
	// eviction or drain path would ever close again (a runner leak).
	dead bool
}

// ensureSession (re)opens the instance's session at the given width.
// Reopening resets the runner's predictions — a budget change pays one
// bootstrap invocation — so it only happens when the width actually
// changed.
func (i *instance) ensureSession(s *Server, width int) *apiError {
	if i.dead {
		return &apiError{
			code:       http.StatusGone,
			msg:        "structure instance evicted while the job was queued; resubmit",
			retryAfter: 1,
		}
	}
	if i.sess != nil && i.sess.Width() == width {
		return nil
	}
	if i.sess != nil {
		i.sess.Close()
		i.sess = nil
	}
	sess, err := s.pool.SessionWidth(width)
	if err != nil {
		return &apiError{code: 503, msg: "pool closed: " + err.Error()}
	}
	i.sess = sess
	return nil
}

// closeSession releases the session (used by eviction and drain).
func (i *instance) closeSession() {
	if i.sess != nil {
		i.sess.Close()
		i.sess = nil
	}
}

// The state tables' bounds: maxTenants tenants, maxInstances structure
// instances in each tenant's LRU.
const (
	maxTenants   = 64
	maxInstances = 8
)

// tenantFor returns (creating on first sight) the named tenant. It
// enforces the maxTenants bound: a serving daemon must not let an open
// tenant namespace grow its state without limit. Nothing removes a
// tenant, so a full table refuses every new name for good, and the 429
// carries no Retry-After.
func (s *Server) tenantFor(name string) (*tenant, *apiError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[name]; ok {
		return t, nil
	}
	if len(s.tenants) >= maxTenants {
		return nil, &apiError{
			code: http.StatusTooManyRequests,
			msg:  fmt.Sprintf("tenant table full (%d tenants); it never shrinks, so a new tenant cannot be served", maxTenants),
		}
	}
	// A fresh tenant starts optimistic on both counts — the configured
	// ceiling for width, a payoff estimate well above starveScore — so
	// it gets width to prove itself, and the first windows of evidence
	// demote the misspeculators.
	t := &tenant{name: name, insts: make(map[instanceKey]*instance), score: initialScore}
	t.budget.Store(int64(s.cfg.MaxWidth))
	s.tenants[name] = t
	return t, nil
}

// instanceFor returns (creating, with LRU eviction) the tenant's
// structure instance for the request. Building a large list is done
// under the tenant lock: it only blocks this tenant's own jobs.
func (t *tenant) instanceFor(s *Server, req *JobRequest) *instance {
	inst, evicted := t.lookupOrCreate(s, req)
	if evicted != nil {
		// Outside t.mu (lock order: instance.mu before tenant.mu). A job
		// still executing on the evicted instance finishes first; the
		// session is closed once its lock is free. dead stops the race
		// with a job that was queued holding this pointer: without it,
		// that job's ensureSession would re-open a session on the evicted
		// instance that no later eviction or drain walk ever closes.
		evicted.mu.Lock()
		evicted.closeSession()
		evicted.dead = true
		evicted.mu.Unlock()
	}
	return inst
}

// lookupOrCreate is instanceFor's under-lock half, returning the
// instance plus any LRU victim to close outside t.mu. The lock is
// defer-released and the kernel's New runs before the maps or the LRU
// are touched, so a panicking kernel build unwinds with the tenant's
// state intact and its lock free (the panic itself is contained one
// frame up, in runJobGuarded).
func (t *tenant) lookupOrCreate(s *Server, req *JobRequest) (inst, evicted *instance) {
	key := req.instanceKey()
	t.mu.Lock()
	defer t.mu.Unlock()
	if inst, ok := t.insts[key]; ok {
		// Refresh LRU position: rotate the hit to the back, in place.
		for i, k := range t.lru {
			if k == key {
				copy(t.lru[i:], t.lru[i+1:])
				t.lru[len(t.lru)-1] = key
				break
			}
		}
		return inst, nil
	}
	// Fault-injection site for structure builds. A Check that returns an
	// error is re-raised as a panic so it travels the exact path a real
	// kernel-New panic would — up through this defer-released lock into
	// runJobGuarded's containment — rather than inventing a separate
	// error plumbing for a path that only panics in production.
	if err := s.cfg.Faults.Check(faults.ServerBuild); err != nil {
		panic(err)
	}
	inst = &instance{
		key:  key,
		inst: native.ByName(req.Kernel).New(req.Size, req.Seed, req.Churn),
	}
	if len(t.insts) >= maxInstances && len(t.lru) > 0 {
		victim := t.lru[0]
		t.lru = t.lru[1:]
		evicted = t.insts[victim]
		delete(t.insts, victim)
	}
	t.insts[key] = inst
	t.lru = append(t.lru, key)
	return inst, evicted
}

// record folds one job's Stats delta into the tenant's lifetime and
// window accumulators.
func (t *tenant) record(d spice.Stats) {
	t.acct.Lock()
	t.agg = t.agg.Plus(d)
	t.win = t.win.Plus(d)
	t.winJobs++
	t.acct.Unlock()
}

// rebalance is one allocator window: harvest every tenant's windowed
// evidence, update scores by payoff, and re-divide the executor's
// speculative capacity proportional to score.
func (s *Server) rebalance() {
	tenants := s.tenantList()
	type row struct {
		t       *tenant
		active  bool
		score   float64
		probe   bool
		windows int // starvedWindows as of the harvest
	}
	rows := make([]row, 0, len(tenants))
	for _, t := range tenants {
		t.acct.Lock()
		win, jobs, inflight := t.win, t.winJobs, t.inflight.Load()
		t.win, t.winJobs = spice.Stats{}, 0
		if win.Hits+win.Misses >= minSample {
			t.score = scoreAlpha*payoff(win) + (1-scoreAlpha)*t.score
		} else if jobs > 0 && !t.starved {
			// Active but evidence-free: the tenant's predictions never
			// survived to dispatch (node-replacement churn kills membership
			// validation outright), so width buys it nothing. Decay the
			// score toward starvation instead of freezing it — an
			// evidence-free tenant must not hold width on stale credit.
			t.score *= noEvidenceDecay
		}
		active := jobs > 0 || inflight > 0
		probe := false
		if t.starved && active {
			t.starvedWindows++
			// A starved tenant runs sequentially and generates no
			// hit/miss evidence, so it could never recover; after
			// probeWindows active windows it becomes *eligible* to briefly
			// get the full width back so its loops testify at the width
			// the allocator is actually pricing (narrow probes flatter
			// hostile loops: with one chunk boundary, membership
			// validation commits almost anything).
			probe = t.starvedWindows >= probeWindows
		}
		rows = append(rows, row{t: t, active: active, score: t.score, probe: probe, windows: t.starvedWindows})
		t.acct.Unlock()
	}

	// Stagger probes: a MaxWidth probe grant bypasses the proportional
	// division below (its capacity is never charged against specCap), so
	// letting every eligible starved tenant probe in the same window
	// would oversubscribe the executor by (eligible × MaxWidth) workers
	// at once. Grant at most ONE probe per rebalance window — the tenant
	// starved longest, name as a deterministic tie-break — and restart
	// its probe clock; the losers keep accumulating starvedWindows, so
	// they win strictly later windows in turn.
	winner := -1
	for i, r := range rows {
		if !r.probe {
			continue
		}
		if winner < 0 ||
			r.windows > rows[winner].windows ||
			(r.windows == rows[winner].windows && r.t.name < rows[winner].t.name) {
			winner = i
		}
	}
	for i := range rows {
		if !rows[i].probe {
			continue
		}
		if i != winner {
			rows[i].probe = false
			continue
		}
		t := rows[i].t
		t.acct.Lock()
		t.starvedWindows = 0
		t.acct.Unlock()
	}

	// Divide the speculative capacity (the shared executor's workers:
	// each width-w invocation occupies up to w-1 of them) across the
	// active, non-starved tenants in proportion to score.
	specCap := float64(s.pool.Workers())
	var sum float64
	for _, r := range rows {
		if r.active && r.score >= starveScore {
			sum += r.score
		}
	}
	for _, r := range rows {
		t := r.t
		if !r.active {
			continue // idle tenants keep their budget; no capacity charged
		}
		switch {
		case r.score < starveScore:
			t.acct.Lock()
			if !t.starved {
				t.starved = true
				t.starvedWindows = 0
			}
			t.acct.Unlock()
			if r.probe {
				t.budget.Store(int64(s.cfg.MaxWidth))
			} else {
				t.budget.Store(1)
			}
		default:
			t.acct.Lock()
			t.starved = false
			t.starvedWindows = 0
			t.acct.Unlock()
			w := 1 + int(specCap*r.score/sum+0.5)
			if w < 2 {
				// A trusted tenant always gets at least one speculative
				// chunk, else it could never produce evidence again.
				w = 2
			}
			if w > s.cfg.MaxWidth {
				w = s.cfg.MaxWidth
			}
			t.budget.Store(int64(w))
		}
	}
}

// payoff is what one allocator window's speculation earned the tenant,
// in [0, 1]: hit rate × parallel share × committed share, all read from
// the window's Stats delta.
//
//   - Hit rate, Hits/(Hits+Misses): the chance a speculative chunk
//     commits.
//   - Parallel share, 1 − Reclaimed/(Hits+Misses): what a chunk buys
//     when it commits. Spice pays only while a speculative chunk runs
//     beside chunk 0. A chunk the invoker reclaimed ran after its own
//     share: sequential execution that still paid for buffering,
//     memoization and dispatch, so it earns nothing.
//   - Committed share, TotalIters/(TotalIters+SquashedIters): every
//     miss also squashes a chunk's worth of iterations. Membership
//     validation tolerates reordering, so even a hostile tenant commits
//     over half its chunks; this factor is what sinks it.
//
// A tenant whose chunks a worker runs and commits scores near 1. One
// that misspeculates, or whose chunks the invoker keeps reclaiming
// because no worker reaches them in time, sinks under starveScore.
func payoff(win spice.Stats) float64 {
	verdicts := float64(win.Hits + win.Misses)
	hit := float64(win.Hits) / verdicts
	parallel := 1 - float64(win.Reclaimed)/verdicts
	committed := 1.0
	if done := win.TotalIters + win.SquashedIters; done > 0 {
		committed = float64(win.TotalIters) / float64(done)
	}
	return hit * parallel * committed
}

// The allocator's policy.
const (
	// rebalanceWindow is the allocator's window length.
	rebalanceWindow = 500 * time.Millisecond
	// minSample is the hit+miss evidence floor below which a window does
	// not move a tenant's score.
	minSample = 8
	// initialScore is a new tenant's starting payoff estimate (tenantFor).
	initialScore = 0.9
	// scoreAlpha is the EWMA weight of one window's payoff.
	scoreAlpha = 0.5
	// noEvidenceDecay shrinks the score of a tenant whose active window
	// produced no speculative evidence at all.
	noEvidenceDecay = 0.7
	// starveScore is the score below which a tenant is starved to
	// sequential execution (budget 1). The score is the smoothed payoff
	// of the tenant's speculation: hit rate × the share of its
	// speculative chunks a worker ran beside chunk 0 (not reclaimed by
	// the invoker) × the committed share of its iterations. A tenant
	// whose chunks commit and run in parallel scores near 1. Speculation
	// that only misses, or only runs after the invoker's own share,
	// scores near 0.
	starveScore = 0.5
	// probeWindows paces starved tenants' full-width probes: one probe
	// window every probeWindows active windows.
	probeWindows = 4
)

// tenantList copies the tenant table out from under s.mu.
func (s *Server) tenantList() []*tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Collect(maps.Values(s.tenants))
}

// snapshotTenants captures every tenant's scrape row (metrics.go).
func (s *Server) snapshotTenants() []tenantMetricsRow {
	tenants := s.tenantList()
	rows := make([]tenantMetricsRow, 0, len(tenants))
	for _, t := range tenants {
		t.acct.Lock()
		rows = append(rows, tenantMetricsRow{
			name:     t.name,
			budget:   t.budget.Load(),
			score:    t.score,
			inflight: t.inflight.Load(),
			starved:  t.starved,
			agg:      t.agg,
		})
		t.acct.Unlock()
	}
	slices.SortFunc(rows, func(a, b tenantMetricsRow) int { return strings.Compare(a.name, b.name) })
	return rows
}
