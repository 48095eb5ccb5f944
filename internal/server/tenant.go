package server

// Per-tenant serving state: the tenant's structure instances, each with
// the pool session pinned to it, and the tenant's accounting.
//
// Garmon et al. (PAPERS.md) frame speculation as a resource-allocation
// problem: width should flow to where speculation pays. spiced leaves
// that judgement where the evidence is, in each session's runtime: the
// pool is adaptive, so a session's confidence gate closes the rows that
// keep missing (down to sequential execution, width 1) and probes them
// again, and every invocation goes through the load-aware door, which
// runs it in place when the executor has no free worker or the
// traversal is too small to chunk. A tenant's budget is what its last
// job's session ran at.

import (
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"spice"
	"spice/internal/faults"
	"spice/internal/workloads/native"
)

// tenant is one tenant's serving state.
type tenant struct {
	name string

	// budget is the width the tenant's session ran at after its last job
	// (the job's Stats.EffectiveThreads): 1 once the confidence gate has
	// closed every row. Written by the execution path, read by /metrics.
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

	// acct guards agg, the tenant's lifetime Stats counters (for
	// /metrics). Nothing holds it across a build, so /metrics never
	// waits on one.
	acct sync.Mutex
	agg  spice.Stats
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

// ensureSession opens the instance's session, once, at the pool's width,
// and binds the instance's private cell store to it (DOALL kernels carry
// a minimal store that the universal SpecLoop's reduction declarations
// require). The session keeps its runner, predictions and gate for the
// instance's life.
func (i *instance) ensureSession(s *Server) *apiError {
	if i.dead {
		return &apiError{
			code:       http.StatusGone,
			msg:        "structure instance evicted while the job was queued; resubmit",
			retryAfter: 1,
		}
	}
	if i.sess != nil {
		return nil
	}
	sess, err := s.pool.Session()
	if err != nil {
		return &apiError{code: 503, msg: "pool closed: " + err.Error()}
	}
	sess.BindCells(i.inst.Cells)
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
	// A fresh session runs at the pool's width until its gate closes
	// every row.
	t := &tenant{name: name, insts: make(map[instanceKey]*instance)}
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

// record folds one job's Stats delta into the tenant's lifetime
// accumulator, and the width its session ran at (the delta keeps the
// gauge) into the budget.
func (t *tenant) record(d spice.Stats) {
	t.budget.Store(d.EffectiveThreads)
	t.acct.Lock()
	t.agg = t.agg.Plus(d)
	t.acct.Unlock()
}

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
			inflight: t.inflight.Load(),
			agg:      t.agg,
		})
		t.acct.Unlock()
	}
	slices.SortFunc(rows, func(a, b tenantMetricsRow) int { return strings.Compare(a.name, b.name) })
	return rows
}
