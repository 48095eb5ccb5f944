// Package faults is a deterministic, seeded fault-injection plane for
// chaos-testing the spice runtime and the spiced serving path.
//
// A Plane holds an immutable schedule of fault points. Each point names
// an injection Site, a 1-based match count (the fault fires on exactly
// the Match-th hit of that site), and a fault Kind. Sites threaded
// through the stack call Hit or Check on every pass; with a nil Plane
// the call reduces to an inlined nil-check, so production paths pay
// nothing (the repo's 0-allocs/op bench gates run with a nil plane and
// prove it).
//
// Hit counters are atomic, so "the k-th hit" is well defined even when
// many goroutines race through a site; which goroutine draws the k-th
// ordinal is scheduling-dependent, but the schedule itself — which hits
// fault, and how — is fully determined by the Plane's construction.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Site identifies an injection point threaded through the stack.
type Site uint8

const (
	// ExecWorker fires in the executor worker loop, once per dequeued
	// task. Slow/Stall delay the worker before the task body runs
	// (simulating a wedged or descheduled worker); Panic fires after
	// the task body completes, exercising the worker's containment
	// backstop without stranding the chunk completion latch.
	ExecWorker Site = iota
	// ChunkBody fires at the top of every chunk execution — chunk 0,
	// speculative and later-round chunks, and the single chunk of an
	// invocation that runs on its caller alone (width 1, shed, nothing
	// predicted) — inside the chunk's panic containment, so an injected
	// panic surfaces as a *spice.PanicError.
	ChunkBody
	// RecoveryRound fires at the top of each parallel squash-recovery
	// round; Err/Cancel abort the invocation with that error.
	RecoveryRound
	// PoolAcquire fires when a pool front door acquires a runner;
	// Err/Cancel fail the acquisition before any work is admitted.
	PoolAcquire
	// ServerAdmit fires on the spiced admission path before a job is
	// queued; Err sheds the request with an injected 503.
	ServerAdmit
	// ServerDispatch fires in a spiced dispatcher as it picks up a job.
	// Slow/Stall occupy the dispatcher (the watchdog's prey), Cancel
	// abandons the job's client, Panic is contained to a 500.
	ServerDispatch
	// ServerBuild fires inside tenant kernel-structure construction;
	// any injected failure there surfaces as a contained build panic.
	ServerBuild

	numSites
)

var siteNames = [numSites]string{
	ExecWorker:     "exec-worker",
	ChunkBody:      "chunk-body",
	RecoveryRound:  "recovery-round",
	PoolAcquire:    "pool-acquire",
	ServerAdmit:    "server-admit",
	ServerDispatch: "server-dispatch",
	ServerBuild:    "server-build",
}

func (s Site) String() string {
	if s < numSites {
		return siteNames[s]
	}
	return "site(" + strconv.Itoa(int(s)) + ")"
}

// Kind is what happens when a fault point fires.
type Kind uint8

const (
	// KindNone is the zero Op: no fault.
	KindNone Kind = iota
	// KindPanic panics with an Injected value (sites arrange for the
	// panic to be contained by the layer's existing recovery).
	KindPanic
	// KindStall blocks for Dur or until Plane.Release, whichever comes
	// first, ignoring any context — a wedged component.
	KindStall
	// KindSlow sleeps for Dur — a degraded component.
	KindSlow
	// KindCancel surfaces context.Canceled (library sites) or cancels
	// the in-flight job (server dispatcher) — an abandoned client.
	KindCancel
	// KindErr surfaces ErrInjected.
	KindErr

	numKinds
)

var kindNames = [numKinds]string{
	KindNone: "none", KindPanic: "panic", KindStall: "stall",
	KindSlow: "slow", KindCancel: "cancel", KindErr: "err",
}

func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// seededKinds lists, per site, the kinds a Seeded schedule may draw.
// The omissions are deliberate: a panic at RecoveryRound or PoolAcquire
// would unwind through the library caller uncontained, and a panic at
// ServerAdmit would unwind through the HTTP handler goroutine; Parse
// can still express those for targeted tests that expect them.
var seededKinds = [numSites][]Kind{
	ExecWorker:     {KindPanic, KindSlow, KindStall},
	ChunkBody:      {KindPanic, KindSlow, KindStall, KindCancel, KindErr},
	RecoveryRound:  {KindSlow, KindStall, KindCancel, KindErr},
	PoolAcquire:    {KindSlow, KindCancel, KindErr},
	ServerAdmit:    {KindSlow, KindCancel, KindErr},
	ServerDispatch: {KindPanic, KindSlow, KindStall, KindCancel, KindErr},
	ServerBuild:    {KindPanic, KindSlow, KindStall, KindErr},
}

// ErrInjected is the error surfaced by KindErr fault points.
var ErrInjected = errors.New("faults: injected failure")

// Injected is the value carried by an injected panic.
type Injected struct {
	Site  Site
	Match int64
}

func (i Injected) String() string {
	return fmt.Sprintf("faults: injected panic at %s hit %d", i.Site, i.Match)
}

// Point schedules one fault: Kind fires on the Match-th hit (1-based)
// of Site. Dur bounds Stall and Slow; zero means DefaultDur.
type Point struct {
	Site  Site
	Match int64
	Kind  Kind
	Dur   time.Duration
}

// DefaultDur bounds Stall/Slow points that don't specify a duration.
const DefaultDur = 25 * time.Millisecond

// Op is the outcome of a Hit: the kind (delay kinds already served) the
// caller must interpret, plus the matched point's ordinal for messages.
type Op struct {
	Kind  Kind
	Match int64
	Dur   time.Duration
}

type siteSched struct {
	hits   atomic.Int64
	points []Point // sorted by Match, immutable after construction
}

// Plane is an armed fault schedule. The zero value is not usable; a nil
// *Plane is valid everywhere and injects nothing.
type Plane struct {
	sites    [numSites]siteSched
	fired    atomic.Int64
	disarmed atomic.Bool
	release  chan struct{}
	relOnce  sync.Once
}

// New builds a Plane from explicit points. Points with Kind KindNone or
// Match < 1 are dropped.
func New(points ...Point) *Plane {
	p := &Plane{release: make(chan struct{})}
	for _, pt := range points {
		if pt.Kind == KindNone || pt.Kind >= numKinds || pt.Site >= numSites || pt.Match < 1 {
			continue
		}
		if pt.Dur <= 0 && (pt.Kind == KindStall || pt.Kind == KindSlow) {
			pt.Dur = DefaultDur
		}
		s := &p.sites[pt.Site]
		s.points = append(s.points, pt)
	}
	for i := range p.sites {
		pts := p.sites[i].points
		sort.Slice(pts, func(a, b int) bool { return pts[a].Match < pts[b].Match })
	}
	return p
}

// Seeded builds a deterministic pseudo-random schedule of n points
// spread over the given sites, each firing within the first window hits
// of its site. Kinds are drawn from the site's safe set (see
// seededKinds); delay durations are 1..maxDur. The same arguments
// always produce the same schedule.
func Seeded(seed int64, n int, window int64, maxDur time.Duration, sites ...Site) *Plane {
	if len(sites) == 0 || n <= 0 {
		return New()
	}
	if window < 1 {
		window = 1
	}
	if maxDur <= 0 {
		maxDur = DefaultDur
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		site := sites[rng.Intn(len(sites))]
		kinds := seededKinds[site]
		pts = append(pts, Point{
			Site:  site,
			Match: 1 + rng.Int63n(window),
			Kind:  kinds[rng.Intn(len(kinds))],
			Dur:   1 + time.Duration(rng.Int63n(int64(maxDur))),
		})
	}
	return New(pts...)
}

// Parse builds a Plane from a comma-separated spec of
// "site:match:kind[:dur]" clauses, e.g.
// "server-dispatch:3:stall:200ms,chunk-body:10:panic".
func Parse(spec string) (*Plane, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var pts []Point
	for _, clause := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(clause), ":")
		if len(parts) < 3 || len(parts) > 4 {
			return nil, fmt.Errorf("faults: bad clause %q (want site:match:kind[:dur])", clause)
		}
		var pt Point
		found := false
		for s := Site(0); s < numSites; s++ {
			if parts[0] == siteNames[s] {
				pt.Site, found = s, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("faults: unknown site %q", parts[0])
		}
		m, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil || m < 1 {
			return nil, fmt.Errorf("faults: bad match count %q", parts[1])
		}
		pt.Match = m
		found = false
		for k := Kind(1); k < numKinds; k++ {
			if parts[2] == kindNames[k] {
				pt.Kind, found = k, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("faults: unknown kind %q", parts[2])
		}
		if len(parts) == 4 {
			d, err := time.ParseDuration(parts[3])
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faults: bad duration %q", parts[3])
			}
			pt.Dur = d
		}
		pts = append(pts, pt)
	}
	return New(pts...), nil
}

// Hit records one pass through site and serves any scheduled fault.
// Delay kinds (Slow, Stall) are served in place; the returned Op tells
// the caller what else to do (Panic, Cancel, Err) in site-appropriate
// terms. Nil-safe and allocation-free.
func (p *Plane) Hit(site Site) Op {
	if p == nil {
		return Op{}
	}
	return p.hit(site)
}

func (p *Plane) hit(site Site) Op {
	s := &p.sites[site]
	if len(s.points) == 0 || p.disarmed.Load() {
		return Op{}
	}
	n := s.hits.Add(1)
	// Points are sorted by Match and per-site lists are tiny.
	for i := range s.points {
		pt := &s.points[i]
		if pt.Match > n {
			break
		}
		if pt.Match != n {
			continue
		}
		p.fired.Add(1)
		switch pt.Kind {
		case KindSlow:
			time.Sleep(pt.Dur)
			return Op{Kind: KindSlow, Match: n, Dur: pt.Dur}
		case KindStall:
			select {
			case <-p.release:
			case <-time.After(pt.Dur):
			}
			return Op{Kind: KindStall, Match: n, Dur: pt.Dur}
		default:
			return Op{Kind: pt.Kind, Match: n, Dur: pt.Dur}
		}
	}
	return Op{}
}

// Check is Hit plus the default interpretation for library sites: Panic
// panics with an Injected value, Cancel returns context.Canceled, Err
// returns ErrInjected. Nil-safe and allocation-free on the no-fault
// path.
func (p *Plane) Check(site Site) error {
	if p == nil {
		return nil
	}
	return p.check(site)
}

func (p *Plane) check(site Site) error {
	op := p.hit(site)
	switch op.Kind {
	case KindPanic:
		panic(Injected{Site: site, Match: op.Match})
	case KindCancel:
		return context.Canceled
	case KindErr:
		return fmt.Errorf("%w (%s hit %d)", ErrInjected, site, op.Match)
	}
	return nil
}

// Release unblocks every current and future Stall point. Idempotent.
func (p *Plane) Release() {
	if p == nil {
		return
	}
	p.relOnce.Do(func() { close(p.release) })
}

// Disarm turns the plane off: subsequent Hits neither count nor fire.
// Used by chaos suites to verify post-fault usability on a quiet plane.
func (p *Plane) Disarm() {
	if p == nil {
		return
	}
	p.disarmed.Store(true)
}

// Fired reports how many scheduled points have fired so far.
func (p *Plane) Fired() int64 {
	if p == nil {
		return 0
	}
	return p.fired.Load()
}

// Hits reports how many times site has been passed (only counted while
// the site has points scheduled and the plane is armed).
func (p *Plane) Hits(site Site) int64 {
	if p == nil || site >= numSites {
		return 0
	}
	return p.sites[site].hits.Load()
}

// String renders the schedule for logs and failure messages.
func (p *Plane) String() string {
	if p == nil {
		return "faults: nil plane"
	}
	var b strings.Builder
	b.WriteString("faults:")
	n := 0
	for si := range p.sites {
		for _, pt := range p.sites[si].points {
			if n > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, " %s:%d:%s", pt.Site, pt.Match, pt.Kind)
			if pt.Kind == KindStall || pt.Kind == KindSlow {
				fmt.Fprintf(&b, ":%s", pt.Dur)
			}
			n++
		}
	}
	if n == 0 {
		b.WriteString(" (empty)")
	}
	return b.String()
}
