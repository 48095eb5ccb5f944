package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"spice"
	"spice/internal/workloads/native"
)

// tenantKind is one kind of tenant a serving client owns: the job it
// submits and its share of the client's draws.
type tenantKind struct {
	prefix      string
	kernel      string
	churn       int
	size        int64
	invocations int64
	weight      int
}

type serveSpec struct {
	name  string
	kinds []tenantKind
}

var (
	// Weights 2:1:1:1, not the 3:1:1:1 a production mix might have: with
	// half the jobs in the fastest kind the median job sits in the gap
	// between two kinds and jumps from one to the other run by run. At
	// 2:1:1:1 the median falls inside the circ/acc kinds (40 % of the
	// jobs, alike in cost) and the 90th percentile inside the bad kind.
	serveMixed = serveSpec{"serve_mixed", []tenantKind{
		{"good", "sumlist", 8, 20000, 4, 2},
		{"bad", "hostile", 4000, 20000, 4, 1},
		{"circ", "rcladder", 0, 20000, 4, 1},
		{"acc", "accum", 8, 20000, 4, 1},
	}}
	serveLight = serveSpec{"serve_light", []tenantKind{
		{"light", "sumlist", 0, 2000, 8, 1},
	}}
)

// jobRequest and jobResult are the wire fields the benchmark depends
// on (internal/server/proto.go).
type jobRequest struct {
	Tenant      string `json:"tenant"`
	Kernel      string `json:"kernel"`
	Size        int64  `json:"size"`
	Seed        int64  `json:"seed"`
	Churn       int    `json:"churn"`
	Invocations int64  `json:"invocations"`
}

type jobResult struct {
	Result    int64   `json:"result"`
	Iters     int64   `json:"iters"`
	Sheds     int64   `json:"sheds"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// jobGen draws a client's job sequence from the seed: the same seed and
// client always submit the same kinds in the same order.
type jobGen struct {
	rng   *rand.Rand
	kinds []tenantKind
	total int
}

func newJobGen(seed int64, client int, kinds []tenantKind) *jobGen {
	g := &jobGen{rng: rand.New(rand.NewSource(seed*7919 + int64(client))), kinds: kinds}
	for _, k := range kinds {
		g.total += k.weight
	}
	return g
}

func (g *jobGen) next() int {
	x := g.rng.Intn(g.total)
	for i, k := range g.kinds {
		if x < k.weight {
			return i
		}
		x -= k.weight
	}
	return len(g.kinds) - 1
}

// instanceSeed is the structure seed a client's tenants use; spiced
// reads 0 as "default", so it is never 0.
func instanceSeed(seed int64, client int) int64 {
	s := seed*16 + int64(client) + 1
	if s == 0 {
		s = 1
	}
	return s
}

// replayer re-runs one tenant's jobs locally, in order, on a structure
// built exactly as spiced builds it. DOALL kernels run the plain loop;
// kernels that need the cell store run a width-1 Runner over
// native.SpecLoop, which executes sequentially against the store.
type replayer struct {
	kind  tenantKind
	inst  *native.Instance
	run   func() (int64, error)
	close func()
}

func newReplayer(k tenantKind, seed int64) (*replayer, error) {
	kern := native.ByName(k.kernel)
	if kern == nil {
		return nil, fmt.Errorf("unknown kernel %q", k.kernel)
	}
	r := &replayer{kind: k, inst: kern.New(k.size, seed, k.churn), close: func() {}}
	if !kern.DOACROSS {
		r.run = func() (int64, error) { return sumRef(r.inst.Head), nil }
		return r, nil
	}
	runner, err := spice.NewRunner(native.SpecLoop(), spice.Config{Threads: 1})
	if err != nil {
		return nil, err
	}
	runner.BindCells(r.inst.Cells)
	r.run = func() (int64, error) { return runner.Run(bg, r.inst.Head) }
	r.close = runner.Close
	return r, nil
}

// job replays one job and returns the result spiced must have sent.
func (r *replayer) job() (int64, error) {
	var acc int64
	for i := int64(0); i < r.kind.invocations; i++ {
		var err error
		if acc, err = r.run(); err != nil {
			return 0, err
		}
		r.inst.Mutate()
	}
	return acc, nil
}

// jobRecord is one submitted job as the client saw it.
type jobRecord struct {
	kind    int
	ok      bool
	result  int64
	lat     time.Duration
	elapsed time.Duration
	iters   int64
	sheds   int64
}

// lane is one closed-loop client on one daemon: a keep-alive
// connection, its job sequence, and the local replay of its tenants.
type lane struct {
	client int
	base   string
	hc     *http.Client
	gen    *jobGen
	bodies [][]byte
	replay []*replayer
	rec    *recorder

	log []jobRecord // jobs of the current block, awaiting replay
	ops int
}

func newLane(spec serveSpec, seed int64, client int, base string) (*lane, error) {
	l := &lane{
		client: client,
		base:   base,
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second},
		gen:    newJobGen(seed, client, spec.kinds),
	}
	is := instanceSeed(seed, client)
	for _, k := range spec.kinds {
		body, err := json.Marshal(jobRequest{
			Tenant: fmt.Sprintf("%s-%d", k.prefix, client), Kernel: k.kernel,
			Size: k.size, Seed: is, Churn: k.churn, Invocations: k.invocations,
		})
		if err != nil {
			return nil, err
		}
		l.bodies = append(l.bodies, body)
		r, err := newReplayer(k, is)
		if err != nil {
			return nil, err
		}
		l.replay = append(l.replay, r)
	}
	return l, nil
}

func (l *lane) close() {
	for _, r := range l.replay {
		r.close()
	}
	l.hc.CloseIdleConnections()
}

// post sends body and decodes a 2xx JSON reply into out.
func post(hc *http.Client, url string, body []byte, out any) error {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decodeReply(resp, url, out)
}

func decodeReply(resp *http.Response, url string, out any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// submit runs one synchronous job of the given kind and logs it. The
// HTTP round trip is the parent span; the service time spiced reports
// is its child, so the parent's self time is queue + transport + codec.
func (l *lane) submit(kind int) {
	op := l.ops
	l.ops++
	sp := l.rec.begin(op, "http.run", -1)
	t0 := time.Now()
	var res jobResult
	err := post(l.hc, l.base+"/v1/run", l.bodies[kind], &res)
	dt := time.Since(t0)
	l.rec.end(sp)
	elapsed := time.Duration(res.ElapsedMS * float64(time.Millisecond))
	if err == nil {
		l.rec.child(op, "server.elapsed", sp, elapsed)
	}
	l.log = append(l.log, jobRecord{
		kind: kind, ok: err == nil, result: res.Result, lat: dt, elapsed: elapsed,
		iters: res.Iters, sheds: res.Sheds,
	})
}

// ping times one GET /healthz on the lane's connection: a round trip to
// the daemon with no job in it.
func (l *lane) ping() (time.Duration, error) {
	t0 := time.Now()
	resp, err := l.hc.Get(l.base + "/healthz")
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return time.Since(t0), err
}

// replayLog re-runs the logged jobs in order, timing each, and returns
// the local times and the number of jobs whose result did not match. A
// job that failed on the wire still advances the local structure: the
// daemon may or may not have run it, and either way the tenant's later
// results can no longer be trusted, which is what a failure should cost.
func (l *lane) replayLog() (ref []float64, bad int64) {
	for _, j := range l.log {
		t0 := time.Now()
		want, err := l.replay[j.kind].job()
		ref = append(ref, float64(time.Since(t0)))
		if err != nil || !j.ok || j.result != want {
			bad++
		}
	}
	l.log = l.log[:0]
	return ref, bad
}

// rig is a serving workload ready to measure: the daemon under test at
// its default width, a second one held to width 1, and one lane per
// client on each.
type rig struct {
	spec  serveSpec
	dN    *daemon
	d1    *daemon
	lanes [2][]*lane    // [0] on d1, [1] on dN
	boot  time.Duration // exec of dN until /healthz answered 200
}

const (
	rigW1 = 0
	rigWN = 1
)

// clients is the closed-loop client count: one per processor, all in
// this process. Each client owns up to four tenants on a daemon whose
// tenant table holds 64, so the count stops at eight.
func clients() int { return min(runtime.NumCPU(), 8) }

// newRig boots both daemons and runs every tenant's first job, which
// builds its instance: the serving set-up a user waits for.
func newRig(ctx context.Context, spiced string, spec serveSpec, seed int64) (*rig, error) {
	g := &rig{spec: spec}
	var err error
	t0 := time.Now()
	if g.dN, err = startDaemon(ctx, spiced); err != nil {
		return nil, err
	}
	g.boot = time.Since(t0)
	if g.d1, err = startDaemon(ctx, spiced, "-max-width", "1"); err != nil {
		g.close()
		return nil, err
	}
	for side, d := range []*daemon{g.d1, g.dN} {
		for c := 0; c < clients(); c++ {
			l, err := newLane(spec, seed, c, d.base)
			if err != nil {
				g.close()
				return nil, err
			}
			g.lanes[side] = append(g.lanes[side], l)
		}
	}
	// First job of every tenant, all lanes at once as a user would.
	if bad := g.each(func(l *lane) {
		for k := range spec.kinds {
			l.submit(k)
		}
	}); bad > 0 {
		g.close()
		return nil, fmt.Errorf("%s: %d set-up jobs failed or returned a wrong result", spec.name, bad)
	}
	return g, nil
}

// parallel runs f on every given lane, one goroutine per lane, and
// waits for all of them.
func parallel(lanes []*lane, f func(*lane)) {
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(l)
		}()
	}
	wg.Wait()
}

// each runs f on every lane of both daemons concurrently, then replays
// what the lanes logged, and returns the number of bad jobs.
func (g *rig) each(f func(*lane)) int64 {
	var mu sync.Mutex
	var bad int64
	parallel(append(append([]*lane(nil), g.lanes[rigW1]...), g.lanes[rigWN]...), func(l *lane) {
		f(l)
		_, b := l.replayLog()
		mu.Lock()
		bad += b
		mu.Unlock()
	})
	return bad
}

// close drains and reaps both daemons. A daemon that does not exit
// cleanly on SIGTERM is reported.
func (g *rig) close() error {
	var first error
	for _, d := range []*daemon{g.d1, g.dN} {
		if d == nil {
			continue
		}
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	for side := range g.lanes {
		for _, l := range g.lanes[side] {
			l.close()
		}
	}
	return first
}

// blockSample is one time-boxed block of closed-loop load on one
// daemon, after its jobs were replayed.
type blockSample struct {
	wall     time.Duration
	lat      []float64   // ns, every job
	byKind   [][]float64 // ns, latency of every job by tenant kind
	refKind  [][]float64 // ns, local replay of the same jobs by kind
	elapsed  []float64   // ns, service time spiced reported
	overhead []float64   // ns, lat - elapsed
	ref      []float64   // ns, local replay of the same jobs
	rtt      []float64   // ns, empty round trips to the same daemon
	iters    int64
	sheds    int64
	jobs     int64 // attempted
	bad      int64 // failed on the wire or wrong result
}

// idle is the share of the block's client time spent outside requests:
// near 0 for a closed loop, unless the load generator itself is starved.
func (b *blockSample) idle() float64 {
	return 1 - ratio(sum(b.lat)/1e9, b.wall.Seconds()*float64(clients()))
}

// block drives every lane of one side for d, then times pingsPerBlock
// empty round trips per lane, then replays the jobs, each phase one
// goroutine per client and started once every lane has ended the phase
// before (so replay never competes with a neighbour's timed requests).
func (g *rig) block(ctx context.Context, side int, d time.Duration, traced bool) blockSample {
	lanes := g.lanes[side]
	bs := blockSample{byKind: make([][]float64, len(g.spec.kinds)), refKind: make([][]float64, len(g.spec.kinds))}
	t0 := time.Now()
	deadline := t0.Add(d)
	parallel(lanes, func(l *lane) {
		switch {
		case !traced:
			l.rec = nil
		case l.rec == nil:
			l.rec = newRecorder(1 << 12)
		}
		for time.Now().Before(deadline) && ctx.Err() == nil {
			l.submit(l.gen.next())
		}
	})
	bs.wall = time.Since(t0)
	var mu sync.Mutex
	parallel(lanes, func(l *lane) {
		rtt := make([]float64, 0, pingsPerBlock)
		for i := 0; i < pingsPerBlock && ctx.Err() == nil; i++ {
			if dt, err := l.ping(); err == nil {
				rtt = append(rtt, float64(dt))
			}
		}
		mu.Lock()
		defer mu.Unlock()
		bs.rtt = append(bs.rtt, rtt...)
	})
	parallel(lanes, func(l *lane) {
		jobs := append([]jobRecord(nil), l.log...)
		ref, bad := l.replayLog()
		mu.Lock()
		defer mu.Unlock()
		bs.ref = append(bs.ref, ref...)
		bs.bad += bad
		for i, j := range jobs {
			bs.jobs++
			bs.lat = append(bs.lat, float64(j.lat))
			bs.byKind[j.kind] = append(bs.byKind[j.kind], float64(j.lat))
			bs.refKind[j.kind] = append(bs.refKind[j.kind], ref[i])
			if j.ok {
				bs.elapsed = append(bs.elapsed, float64(j.elapsed))
				bs.overhead = append(bs.overhead, float64(j.lat-j.elapsed))
				bs.iters += j.iters
				bs.sheds += j.sheds
			}
		}
	})
	return bs
}

// Shares of a serving round's time given to the two load blocks; the
// replay of both takes the rest.
const (
	serveW1Share = 0.2
	serveWNShare = 0.4
	// serveWarmShare of the run is load before the first round, so the
	// budget allocator (500 ms windows) has sorted the tenants.
	serveWarmShare = 0.1
	// serveRoundsPerSecond sizes a serving round: half a second, so a
	// round's two blocks see the same state of the host (see trio.round).
	serveRoundsPerSecond = 2
	// pingsPerBlock empty round trips per client follow every load block
	// (about 3 ms of a 100 ms block); their median is the block's
	// transport floor.
	pingsPerBlock = 32
)

// serveRound is one round: a width-1 block, a width-W block.
type serveRound struct {
	w1, wN blockSample
}

// join pools two rounds.
func (r serveRound) join(o serveRound) serveRound {
	return serveRound{w1: joinBlocks(&r.w1, &o.w1), wN: joinBlocks(&r.wN, &o.wN)}
}

func (g *rig) round(ctx context.Context, d time.Duration, traced bool) serveRound {
	var r serveRound
	r.w1 = g.block(ctx, rigW1, time.Duration(float64(d)*serveW1Share), traced)
	r.wN = g.block(ctx, rigWN, time.Duration(float64(d)*serveWNShare), traced)
	return r
}

// joinBlocks pools two blocks of the same side.
func joinBlocks(a, b *blockSample) blockSample {
	j := blockSample{
		wall:  a.wall + b.wall,
		iters: a.iters + b.iters, sheds: a.sheds + b.sheds,
		jobs: a.jobs + b.jobs, bad: a.bad + b.bad,
		byKind:  make([][]float64, len(a.byKind)),
		refKind: make([][]float64, len(a.byKind)),
	}
	cat := func(x, y []float64) []float64 { return append(append([]float64(nil), x...), y...) }
	j.lat, j.elapsed, j.overhead, j.ref = cat(a.lat, b.lat), cat(a.elapsed, b.elapsed), cat(a.overhead, b.overhead), cat(a.ref, b.ref)
	j.rtt = cat(a.rtt, b.rtt)
	for i := range j.byKind {
		j.byKind[i], j.refKind[i] = cat(a.byKind[i], b.byKind[i]), cat(a.refKind[i], b.refKind[i])
	}
	return j
}

// kindRatio compares two sets of times kind by kind: per tenant kind
// p50(num) / (floor + p50(den)), the kinds combined by a geometric mean
// weighted with their shares of the draw. Medians, because a sum follows
// its few slowest jobs (the 34 us replay of a serve_light job summed to
// anything between 37 and 85 us a job, round by round); per kind with
// fixed weights, because the median job of a multimodal mix is a
// different kind from round to round. A kind with no job on either side
// (possible only in a very short block) is left out.
func kindRatio(kinds []tenantKind, num, den [][]float64, floor float64) float64 {
	var logSum, weights float64
	for i, k := range kinds {
		if len(num[i]) == 0 || len(den[i]) == 0 {
			continue
		}
		logSum += float64(k.weight) * math.Log(median(num[i])/(floor+median(den[i])))
		weights += float64(k.weight)
	}
	if weights == 0 {
		return math.NaN()
	}
	return math.Exp(logSum / weights)
}

// values turns one round into the end-to-end metrics a round has, in
// their serving reading. speedup_vs_seq is the latency on the daemon
// held to width 1 over the latency on the default one: what speculation
// width buys a job, both sides paying the same HTTP path. w1_overhead is
// the latency on the width-1 daemon over the least a served job can
// take: an empty round trip to that daemon plus the in-process replay of
// the job. The round trip is in the denominator because the host slows
// the kernel's network path and plain computing by different factors at
// different times: against the replay alone, serve_light read 10 in a
// quiet hour and 14 to 16 in a busy one, with the same binaries.
func (r *serveRound) values(kinds []tenantKind) map[string]float64 {
	return map[string]float64{
		"speedup_vs_seq": kindRatio(kinds, r.w1.byKind, r.wN.byKind, 0),
		"w1_overhead":    kindRatio(kinds, r.w1.byKind, r.w1.refKind, median(r.w1.rtt)),
	}
}
