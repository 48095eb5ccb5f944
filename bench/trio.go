package main

import (
	"fmt"
	"runtime"
	"time"

	"spice"
)

// The library and circuit workloads run three series on three
// identically seeded copies of one structure, so op k of every series
// sees the same input and must return the same accumulator:
//
//	ref  the plain Go loop (or plain array, or RunSequential): no runtime
//	w1   the workload's front door at width 1
//	wN   the same front door at width W
const (
	sRef = iota
	sW1
	sWN
	nSeries
)

var seriesNames = [nSeries]string{"ref", "w1", "wN"}

// series is one of the three. op is timed; churn, the mutation that
// makes the next op's input, is not.
type series struct {
	layer string // span name of the call into the layer under test
	op    func() (int64, error)
	churn func()
	stats func() spice.Stats // cumulative runtime counters; nil for ref

	accs []int64 // accumulator of every op, for the cross-series check
	errs int64
}

// trio is a built and warmed workload. finish checks whatever state
// outlives the ops (cell contents) and releases runners and pools.
type trio struct {
	s      [nSeries]*series
	finish func() error
	// opWall is the calibrated wall time of one op plus its churn,
	// summed over the three series; it sizes a round.
	opWall time.Duration
}

// warmOps primes the predictor, fills caches and lets the adaptive
// controller settle before anything is timed. It is a count, not a
// duration, so set-up time measures work and not a constant sleep.
const warmOps = 16

// warm runs the warm-up and calibrates opWall on its second half.
func (t *trio) warm() error {
	t.opWall = 0
	for _, s := range t.s {
		var tail time.Time
		for i := 0; i < warmOps; i++ {
			if i == warmOps/2 {
				tail = time.Now()
			}
			if _, err := s.timed(nil, -1); err != nil {
				return err
			}
		}
		t.opWall += time.Since(tail) / (warmOps - warmOps/2)
	}
	return nil
}

// timed runs and records a single op: a root span for the harness, a
// child span for the call into the layer, then the untimed churn.
func (s *series) timed(rec *recorder, op int) (time.Duration, error) {
	root := rec.begin(op, "op", -1)
	t0 := time.Now()
	call := rec.begin(op, s.layer, root)
	acc, err := s.op()
	rec.end(call)
	dt := time.Since(t0)
	rec.end(root)
	if err != nil {
		s.errs++
	}
	s.accs = append(s.accs, acc)
	ch := rec.begin(op, "churn", -1)
	s.churn()
	rec.end(ch)
	return dt, err
}

// roundSample is what one round measured: n ops of each series.
type roundSample struct {
	lat        [nSeries][]float64 // ns, timed ops only
	itersPerOp [nSeries]float64   // committed iterations per op, whole block; 0 for ref
	mallocs    [nSeries]uint64    // heap objects allocated in the block, churn included
	// imbalance samples Stats.Imbalance of the wN series every
	// imbalanceEvery ops; only a traced round pays for the snapshots.
	imbalance []float64
}

const imbalanceEvery = 16

// A round is a block of n ops of each series, [ref | w1 | wN], the
// block order rotating per round. Rounds are short (roundsPerSecond of
// them in a second of run), because the host is not steady: on a shared
// VM a neighbour on the processor's other hardware thread slows
// single-threaded code by up to 1.85x and two-threaded code by about
// 1.55x (a circuit ref op takes 4.2 or 7.7 ms), for anything between
// 10 ms and minutes at a time. An absolute time therefore says which of
// the two states the host was in; only a ratio of series measured within
// the same few tens of milliseconds says something about the code. So
// every round yields its own ratios, and a run reports the median over
// its hundreds of rounds. (Blocks of 0.2 s, twenty to a run, measured
// 10 % run-to-run spread on speedup_vs_seq@doall_hot; 60 ms rounds 4 %.)
//
// Two things are not counted. The first warmShare of the run: for its
// first second or two a process runs width-2 ops at nearly twice their
// steady time (585 us against 330 us per doall_hot op). And the first
// tenth of a block's ops, when it has ten: the worker sleeps during the
// single-threaded blocks and the first wN ops pay for waking it.
const (
	roundsPerSecond = 16
	warmShare       = 0.1
	blockHead       = 10 // the first 1/blockHead of a block's ops is not timed
	minBlockOps     = 2
)

// round runs round r: n ops of each series. All series run the same
// number of ops, so every op, counted or not, is checked against the
// other two.
func (t *trio) round(r, n int, rec *recorder) roundSample {
	var rs roundSample
	head := n / blockHead
	for k := 0; k < nSeries; k++ {
		i := (r + k) % nSeries
		s := t.s[i]
		rs.lat[i] = make([]float64, 0, n-head)
		it0 := s.iters()
		m0 := mallocs()
		base := len(s.accs)
		for j := 0; j < n; j++ {
			dt, _ := s.timed(rec, base+j)
			if j >= head {
				rs.lat[i] = append(rs.lat[i], float64(dt))
			}
			if rec != nil && i == sWN && j%imbalanceEvery == 0 {
				rs.imbalance = append(rs.imbalance, s.stats().Imbalance())
			}
		}
		rs.mallocs[i] = mallocs() - m0
		rs.itersPerOp[i] = float64(s.iters()-it0) / float64(n)
	}
	return rs
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// iters is the series' committed iterations so far. The ref series
// counts none: every series commits the same ones, and the runtime's
// Stats count them.
func (s *series) iters() int64 {
	if s.stats == nil {
		return 0
	}
	return s.stats().TotalIters
}

// opsPerRound sizes a round to the given wall time; warm has set opWall.
func (t *trio) opsPerRound(d time.Duration) int {
	return max(minBlockOps, int(d/t.opWall))
}

// values turns one round into the end-to-end metrics a round has
// (setup_s and peak_rss_mb are per run).
func (rs *roundSample) values() map[string]float64 {
	ref50 := median(rs.lat[sRef])
	return map[string]float64{
		"speedup_vs_seq": ratio(ref50, median(rs.lat[sWN])),
		"w1_overhead":    ratio(median(rs.lat[sW1]), ref50),
	}
}

// verify compares every op's accumulator across the three series,
// index by index, and adds the ops that returned an error. All series
// run the same number of ops, so no op goes unchecked.
func (t *trio) verify() (attempted, failed int64, err error) {
	ref := t.s[sRef].accs
	for i, s := range t.s {
		attempted += int64(len(s.accs))
		failed += s.errs
		if len(s.accs) != len(ref) {
			return attempted, failed + 1, fmt.Errorf("series %s ran %d ops, ref ran %d", seriesNames[i], len(s.accs), len(ref))
		}
		if i == sRef {
			continue
		}
		for k := range ref {
			if s.accs[k] != ref[k] {
				failed++
			}
		}
	}
	if ferr := t.finish(); ferr != nil {
		return attempted, failed + 1, ferr
	}
	return attempted, failed, nil
}

// A run sets the workload up several times and reports the median as
// setup_s; the last copy is the one measured. At least setupRepeats
// times, and while the set-ups so far took less than setupBudget up to
// setupRepeatsMax times: a 20 ms set-up needs more repeats than a 0.5 s
// one to give a median that repeats.
const (
	setupRepeats    = 3
	setupRepeatsMax = 9
	setupBudget     = time.Second
)

// moreSetups says whether to set up once more after the given times.
func moreSetups(times []float64) bool {
	return len(times) < setupRepeats ||
		(len(times) < setupRepeatsMax && sum(times) < setupBudget.Seconds())
}

// setupTrio builds and warms the workload, repeatedly.
func setupTrio(build func() (*trio, error)) (*trio, float64, error) {
	var times []float64
	var t *trio
	for moreSetups(times) {
		if t != nil {
			if err := t.finish(); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC() // the previous copy is garbage; do not bill it to this one
		t0 := time.Now()
		var err error
		if t, err = build(); err != nil {
			return nil, 0, err
		}
		if err = t.warm(); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return t, median(times), nil
}

// measureTrio is the untraced run: rounds sized so that `rounds` of
// them fill the given time, run until the time is up, the end-to-end
// metrics of every round that started after the warm-in share.
func measureTrio(t *trio, seconds float64, rounds int) []map[string]float64 {
	total := time.Duration(seconds * float64(time.Second))
	n := t.opsPerRound(total / time.Duration(rounds))
	var out []map[string]float64
	t0 := time.Now()
	for r := 0; len(out) == 0 || time.Since(t0) < total; r++ {
		counted := time.Since(t0) >= time.Duration(warmShare*float64(total))
		rs := t.round(r, n, nil)
		if counted {
			out = append(out, rs.values())
		}
	}
	return out
}
