package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose; must not be reordered
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile(xs, 0.9); !near(got, 4.6) {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := percentile(xs, 1); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := iqr(xs); !near(got, 2) {
		t.Errorf("iqr = %v, want 2", got)
	}
	if got := spread(xs); !near(got, 2.0/3) {
		t.Errorf("spread = %v, want 2/3", got)
	}
	if got := median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing must be NaN, so a missing series cannot read as a fast one")
	}
	if spread([]float64{0, 0, 0}) != 0 || iqr([]float64{7}) != 0 {
		t.Errorf("degenerate spreads must be 0")
	}
}

func TestFit2(t *testing.T) {
	// 12 us fixed plus 2.5 ns per iteration.
	cost := func(n float64) float64 { return 12000 + 2.5*n }
	fixed, slope := fit2(fitSmall, cost(fitSmall), fitLarge, cost(fitLarge))
	if !near(fixed, 12000) || !near(slope, 2.5) {
		t.Errorf("fit2 = %v + %v n, want 12000 + 2.5 n", fixed, slope)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "call", Start: 10, End: 90, Parent: 0},
		{Name: "part", Start: 20, End: 50, Parent: 1},
		{Name: "part", Start: 40, End: 70, Parent: 1},  // overlaps the first part
		{Name: "part", Start: 85, End: 120, Parent: 1}, // runs past its parent
	}
	self := selfTimes(spans)
	if got := self["op"]; !reflect.DeepEqual(got, []float64{20}) {
		t.Errorf("op self = %v, want [20]", got)
	}
	// Children cover [20,70] and [85,90] of [10,90]: 55 of 80.
	if got := self["call"]; !reflect.DeepEqual(got, []float64{25}) {
		t.Errorf("call self = %v, want [25]", got)
	}
	if got := self["part"]; !reflect.DeepEqual(got, []float64{30, 30, 35}) {
		t.Errorf("part self = %v, want [30 30 35]", got)
	}
}

func TestRecorderChildAndAppend(t *testing.T) {
	var none *recorder
	none.end(none.begin(0, "x", -1)) // a nil recorder records nothing and must not panic
	none.child(0, "y", 0, 5)

	r := newRecorder(4)
	p := r.begin(7, "http.run", -1)
	r.end(p)
	r.spans[p].Start, r.spans[p].End = 1000, 5000
	r.child(7, "server.elapsed", p, 3000)
	c := r.spans[1]
	if c.Start != 2000 || c.End != 5000 || c.Parent != p || c.Op != 7 {
		t.Errorf("child span = %+v, want right-aligned [2000,5000] under %d", c, p)
	}
	if got := selfTimes(r.spans)["http.run"][0]; got != 1000 {
		t.Errorf("round-trip self time = %v, want 1000", got)
	}
	all := appendSpans([]span{{Name: "first", Parent: -1}}, r.spans, 3)
	if all[2].Parent != 1 || all[2].Lane != 3 || all[1].Parent != -1 {
		t.Errorf("appendSpans did not re-base parents: %+v", all)
	}
}

const metricsPage = `# HELP spiced_jobs_admitted_total jobs accepted into the admission queue
# TYPE spiced_jobs_admitted_total counter
spiced_jobs_admitted_total 41
spiced_jobs_rejected_total{reason="queue_full"} 2
spiced_jobs_rejected_total{reason="tenant_cap"} 1
spiced_tenant_budget{tenant="good-0"} 2
spiced_tenant_budget{tenant="good-1"} 1
spiced_tenant_budget{tenant="bad-0"} 1
spiced_tenant_score{tenant="good-0"} 0.9312
spiced_job_duration_seconds_bucket{le="0.001"} 12
`

func TestParseProm(t *testing.T) {
	p, err := parseProm(metricsPage)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("spiced_jobs_admitted_total"); got != 41 {
		t.Errorf("admitted = %v, want 41", got)
	}
	if got := p.sum("spiced_jobs_rejected_total"); got != 3 {
		t.Errorf("rejected over reasons = %v, want 3", got)
	}
	if got := p.sum("spiced_jobs"); got != 0 {
		t.Errorf("a name prefix must not match longer names, got %v", got)
	}
	if sum, n := p.tenantPrefix("spiced_tenant_budget", "good-"); sum != 3 || n != 2 {
		t.Errorf("good budgets = %v over %d tenants, want 3 over 2", sum, n)
	}
	if got := p[`spiced_tenant_score{tenant="good-0"}`]; got != 0.9312 {
		t.Errorf("score = %v, want 0.9312", got)
	}
	if _, err := parseProm("spiced_broken"); err == nil {
		t.Errorf("a line without a value must be an error")
	}
	if _, err := parseProm("spiced_broken x"); err == nil {
		t.Errorf("a non-numeric value must be an error")
	}
}

func TestParseVmHWM(t *testing.T) {
	got, err := parseVmHWM("Name:\tspiced\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n")
	if err != nil || got != 20 {
		t.Errorf("VmHWM = %v, %v; want 20 MB", got, err)
	}
	if _, err := parseVmHWM("Name:\tspiced\n"); err == nil {
		t.Errorf("a status without VmHWM must be an error")
	}
}

func TestJobSequenceIsSeedDriven(t *testing.T) {
	draw := func(seed int64, client int) []int {
		g := newJobGen(seed, client, serveMixed.kinds)
		out := make([]int, 600)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	a := draw(5, 0)
	if !reflect.DeepEqual(a, draw(5, 0)) {
		t.Errorf("the same seed and client drew two different job sequences")
	}
	if reflect.DeepEqual(a, draw(5, 1)) || reflect.DeepEqual(a, draw(6, 0)) {
		t.Errorf("another client or seed drew the same job sequence")
	}
	counts := make([]int, len(serveMixed.kinds))
	for _, k := range a {
		counts[k]++
	}
	// Weights 3:1:1:1 — half the jobs go to the first kind.
	if counts[0] < 250 || counts[0] > 350 {
		t.Errorf("kind shares %v do not follow the 3:1:1:1 weights", counts)
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("kind %d never drawn", i)
		}
	}
	if instanceSeed(0, 0) == 0 || instanceSeed(-1, 15) == 0 {
		t.Errorf("an instance seed of 0 would make spiced substitute its default")
	}
}

func TestReplayerMatchesKernelSemantics(t *testing.T) {
	// Two replayers built alike stay in step, job after job, for a DOALL
	// and for a cell-store kernel.
	for _, k := range []tenantKind{
		{"t", "sumlist", 8, 500, 3, 1},
		{"t", "accum", 8, 500, 3, 1},
	} {
		a, err := newReplayer(k, 9)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newReplayer(k, 9)
		if err != nil {
			t.Fatal(err)
		}
		var last int64
		for i := 0; i < 4; i++ {
			x, errA := a.job()
			y, errB := b.job()
			if errA != nil || errB != nil || x != y {
				t.Fatalf("%s job %d: %d (%v) against %d (%v)", k.kernel, i, x, errA, y, errB)
			}
			if i > 0 && x == last {
				t.Errorf("%s: churn 8 left the result unchanged", k.kernel)
			}
			last = x
		}
		a.close()
		b.close()
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json at the repository root
// equal to the tables the program prints from.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) || len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d",
			len(file.Workloads), len(file.EndToEnd), len(file.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %q, program has %q", i, file.Workloads[i].Name, w.Name)
		}
	}
	for i, d := range endToEnd {
		f := file.EndToEnd[i]
		if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better || f.Bound != d.Bound {
			t.Errorf("end-to-end %d: file has %+v, program has %+v", i, f, d)
		}
	}
	for i, d := range perLayer {
		f := file.PerLayer[i]
		if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
			t.Errorf("per-layer %d: file has %+v, program has %+v", i, f, d)
		}
	}
}

func TestMetricTablesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better=%q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) > 8 {
		t.Errorf("more metrics or workloads than the contract allows")
	}
}

// TestLibraryWorkloadsSmoke runs each library workload for a tenth of a
// second: every per-round end-to-end metric comes out once and finite,
// and every op verifies against the other two series.
func TestLibraryWorkloadsSmoke(t *testing.T) {
	perRound := []string{"speedup_vs_seq", "w1_overhead"}
	for _, name := range []string{"doall_hot", "doall_scattered", "doall_churn", "doacross_cells"} {
		tr, err := trioBuilder(name, 3)()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tr.warm(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		values, _ := summarize(measureTrio(tr, 0.1, 2))
		if len(values) != len(perRound) {
			t.Errorf("%s: %d metrics per round, want %d", name, len(values), len(perRound))
		}
		for _, m := range perRound {
			if v, ok := values[m]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v (present %v)", name, m, v, ok)
			}
		}
		attempted, failed, err := tr.verify()
		if err != nil || failed != 0 || attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, %v", name, attempted, failed, err)
		}
	}
}

// TestTimedRunEmitsEveryMetricOnce drives the whole untraced path of
// one workload, set-up repeats and peak RSS included.
func TestTimedRunEmitsEveryMetricOnce(t *testing.T) {
	o, err := timedRun(context.Background(), config{workload: "doall_hot", seed: 1, seconds: 0.1, rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 || o.attempted == 0 {
		t.Errorf("attempted %d, failed %d", o.attempted, o.failed)
	}
	if len(o.values) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(o.values), len(endToEnd))
	}
	for _, d := range endToEnd {
		if v, ok := o.values[d.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v (present %v)", d.Name, v, ok)
		}
	}
}

// TestVerifyCatchesAWrongResult makes one series lie once.
func TestVerifyCatchesAWrongResult(t *testing.T) {
	tr, err := buildStable(1, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	honest := tr.s[sWN].op
	calls := 0
	tr.s[sWN].op = func() (int64, error) {
		acc, err := honest()
		if calls++; calls == 3 {
			acc++
		}
		return acc, err
	}
	if err := tr.warm(); err != nil {
		t.Fatal(err)
	}
	if _, failed, _ := tr.verify(); failed != 1 {
		t.Errorf("failed = %d, want exactly the one wrong op", failed)
	}
}

// TestKindRatio checks the weighted geometric mean over tenant kinds,
// the floor added to every denominator, and that a kind without jobs on
// one side is left out.
func TestKindRatio(t *testing.T) {
	kinds := []tenantKind{{weight: 2}, {weight: 1}, {weight: 1}}
	num := [][]float64{{400, 400, 1e6}, {800}, nil}
	den := [][]float64{{100}, {100}, {100}}
	if got, want := kindRatio(kinds, num, den, 0), math.Cbrt(4*4*8); !near(got, want) {
		t.Errorf("kindRatio = %v, want %v", got, want)
	}
	if got, want := kindRatio(kinds, num, den, 100), math.Cbrt(2*2*4); !near(got, want) {
		t.Errorf("kindRatio with floor = %v, want %v", got, want)
	}
	if got := kindRatio(kinds, [][]float64{nil, nil, nil}, den, 0); !math.IsNaN(got) {
		t.Errorf("kindRatio of no jobs = %v, want NaN", got)
	}
}

// TestMoreSetups: at least setupRepeats set-ups, more while they are
// short, never more than setupRepeatsMax.
func TestMoreSetups(t *testing.T) {
	count := func(each float64) int {
		var times []float64
		for moreSetups(times) {
			times = append(times, each)
		}
		return len(times)
	}
	if n := count(2); n != setupRepeats {
		t.Errorf("2 s set-ups: %d repeats, want %d", n, setupRepeats)
	}
	if n := count(0.25); n != 4 {
		t.Errorf("0.25 s set-ups: %d repeats, want 4", n)
	}
	if n := count(0.001); n != setupRepeatsMax {
		t.Errorf("1 ms set-ups: %d repeats, want %d", n, setupRepeatsMax)
	}
}
