// Spicebench regenerates the tables and figures of the paper's
// evaluation (README "Paper figures") and runs the Table 2 benchmarks
// on the simulated machine.
//
// Usage:
//
//	spicebench [-threads N] [-stats] [-scheme balanced|paper] NAME...
//
// Each NAME is one of:
//
//	table1    machine configuration (Table 1)
//	table2    benchmark details and measured loop hotness (Table 2)
//	fig2      TLS execution schedule and speedup model (Figure 2)
//	fig3      TLS + value prediction schedule and 2/(2−p) curve (Figure 3)
//	fig5      Spice chunked schedule (Figure 5)
//	fig7      Spice loop speedups on the simulator, 2 and 4 threads (Figure 7)
//	fig8      value predictability study over both suites (Figure 8)
//	all       everything above in paper order
//	ks, otter, 181.mcf, 458.sjeng
//	          one Table 2 benchmark, sequential and Spice-parallelized
//	          on -threads threads: loop cycles, loop speedup,
//	          mis-speculation rate and result equivalence; -stats adds
//	          the runtime and cache statistics and the per-invocation
//	          work distribution
//
// -scheme picks the load balancer's plan scheme for every Spice run.
// The output is deterministic: testdata/all.golden is `spicebench all`,
// the record of the paper's tables, and TestGolden holds the command
// to it.
//
// The native runtime is measured by `go test -bench` in the root
// package and by bench/ (`bash bench/run.sh`), not here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"spice/internal/harness"
	"spice/internal/model"
	"spice/internal/rt"
	"spice/internal/sim"
	"spice/internal/stats"
	"spice/internal/workloads"
)

const usage = `usage: spicebench [-threads N] [-stats] [-scheme balanced|paper] NAME...

NAME is all, a table or figure (table1 table2 fig2 fig3 fig5 fig7 fig8)
or a Table 2 benchmark (ks otter 181.mcf 458.sjeng).

  -threads N   threads of a benchmark's Spice run (default 4)
  -stats       add a benchmark's runtime statistics and work distribution
  -scheme S    plan scheme of every Spice run: balanced (default) or paper
`

// errUsage marks bad arguments: main prints the usage and exits 2.
var errUsage = errors.New("bad arguments")

func main() {
	err := run(os.Stdout, os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "spicebench: %v\n", err)
	if errors.Is(err, errUsage) {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	os.Exit(1)
}

// figures are the tables and figures in paper order, the order of all.
var figures = []struct {
	name string
	run  func(*session) error
}{
	{"table1", (*session).table1},
	{"table2", (*session).table2},
	{"fig2", (*session).fig2},
	{"fig3", (*session).fig3},
	{"fig5", (*session).fig5},
	{"fig7", (*session).fig7},
	{"fig8", (*session).fig8},
}

// session is one invocation's settings and the sequential runs it has
// simulated so far.
type session struct {
	w         io.Writer
	opts      harness.Options
	threads   int
	showStats bool
	seqs      map[string]*harness.RunResult
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("spicebench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	threads := fs.Int("threads", 4, "")
	showStats := fs.Bool("stats", false, "")
	scheme := fs.String("scheme", "balanced", "")
	// Flags may follow names (spicebench otter -threads 2): parse the
	// flags before each name in turn.
	var names []string
	for {
		if err := fs.Parse(args); err != nil {
			return fmt.Errorf("%w: %v", errUsage, err)
		}
		if fs.NArg() == 0 {
			break
		}
		names = append(names, fs.Arg(0))
		args = fs.Args()[1:]
	}
	if len(names) == 0 {
		return fmt.Errorf("%w: no NAME", errUsage)
	}
	if *threads < 1 {
		return fmt.Errorf("%w: -threads %d, need at least 1", errUsage, *threads)
	}
	s := &session{w: w, opts: harness.DefaultOptions(), threads: *threads,
		showStats: *showStats, seqs: map[string]*harness.RunResult{}}
	switch *scheme {
	case "balanced":
	case "paper":
		s.opts.PlanScheme = rt.PaperIntervals
	default:
		return fmt.Errorf("%w: unknown -scheme %q", errUsage, *scheme)
	}

	// Resolve every name before simulating anything.
	var steps []func(*session) error
	for _, name := range names {
		n := len(steps)
		for _, f := range figures {
			if name == "all" || name == f.name {
				steps = append(steps, f.run)
			}
		}
		if b := workloads.ByName(name); b != nil {
			steps = append(steps, func(s *session) error { return s.report(b) })
		}
		if len(steps) == n {
			return fmt.Errorf("%w: unknown NAME %q", errUsage, name)
		}
	}
	for _, step := range steps {
		if err := step(s); err != nil {
			return err
		}
	}
	return nil
}

// seq returns b's sequential run at its defaults, simulated once per
// session: Table 2, Figure 7 and the benchmark report all read it.
func (s *session) seq(b *workloads.Benchmark) (*harness.RunResult, error) {
	if r, ok := s.seqs[b.Name]; ok {
		return r, nil
	}
	r, err := harness.Run(b, b.Defaults, 1, s.opts)
	if err != nil {
		return nil, err
	}
	s.seqs[b.Name] = r
	return r, nil
}

// speedup compares b's Spice run on `threads` threads with its
// sequential run.
func (s *session) speedup(b *workloads.Benchmark, threads int) (*harness.SpeedupResult, error) {
	seq, err := s.seq(b)
	if err != nil {
		return nil, err
	}
	return harness.Speedup(seq, threads, s.opts)
}

func (s *session) header(title string) { fmt.Fprintf(s.w, "\n=== %s ===\n\n", title) }

func (s *session) table1() error {
	s.header("Table 1: Machine details")
	fmt.Fprintln(s.w, sim.DefaultConfig().String())
	return nil
}

func (s *session) table2() error {
	s.header("Table 2: Benchmark details")
	tbl := &stats.Table{Header: []string{"benchmark", "description", "loop", "hotness", "paper"}}
	for _, b := range workloads.All() {
		seq, err := s.seq(b)
		if err != nil {
			return err
		}
		tbl.Add(b.Name, b.Description, b.LoopName,
			fmt.Sprintf("%.0f%%", seq.Hotness()*100), fmt.Sprintf("%.0f%%", b.Hotness*100))
	}
	fmt.Fprint(s.w, tbl.String())
	return nil
}

// Section 2's model parameters: traversal-dominated loop (t2 <= t3),
// matching the otter discussion.
var modelMachine = model.Machine{T1: 3, T2: 2, T3: 4}

func (s *session) fig2() error {
	s.header("Figure 2: Execution schedule for TLS (2 cores, 8 iterations)")
	segs := model.TLSSchedule(8, modelMachine)
	fmt.Fprint(s.w, model.Render(segs, 2, 1.0))
	fmt.Fprintf(s.w, "\nmakespan %.0f vs sequential %.0f; TLS speedup bound %.2fx\n",
		model.Makespan(segs), modelMachine.SequentialTime(8), modelMachine.TLSSpeedup())
	fmt.Fprintln(s.w, "(t2 <= t3: the forwarding chain is on the critical path; speedup < 2)")
	workDominated := model.Machine{T1: 3, T2: 12, T3: 4}
	fmt.Fprintf(s.w, "work-dominated variant (t2 > t1+2*t3): speedup bound %.2fx\n",
		workDominated.TLSSpeedup())
	return nil
}

func (s *session) fig3() error {
	s.header("Figure 3: Execution schedule for TLS with value prediction")
	segs := model.TLSVPSchedule(8, []int{3}, modelMachine)
	fmt.Fprint(s.w, model.Render(segs, 2, 1.0))
	fmt.Fprintf(s.w, "\nmakespan %.0f (iteration 4 mis-predicted and re-executed)\n", model.Makespan(segs))
	fmt.Fprintln(s.w, "\nexpected speedup 2/(2-p):")
	tbl := &stats.Table{Header: []string{"p", "speedup"}}
	for _, p := range []float64{0.5, 0.75, 0.9, 0.95, 0.99, 1.0} {
		tbl.Add(fmt.Sprintf("%.2f", p), fmt.Sprintf("%.2fx", model.TLSVPSpeedup(p)))
	}
	fmt.Fprint(s.w, tbl.String())
	return nil
}

func (s *session) fig5() error {
	s.header("Figure 5: Execution schedule for Spice (2 cores, 8 iterations)")
	segs := model.SpiceSchedule(8, 2, modelMachine)
	fmt.Fprint(s.w, model.Render(segs, 2, 1.0))
	fmt.Fprintf(s.w, "\nmakespan %.0f: chunked execution with one prediction; no per-iteration forwarding\n",
		model.Makespan(segs))
	fmt.Fprintln(s.w, "\nexpected Spice speedup (chunk model), by threads and p:")
	tbl := &stats.Table{Header: []string{"p", "2 threads", "4 threads", "8 threads"}}
	for _, p := range []float64{0.5, 0.75, 0.9, 0.95, 0.99} {
		tbl.Add(fmt.Sprintf("%.2f", p),
			fmt.Sprintf("%.2fx", model.SpiceSpeedup(p, 2)),
			fmt.Sprintf("%.2fx", model.SpiceSpeedup(p, 4)),
			fmt.Sprintf("%.2fx", model.SpiceSpeedup(p, 8)))
	}
	fmt.Fprint(s.w, tbl.String())
	return nil
}

func (s *session) fig7() error {
	s.header("Figure 7: Spice loop speedups (cycle-level simulation)")
	tbl := &stats.Table{Header: []string{
		"benchmark", "2 threads", "4 threads", "misspec@4", "paper@2", "paper@4", "results"}}
	var s2, s4 []float64
	for _, b := range workloads.All() {
		r2, err := s.speedup(b, 2)
		if err != nil {
			return err
		}
		r4, err := s.speedup(b, 4)
		if err != nil {
			return err
		}
		ok := "ok"
		if !r2.ChecksumOK || !r4.ChecksumOK {
			ok = "MISMATCH"
		}
		s2 = append(s2, r2.LoopSpeedup)
		s4 = append(s4, r4.LoopSpeedup)
		tbl.Add(b.Name,
			fmt.Sprintf("%.2fx", r2.LoopSpeedup),
			fmt.Sprintf("%.2fx", r4.LoopSpeedup),
			fmt.Sprintf("%.0f%%", r4.MisspecRate*100),
			fmt.Sprintf("%.2fx", b.PaperSpeedup2),
			fmt.Sprintf("%.2fx", b.PaperSpeedup4),
			ok)
	}
	tbl.Add("GeoMean",
		fmt.Sprintf("%.2fx", stats.GeoMean(s2)),
		fmt.Sprintf("%.2fx", stats.GeoMean(s4)),
		"", "~1.55x", "2.01x", "")
	fmt.Fprint(s.w, tbl.String())
	fmt.Fprintln(s.w, "\n(paper columns approximate Figure 7's bars; the paper reports up to")
	fmt.Fprintln(s.w, " 157% speedup — 2.57x — on ks and 101% — 2.01x — geomean at 4 threads)")
	return nil
}

func (s *session) fig8() error {
	s.header("Figure 8(a): value predictability, SPEC integer")
	if err := s.fig8suite(workloads.Fig8a()); err != nil {
		return err
	}
	s.header("Figure 8(b): value predictability, Mediabench and others")
	return s.fig8suite(workloads.Fig8b())
}

func (s *session) fig8suite(benches []workloads.SuiteBench) error {
	tbl := &stats.Table{Header: []string{"benchmark", "loops", "low", "average", "good", "high"}}
	for _, bench := range benches {
		reports, err := harness.ProfileSuite(bench, 200, 30, 1234, s.opts)
		if err != nil {
			return err
		}
		bins := stats.PredictabilityBins()
		var pcts []float64
		for _, r := range reports {
			pcts = append(pcts, r.PredictablePct)
		}
		stats.Classify(bins, pcts)
		n := len(reports)
		pct := func(c int) string {
			return fmt.Sprintf("%.0f%%", 100*float64(c)/float64(max(n, 1)))
		}
		tbl.Add(bench.Name, n, pct(bins[0].Count), pct(bins[1].Count),
			pct(bins[2].Count), pct(bins[3].Count))
	}
	fmt.Fprint(s.w, tbl.String())
	return nil
}

// report runs one Table 2 benchmark at its defaults, sequentially and
// on s.threads threads, and prints the paper's metrics for it.
func (s *session) report(b *workloads.Benchmark) error {
	sr, err := s.speedup(b, s.threads)
	if err != nil {
		return err
	}
	p := b.Defaults
	fmt.Fprintf(s.w, "%s (%s), %d invocations of ~%d elements\n",
		b.Name, b.LoopName, p.Invocations, p.Size)
	fmt.Fprintf(s.w, "  sequential loop cycles: %d\n", sr.Seq.LoopCycles)
	fmt.Fprintf(s.w, "  spice %d-thread cycles: %d\n", s.threads, sr.Par.LoopCycles)
	fmt.Fprintf(s.w, "  loop speedup:           %s (paper: %.2fx @2t, %.2fx @4t)\n",
		stats.Speedup(sr.LoopSpeedup), b.PaperSpeedup2, b.PaperSpeedup4)
	fmt.Fprintf(s.w, "  misspec invocations:    %.0f%%\n", sr.MisspecRate*100)
	fmt.Fprintf(s.w, "  results match:          %v\n", sr.ChecksumOK)
	if !s.showStats {
		return nil
	}
	m := sr.Par.Machine
	fmt.Fprintf(s.w, "\nruntime stats: %+v\n", m.Stats)
	cs := m.Hier.Stats()
	fmt.Fprintf(s.w, "cache: loads=%d stores=%d L1miss=%d L2miss=%d mem=%d xfers=%d avg=%.2f cyc\n",
		cs.Loads, cs.Stores, cs.L1Misses, cs.L2Misses, cs.MemAccesses,
		cs.CacheToCacheXfers, cs.AvgLatency)
	fmt.Fprintln(s.w, "\nper-invocation work distribution:")
	for i, w := range m.WorkHistory {
		fmt.Fprintf(s.w, "  inv %3d: %v (imbalance %.2f)\n", i, w, stats.Imbalance(w))
	}
	return nil
}
