// Spicebench regenerates every table and figure of the paper's
// evaluation (README "Paper figures"):
//
//	-table1   machine configuration (Table 1)
//	-table2   benchmark details and measured loop hotness (Table 2)
//	-fig2     TLS execution schedule and speedup model (Figure 2)
//	-fig3     TLS + value prediction schedule and 2/(2−p) curve (Figure 3)
//	-fig5     Spice chunked schedule (Figure 5)
//	-fig7     Spice loop speedups on the simulator, 2 and 4 threads (Figure 7)
//	-fig8     value predictability study over both suites (Figure 8)
//	-all      everything above in paper order
//
// The native runtime is measured by `go test -bench` in the root
// package and by bench/ (`bash bench/run.sh`), not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"spice/internal/harness"
	"spice/internal/model"
	"spice/internal/sim"
	"spice/internal/stats"
	"spice/internal/workloads"
)

func main() {
	all := flag.Bool("all", false, "regenerate everything")
	t1 := flag.Bool("table1", false, "Table 1: machine details")
	t2 := flag.Bool("table2", false, "Table 2: benchmark details")
	f2 := flag.Bool("fig2", false, "Figure 2: TLS schedule")
	f3 := flag.Bool("fig3", false, "Figure 3: TLS+VP schedule")
	f5 := flag.Bool("fig5", false, "Figure 5: Spice schedule")
	f7 := flag.Bool("fig7", false, "Figure 7: Spice speedups")
	f8 := flag.Bool("fig8", false, "Figure 8: value predictability")
	flag.Parse()

	any := *t1 || *t2 || *f2 || *f3 || *f5 || *f7 || *f8
	if !any && !*all {
		flag.Usage()
		os.Exit(2)
	}
	if *all || *t1 {
		table1()
	}
	if *all || *t2 {
		table2()
	}
	if *all || *f2 {
		fig2()
	}
	if *all || *f3 {
		fig3()
	}
	if *all || *f5 {
		fig5()
	}
	if *all || *f7 {
		fig7()
	}
	if *all || *f8 {
		fig8()
	}
}

func header(s string) { fmt.Printf("\n=== %s ===\n\n", s) }

func table1() {
	header("Table 1: Machine details")
	fmt.Println(sim.DefaultConfig().String())
}

func table2() {
	header("Table 2: Benchmark details")
	tbl := &stats.Table{Header: []string{"benchmark", "description", "loop", "hotness", "paper"}}
	for _, b := range workloads.All() {
		h, err := harness.Hotness(b, b.Defaults, harness.DefaultOptions())
		if err != nil {
			fatal(err)
		}
		tbl.Add(b.Name, b.Description, b.LoopName,
			fmt.Sprintf("%.0f%%", h*100), fmt.Sprintf("%.0f%%", b.Hotness*100))
	}
	fmt.Print(tbl.String())
}

// Section 2's model parameters: traversal-dominated loop (t2 <= t3),
// matching the otter discussion.
var modelMachine = model.Machine{T1: 3, T2: 2, T3: 4}

func fig2() {
	header("Figure 2: Execution schedule for TLS (2 cores, 8 iterations)")
	segs := model.TLSSchedule(8, modelMachine)
	fmt.Print(model.Render(segs, 2, 1.0))
	fmt.Printf("\nmakespan %.0f vs sequential %.0f; TLS speedup bound %.2fx\n",
		model.Makespan(segs), modelMachine.SequentialTime(8), modelMachine.TLSSpeedup())
	fmt.Println("(t2 <= t3: the forwarding chain is on the critical path; speedup < 2)")
	workDominated := model.Machine{T1: 3, T2: 12, T3: 4}
	fmt.Printf("work-dominated variant (t2 > t1+2*t3): speedup bound %.2fx\n",
		workDominated.TLSSpeedup())
}

func fig3() {
	header("Figure 3: Execution schedule for TLS with value prediction")
	segs := model.TLSVPSchedule(8, []int{3}, modelMachine)
	fmt.Print(model.Render(segs, 2, 1.0))
	fmt.Printf("\nmakespan %.0f (iteration 4 mis-predicted and re-executed)\n", model.Makespan(segs))
	fmt.Println("\nexpected speedup 2/(2-p):")
	tbl := &stats.Table{Header: []string{"p", "speedup"}}
	for _, p := range []float64{0.5, 0.75, 0.9, 0.95, 0.99, 1.0} {
		tbl.Add(fmt.Sprintf("%.2f", p), fmt.Sprintf("%.2fx", model.TLSVPSpeedup(p)))
	}
	fmt.Print(tbl.String())
}

func fig5() {
	header("Figure 5: Execution schedule for Spice (2 cores, 8 iterations)")
	segs := model.SpiceSchedule(8, 2, modelMachine)
	fmt.Print(model.Render(segs, 2, 1.0))
	fmt.Printf("\nmakespan %.0f: chunked execution with one prediction; no per-iteration forwarding\n",
		model.Makespan(segs))
	fmt.Println("\nexpected Spice speedup (chunk model), by threads and p:")
	tbl := &stats.Table{Header: []string{"p", "2 threads", "4 threads", "8 threads"}}
	for _, p := range []float64{0.5, 0.75, 0.9, 0.95, 0.99} {
		tbl.Add(fmt.Sprintf("%.2f", p),
			fmt.Sprintf("%.2fx", model.SpiceSpeedup(p, 2)),
			fmt.Sprintf("%.2fx", model.SpiceSpeedup(p, 4)),
			fmt.Sprintf("%.2fx", model.SpiceSpeedup(p, 8)))
	}
	fmt.Print(tbl.String())
}

func fig7() {
	header("Figure 7: Spice loop speedups (cycle-level simulation)")
	tbl := &stats.Table{Header: []string{
		"benchmark", "2 threads", "4 threads", "misspec@4", "paper@2", "paper@4", "results"}}
	var s2, s4 []float64
	for _, b := range workloads.All() {
		r2, err := harness.Speedup(b, b.Defaults, 2, harness.DefaultOptions())
		if err != nil {
			fatal(err)
		}
		r4, err := harness.Speedup(b, b.Defaults, 4, harness.DefaultOptions())
		if err != nil {
			fatal(err)
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
	fmt.Print(tbl.String())
	fmt.Println("\n(paper columns approximate Figure 7's bars; the paper reports up to")
	fmt.Println(" 157% speedup — 2.57x — on ks and 101% — 2.01x — geomean at 4 threads)")
}

func fig8() {
	header("Figure 8(a): value predictability, SPEC integer")
	fig8suite(workloads.Fig8a())
	header("Figure 8(b): value predictability, Mediabench and others")
	fig8suite(workloads.Fig8b())
}

func fig8suite(benches []workloads.SuiteBench) {
	tbl := &stats.Table{Header: []string{"benchmark", "loops", "low", "average", "good", "high"}}
	for _, bench := range benches {
		reports, err := harness.ProfileSuite(bench, 200, 30, 1234, harness.DefaultOptions())
		if err != nil {
			fatal(err)
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
	fmt.Print(tbl.String())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spicebench: %v\n", err)
	os.Exit(1)
}
