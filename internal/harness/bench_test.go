package harness

// The benchmarks in this file regenerate every table and figure of the
// paper's evaluation (README "Paper figures") plus the ablations of the
// simulator-side design choices. Reported metrics carry the paper's
// quantities: speedup_x (loop speedup over single-threaded),
// misspec_pct (mis-speculated invocations), hotness_pct (Table 2),
// imbalance (max/mean chunk work).
//
// Run: go test -bench=. ./internal/harness
// For the exact paper-style tables: go run ./cmd/spicebench all

import (
	"testing"

	"spice/internal/model"
	"spice/internal/rt"
	"spice/internal/sim"
	"spice/internal/stats"
	"spice/internal/workloads"
)

// benchParams shrinks a workload so one measurement fits a benchmark
// iteration (the cmd/spicebench harness uses the full defaults).
func benchParams(b *workloads.Benchmark) workloads.Params {
	p := b.Defaults
	p.Invocations /= 2
	if p.Invocations < 8 {
		p.Invocations = 8
	}
	p.Size /= 2
	if p.Size < 64 {
		p.Size = 64
	}
	p.FillerIters /= 2
	return p
}

// speedup simulates w at benchParams sequentially, then with `threads`
// threads, and compares the two.
func speedup(b *testing.B, w *workloads.Benchmark, threads int, opts Options) *SpeedupResult {
	seq, err := Run(w, benchParams(w), 1, opts)
	if err != nil {
		b.Fatal(err)
	}
	sr, err := Speedup(seq, threads, opts)
	if err != nil {
		b.Fatal(err)
	}
	return sr
}

// BenchmarkTable1MachineConfig builds the Table 1 machine model.
func BenchmarkTable1MachineConfig(b *testing.B) {
	cfg := sim.DefaultConfig()
	for i := 0; i < b.N; i++ {
		h, err := sim.NewHierarchy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Touch it so the construction isn't dead code.
		h.Access(0, int64(i), false)
	}
	b.ReportMetric(float64(cfg.MemLat), "memlat_cycles")
	b.ReportMetric(float64(cfg.Cores), "cores")
}

// BenchmarkTable2LoopHotness measures each benchmark's loop hotness.
func BenchmarkTable2LoopHotness(b *testing.B) {
	for _, w := range workloads.All() {
		b.Run(w.Name, func(b *testing.B) {
			var h float64
			for i := 0; i < b.N; i++ {
				seq, err := Run(w, benchParams(w), 1, DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				h = seq.Hotness()
			}
			b.ReportMetric(h*100, "hotness_pct")
			b.ReportMetric(w.Hotness*100, "paper_pct")
		})
	}
}

// BenchmarkFig2TLSSchedule evaluates the Section 2 TLS model.
func BenchmarkFig2TLSSchedule(b *testing.B) {
	m := model.Machine{T1: 3, T2: 2, T3: 4}
	var span float64
	for i := 0; i < b.N; i++ {
		span = model.Makespan(model.TLSSchedule(64, m))
	}
	b.ReportMetric(m.SequentialTime(64)/span, "speedup_x")
	b.ReportMetric(m.TLSSpeedup(), "bound_x")
}

// BenchmarkFig3TLSVPSchedule evaluates TLS with value prediction.
func BenchmarkFig3TLSVPSchedule(b *testing.B) {
	m := model.Machine{T1: 3, T2: 2, T3: 4}
	var span float64
	for i := 0; i < b.N; i++ {
		span = model.Makespan(model.TLSVPSchedule(64, []int{10, 30}, m))
	}
	b.ReportMetric(m.SequentialTime(64)/span, "speedup_x")
	b.ReportMetric(model.TLSVPSpeedup(0.9), "model_p90_x")
}

// BenchmarkFig5SpiceSchedule evaluates the chunked Spice model.
func BenchmarkFig5SpiceSchedule(b *testing.B) {
	m := model.Machine{T1: 3, T2: 2, T3: 4}
	var span float64
	for i := 0; i < b.N; i++ {
		span = model.Makespan(model.SpiceSchedule(64, 2, m))
	}
	b.ReportMetric(m.SequentialTime(64)/span, "speedup_x")
	b.ReportMetric(model.SpiceSpeedup(0.9, 4), "model_p90_t4_x")
}

// BenchmarkFig7Speedup reproduces Figure 7: per-benchmark loop speedups
// at 2 and 4 threads on the cycle-level simulator.
func BenchmarkFig7Speedup(b *testing.B) {
	for _, w := range workloads.All() {
		for _, threads := range []int{2, 4} {
			name := w.Name + "/t" + string(rune('0'+threads))
			b.Run(name, func(b *testing.B) {
				var sr *SpeedupResult
				for i := 0; i < b.N; i++ {
					sr = speedup(b, w, threads, DefaultOptions())
					if !sr.ChecksumOK {
						b.Fatal("parallel result differs from sequential")
					}
				}
				b.ReportMetric(sr.LoopSpeedup, "speedup_x")
				b.ReportMetric(sr.MisspecRate*100, "misspec_pct")
			})
		}
	}
}

// BenchmarkFig7GeoMean reports the Figure 7 geomean at 4 threads
// (the paper's 101% average).
func BenchmarkFig7GeoMean(b *testing.B) {
	var gm float64
	for i := 0; i < b.N; i++ {
		var sp []float64
		for _, w := range workloads.All() {
			sp = append(sp, speedup(b, w, 4, DefaultOptions()).LoopSpeedup)
		}
		gm = stats.GeoMean(sp)
	}
	b.ReportMetric(gm, "geomean_x")
	b.ReportMetric(2.01, "paper_x")
}

// fig8Bins profiles a suite and returns the bin counts.
func fig8Bins(b *testing.B, suite []workloads.SuiteBench) []stats.Bin {
	bins := stats.PredictabilityBins()
	for _, bench := range suite {
		reports, err := ProfileSuite(bench, 120, 20, 1234, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		var pcts []float64
		for _, r := range reports {
			pcts = append(pcts, r.PredictablePct)
		}
		stats.Classify(bins, pcts)
	}
	return bins
}

// BenchmarkFig8aSpecPredictability runs the SPEC-suite profiling study.
func BenchmarkFig8aSpecPredictability(b *testing.B) {
	var bins []stats.Bin
	for i := 0; i < b.N; i++ {
		bins = fig8Bins(b, workloads.Fig8a())
	}
	b.ReportMetric(float64(bins[2].Count+bins[3].Count), "good_or_high_loops")
	b.ReportMetric(float64(bins[0].Count), "low_loops")
}

// BenchmarkFig8bMediaPredictability runs the Mediabench-suite study.
func BenchmarkFig8bMediaPredictability(b *testing.B) {
	var bins []stats.Bin
	for i := 0; i < b.N; i++ {
		bins = fig8Bins(b, workloads.Fig8b())
	}
	b.ReportMetric(float64(bins[2].Count+bins[3].Count), "good_or_high_loops")
	b.ReportMetric(float64(bins[0].Count), "low_loops")
}

// BenchmarkSection5OverheadBreakdown reports the Section 5 factors for
// otter: mis-speculation, load imbalance and speculation bookkeeping.
func BenchmarkSection5OverheadBreakdown(b *testing.B) {
	w := workloads.Otter()
	var m *rt.Machine
	for i := 0; i < b.N; i++ {
		m = speedup(b, w, 4, DefaultOptions()).Par.Machine
	}
	s := m.Stats
	b.ReportMetric(float64(s.MisspecInvocations)/float64(s.Invocations)*100, "misspec_pct")
	b.ReportMetric(float64(s.Resteers), "resteers")
	b.ReportMetric(float64(s.CommittedWords)/float64(s.Invocations), "commit_words_per_inv")
	imb := 0.0
	for _, works := range m.WorkHistory {
		imb += stats.Imbalance(works)
	}
	b.ReportMetric(imb/float64(len(m.WorkHistory)), "avg_imbalance")
}

// BenchmarkAblationPlanScheme compares the hardened adaptive planner
// against the paper's literal interval scheme (rt.PaperIntervals):
// the interval scheme leaves rows unmemoized after unbalanced
// invocations, oscillating between parallel and sequential execution.
func BenchmarkAblationPlanScheme(b *testing.B) {
	w := workloads.KS()
	for _, scheme := range []struct {
		name string
		s    rt.PlanScheme
	}{{"balanced", rt.BalancedChunks}, {"paper_intervals", rt.PaperIntervals}} {
		b.Run(scheme.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.PlanScheme = scheme.s
			var sr *SpeedupResult
			for i := 0; i < b.N; i++ {
				sr = speedup(b, w, 4, opts)
			}
			b.ReportMetric(sr.LoopSpeedup, "speedup_x")
			b.ReportMetric(sr.MisspecRate*100, "misspec_pct")
		})
	}
}

// BenchmarkAblationDetectionWidth contrasts the per-iteration detection
// cost of a 1-live-in loop (otter) and an 8-live-in loop (sjeng): the
// paper's "speculation overhead" factor.
func BenchmarkAblationDetectionWidth(b *testing.B) {
	for _, w := range []*workloads.Benchmark{workloads.Otter(), workloads.Sjeng()} {
		b.Run(w.Name, func(b *testing.B) {
			var tr *RunResult
			var seq *RunResult
			for i := 0; i < b.N; i++ {
				var err error
				p := benchParams(w)
				seq, err = Run(w, p, 1, DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				tr, err = Run(w, p, 4, DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Transform.SVAWidth), "live_ins")
			b.ReportMetric(float64(seq.LoopCycles)/float64(max(tr.LoopCycles, 1)), "speedup_x")
		})
	}
}
