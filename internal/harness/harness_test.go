package harness

import (
	"testing"

	"spice/internal/rt"
	"spice/internal/workloads"
)

// fastParams shrinks a benchmark for unit-test latency.
func fastParams(b *workloads.Benchmark) workloads.Params {
	p := b.Defaults
	p.Size = 200
	p.Invocations = 10
	p.FillerIters = 100
	return p
}

// TestAllBenchmarksEquivalent is the end-to-end correctness gate: every
// Table 2 benchmark, at 2 and 4 threads, produces the sequential result.
func TestAllBenchmarksEquivalent(t *testing.T) {
	for _, b := range workloads.All() {
		seq, err := Run(b, fastParams(b), 1, DefaultOptions())
		if err != nil {
			t.Fatalf("%s sequential: %v", b.Name, err)
		}
		for _, threads := range []int{2, 4} {
			sr, err := Speedup(seq, threads, DefaultOptions())
			if err != nil {
				t.Fatalf("%s t=%d: %v", b.Name, threads, err)
			}
			if !sr.ChecksumOK {
				t.Errorf("%s t=%d: results differ from sequential", b.Name, threads)
			}
			if sr.Par.Machine.Stats.Invocations != 10 {
				t.Errorf("%s t=%d: invocations = %d", b.Name, threads,
					sr.Par.Machine.Stats.Invocations)
			}
		}
	}
}

// TestFigure7Shape asserts the qualitative Figure 7 claims at full
// default parameters: every loop speeds up at 4 threads, ks is among the
// fastest, sjeng is the slowest (heavy mis-speculation), and the 4-thread
// geomean exceeds the 2-thread geomean.
func TestFigure7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 7 run")
	}
	speedup4 := map[string]float64{}
	var misspec4 = map[string]float64{}
	for _, b := range workloads.All() {
		seq, err := Run(b, b.Defaults, 1, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		sr, err := Speedup(seq, 4, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !sr.ChecksumOK {
			t.Fatalf("%s: mismatch", b.Name)
		}
		speedup4[b.Name] = sr.LoopSpeedup
		misspec4[b.Name] = sr.MisspecRate
	}
	for name, s := range speedup4 {
		if s <= 1.2 {
			t.Errorf("%s 4-thread speedup = %.2f; every loop should gain", name, s)
		}
	}
	if speedup4["458.sjeng"] >= speedup4["ks"] ||
		speedup4["458.sjeng"] >= speedup4["otter"] ||
		speedup4["458.sjeng"] >= speedup4["181.mcf"] {
		t.Errorf("sjeng should be the weakest performer: %v", speedup4)
	}
	if misspec4["458.sjeng"] < 0.10 {
		t.Errorf("sjeng misspec = %.0f%%; the paper reports ~25%%", misspec4["458.sjeng"]*100)
	}
	if misspec4["ks"] > 0.10 || misspec4["otter"] > 0.10 || misspec4["181.mcf"] > 0.10 {
		t.Errorf("non-sjeng loops should mis-speculate <10%%: %v", misspec4)
	}
}

func TestHotnessMeasurement(t *testing.T) {
	b := workloads.KS()
	seq, err := Run(b, fastParams(b), 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if h := seq.Hotness(); h < 0.5 {
		t.Errorf("ks hotness = %.2f; the loop dominates this benchmark", h)
	}
}

func TestPaperIntervalSchemeStillCorrect(t *testing.T) {
	// The ablation scheme is slower (oscillation) but must stay correct.
	opts := DefaultOptions()
	opts.PlanScheme = rt.PaperIntervals
	b := workloads.Otter()
	seq, err := Run(b, fastParams(b), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Speedup(seq, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sr.ChecksumOK {
		t.Error("paper-interval scheme broke equivalence")
	}
}

func TestProfileSuiteReports(t *testing.T) {
	reports, err := ProfileSuite(workloads.SuiteBench{
		Name: "t", Disturb: []float64{0.0, 1.0},
	}, 60, 12, 5, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %+v", reports)
	}
	if reports[0].PredictablePct < 80 {
		t.Errorf("stable loop predictability = %.0f%%", reports[0].PredictablePct)
	}
	if reports[1].PredictablePct > 25 {
		t.Errorf("disturbed loop predictability = %.0f%%", reports[1].PredictablePct)
	}
}

func TestRunErrors(t *testing.T) {
	b := workloads.Otter()
	p := fastParams(b)
	opts := DefaultOptions()
	opts.MaxInstrs = 100 // starve the interpreter
	if _, err := Run(b, p, 2, opts); err == nil {
		t.Error("fuel exhaustion not surfaced")
	}
}
