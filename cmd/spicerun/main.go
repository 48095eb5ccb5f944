// Spicerun executes one Table 2 benchmark on the simulated machine,
// sequentially and Spice-parallelized, and reports the paper's metrics:
// loop cycles, loop speedup, mis-speculation rate, per-invocation work
// distribution and result equivalence.
//
// Usage:
//
//	spicerun -bench otter -threads 4 [-stats] [-scheme paper]
package main

import (
	"flag"
	"fmt"
	"os"

	"spice/internal/harness"
	"spice/internal/rt"
	"spice/internal/stats"
	"spice/internal/workloads"
)

func main() {
	bench := flag.String("bench", "otter", "benchmark: ks, otter, 181.mcf, 458.sjeng")
	threads := flag.Int("threads", 4, "thread count for the Spice run")
	showStats := flag.Bool("stats", false, "print runtime statistics and work history")
	trace := flag.Bool("trace", false, "print planner decisions")
	scheme := flag.String("scheme", "balanced", "plan scheme: balanced or paper")
	size := flag.Int64("size", 0, "data structure size override")
	invocations := flag.Int64("invocations", 0, "invocation count override")
	flag.Parse()

	b := workloads.ByName(*bench)
	if b == nil {
		fmt.Fprintf(os.Stderr, "spicerun: unknown benchmark %q (have:", *bench)
		for _, w := range workloads.All() {
			fmt.Fprintf(os.Stderr, " %s", w.Name)
		}
		fmt.Fprintln(os.Stderr, ")")
		os.Exit(2)
	}
	p := b.Defaults
	if *size > 0 {
		p.Size = *size
	}
	if *invocations > 0 {
		p.Invocations = *invocations
	}
	opts := harness.DefaultOptions()
	switch *scheme {
	case "balanced":
	case "paper":
		opts.PlanScheme = rt.PaperIntervals
	default:
		fmt.Fprintf(os.Stderr, "spicerun: unknown plan scheme %q\n", *scheme)
		flag.Usage()
		os.Exit(2)
	}
	if *trace {
		opts.PlanTrace = func(format string, args ...any) {
			fmt.Printf("  plan: "+format+"\n", args...)
		}
	}

	sr, err := harness.Speedup(b, p, *threads, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spicerun: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("%s (%s), %d invocations of ~%d elements\n",
		b.Name, b.LoopName, p.Invocations, p.Size)
	fmt.Printf("  sequential loop cycles: %d\n", sr.Seq.LoopCycles)
	fmt.Printf("  spice %d-thread cycles: %d\n", *threads, sr.Par.LoopCycles)
	fmt.Printf("  loop speedup:           %s (paper: %.2fx @2t, %.2fx @4t)\n",
		stats.Speedup(sr.LoopSpeedup), b.PaperSpeedup2, b.PaperSpeedup4)
	fmt.Printf("  misspec invocations:    %.0f%%\n", sr.MisspecRate*100)
	fmt.Printf("  results match:          %v\n", sr.ChecksumOK)

	if *showStats {
		m := sr.Par.Machine
		fmt.Printf("\nruntime stats: %+v\n", m.Stats)
		cs := m.Hier.Stats()
		fmt.Printf("cache: loads=%d stores=%d L1miss=%d L2miss=%d mem=%d xfers=%d avg=%.2f cyc\n",
			cs.Loads, cs.Stores, cs.L1Misses, cs.L2Misses, cs.MemAccesses,
			cs.CacheToCacheXfers, cs.AvgLatency)
		fmt.Println("\nper-invocation work distribution:")
		for i, w := range m.WorkHistory {
			fmt.Printf("  inv %3d: %v (imbalance %.2f)\n", i, w, stats.Imbalance(w))
		}
	}
}
