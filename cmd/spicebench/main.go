// Spicebench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index):
//
//	-table1   machine configuration (Table 1)
//	-table2   benchmark details and measured loop hotness (Table 2)
//	-fig2     TLS execution schedule and speedup model (Figure 2)
//	-fig3     TLS + value prediction schedule and 2/(2−p) curve (Figure 3)
//	-fig5     Spice chunked schedule (Figure 5)
//	-fig7     Spice loop speedups on the simulator, 2 and 4 threads (Figure 7)
//	-fig8     value predictability study over both suites (Figure 8)
//	-pool     native runtime concurrent-throughput table (beyond the paper)
//	-adaptive native adaptive-speculation controller table (beyond the paper)
//	-batch    native batched/async submission table (beyond the paper)
//	-speedup  native per-iteration overhead and tN/t1 speedup table
//	-doacross native DOACROSS conflict-regime table (cell store + reductions)
//	-circuit  circuit transient-simulation end-to-end speedup table
//	-scaling  native t1→t16 scaling curve, one row per GOMAXPROCS setting
//	-all      everything above in paper order
//
// -scaling additionally accepts -out FILE to write the curve as
// benchjson-compatible JSON records (names ScalingCurve/gP/tT, with
// maxprocs and cores stamped) for CI artifacts and merging into
// BENCH_pool.json via `benchjson -merge`. -doacross honors -out the
// same way (names DoacrossRegime/KERNEL_REGIME/tT) when -scaling is
// not also selected, and -circuit honors it (names
// CircuitTransient/CIRCUIT/tT, whole-transient wall clock) when
// neither -scaling nor -doacross is.
//
// Profiling the native hot path:
//
//	-cpuprofile FILE  write a CPU profile of the selected runs
//	-memprofile FILE  write a heap profile at exit
//
// e.g. `spicebench -speedup -cpuprofile cpu.out` captures exactly the
// block-structured iteration loop under load for `go tool pprof`.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"spice"
	"spice/internal/benchfmt"
	"spice/internal/harness"
	"spice/internal/model"
	"spice/internal/sim"
	"spice/internal/stats"
	"spice/internal/workloads"
	"spice/internal/workloads/circuit"
	"spice/internal/workloads/native"
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
	pl := flag.Bool("pool", false, "native Pool concurrent throughput")
	ad := flag.Bool("adaptive", false, "native adaptive speculation controller")
	bt := flag.Bool("batch", false, "native batched/async submission throughput")
	sp := flag.Bool("speedup", false, "native per-iteration overhead and tN/t1 speedup")
	dx := flag.Bool("doacross", false, "native DOACROSS conflict-regime table")
	ct := flag.Bool("circuit", false, "circuit transient-simulation end-to-end speedup table")
	sc := flag.Bool("scaling", false, "native t1→t16 scaling curve per GOMAXPROCS setting")
	out := flag.String("out", "", "with -scaling: also write the curve as benchjson records to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected runs to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	any := *t1 || *t2 || *f2 || *f3 || *f5 || *f7 || *f8 || *pl || *ad || *bt || *sp || *dx || *ct || *sc
	if !any && !*all {
		flag.Usage()
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle the steady state before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
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
	if *all || *pl {
		poolTable()
	}
	if *all || *ad {
		adaptiveTable()
	}
	if *all || *bt {
		batchTable()
	}
	if *all || *sp {
		speedupTable()
	}
	if *all || *dx {
		// -out belongs to the scaling curve when both are selected; the
		// two record sets go to separate files in CI.
		dxOut := *out
		if *all || *sc {
			dxOut = ""
		}
		doacrossTable(dxOut)
	}
	if *all || *ct {
		// Same -out ownership rule one level down: the circuit records
		// get the file only when no higher-precedence table claimed it.
		ctOut := *out
		if *all || *sc || *dx {
			ctOut = ""
		}
		circuitTable(ctOut)
	}
	if *all || *sc {
		scalingCurve(*out)
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

// poolTable measures the native runtime's concurrent front door: N
// submitter goroutines stream invocations over one shared linked list
// through one spice.Pool. This goes beyond the paper's evaluation — the
// paper's runtime serves a single caller; the layered native runtime
// multiplexes concurrent invocations onto persistent shared workers.
func poolTable() {
	header("Native runtime: concurrent invocation throughput (spice.Pool)")

	rng := rand.New(rand.NewSource(29))
	head, _ := native.BuildList(rng, 100_000)
	const perSubmitter = 100

	measure := func(threads, submitters int) (invPerSec float64, runners int, st spice.Stats) {
		p, err := spice.NewPool(native.Loop(), spice.PoolConfig{Config: spice.Config{Threads: threads}})
		if err != nil {
			fatal(err)
		}
		defer p.Close()
		var warm sync.WaitGroup
		for g := 0; g < submitters; g++ {
			warm.Add(1)
			go func() { defer warm.Done(); p.MustRun(head); p.MustRun(head) }()
		}
		warm.Wait()
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perSubmitter; i++ {
					p.MustRun(head)
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		return float64(submitters*perSubmitter) / elapsed, p.Runners(), p.Stats()
	}

	tbl := &stats.Table{Header: []string{"threads", "submitters", "inv/s", "scale", "runner states", "hits", "misses"}}
	for _, threads := range []int{2, 4} {
		var base float64
		for _, subs := range []int{1, 2, 4, 8} {
			ips, runners, st := measure(threads, subs)
			if subs == 1 {
				base = ips
			}
			tbl.Add(threads, subs,
				fmt.Sprintf("%.0f", ips),
				fmt.Sprintf("%.2fx", ips/base),
				runners, st.Hits, st.Misses)
		}
	}
	fmt.Print(tbl.String())
	fmt.Println("\n(100k-element shared list, 100 invocations per submitter; persistent")
	fmt.Println(" workers, recycled runner states, zero steady-state allocations per Run —")
	fmt.Println(" on a single-CPU host the scale column measures scheduling overhead only)")
}

// adaptiveTable measures the adaptive speculation controller (beyond
// the paper): one stable list (the paper's friendly scenario) and one
// fully unstable scenario (a different fresh-node list on every
// invocation, so no prediction can ever materialize), each run with a
// fixed-width runner and with the controller on. The table reports the
// wall-clock ratio against single-threaded execution plus the
// controller's own telemetry: prediction hits and misses, the
// effective width it settled on, and how many invocations it shed to
// sequential execution.
func adaptiveTable() {
	header("Native runtime: adaptive speculation (spice.Options)")

	const listLen, invocations, nLists = 50_000, 120, 8
	rng := rand.New(rand.NewSource(31))
	stable, _ := native.BuildList(rng, listLen)
	hostile := make([]*native.Node, nLists)
	for i := range hostile {
		hostile[i], _ = native.BuildList(rng, listLen)
	}

	measure := func(cfg spice.Config, heads func(int) *native.Node) (secs float64, st spice.Stats) {
		r, err := spice.NewRunner(native.Loop(), cfg)
		if err != nil {
			fatal(err)
		}
		defer r.Close()
		for i := 0; i < nLists; i++ { // settle into steady state
			r.MustRun(heads(i))
		}
		start := time.Now()
		for i := 0; i < invocations; i++ {
			r.MustRun(heads(i))
		}
		return time.Since(start).Seconds(), r.Stats()
	}

	tbl := &stats.Table{Header: []string{
		"workload", "mode", "vs sequential", "hits", "misses", "eff threads", "seq fallbacks"}}
	for _, w := range []struct {
		name  string
		heads func(int) *native.Node
	}{
		{"stable", func(int) *native.Node { return stable }},
		{"unstable", func(i int) *native.Node { return hostile[i%nLists] }},
	} {
		seq, _ := measure(spice.Config{Threads: 1}, w.heads)
		for _, m := range []struct {
			name string
			cfg  spice.Config
		}{
			{"fixed t4", spice.Config{Threads: 4}},
			{"adaptive t4", spice.Config{Threads: 4, Options: spice.Options{Adaptive: true}}},
		} {
			secs, st := measure(m.cfg, w.heads)
			tbl.Add(w.name, m.name,
				fmt.Sprintf("%.2fx", secs/seq),
				st.Hits, st.Misses, st.EffectiveThreads, st.SequentialFallbacks)
		}
	}
	fmt.Print(tbl.String())
	fmt.Println("\n(ratios are wall-clock time relative to Threads:1 on the same workload;")
	fmt.Println(" on the unstable workload fixed-width speculation does strictly more work")
	fmt.Println(" than sequential execution, while the controller sheds speculation and")
	fmt.Println(" tracks the sequential baseline, probing for re-stabilization)")
}

// batchTable measures the batched/async front door (beyond the paper):
// many *small* invocations — the regime where per-invocation fixed
// costs rival the traversal itself — streamed through one Pool by
// concurrent submitters, via three equivalent APIs: naive per-Run
// calls, RunBatch slices (one runner acquisition per slice, load- and
// profitability-aware shedding), and pipelined Submit futures. The
// speedup column is RunBatch throughput over naive per-Run throughput
// at the same submitter count.
func batchTable() {
	header("Native runtime: batched/async submission (RunBatch / Submit)")

	const listLen, perSubmitter, batchLen, window = 2_000, 400, 64, 4
	rng := rand.New(rand.NewSource(41))
	head, _ := native.BuildList(rng, listLen)
	ctx := context.Background()

	mkpool := func(submitters int) *spice.Pool[*native.Node, int64] {
		p, err := spice.NewPool(native.Loop(), spice.PoolConfig{Config: spice.Config{Threads: 4}})
		if err != nil {
			fatal(err)
		}
		var warm sync.WaitGroup
		for g := 0; g < submitters; g++ {
			warm.Add(1)
			go func() { defer warm.Done(); p.MustRun(head); p.MustRun(head) }()
		}
		warm.Wait()
		return p
	}
	drive := func(submitters int, each func(p *spice.Pool[*native.Node, int64])) (invPerSec float64, st spice.Stats) {
		p := mkpool(submitters)
		defer p.Close()
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() { defer wg.Done(); each(p) }()
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		return float64(submitters*perSubmitter) / elapsed, p.Stats()
	}

	naive := func(p *spice.Pool[*native.Node, int64]) {
		for i := 0; i < perSubmitter; i++ {
			p.MustRun(head)
		}
	}
	batched := func(p *spice.Pool[*native.Node, int64]) {
		starts := make([]*native.Node, batchLen)
		for i := range starts {
			starts[i] = head
		}
		for n := perSubmitter; n > 0; {
			k := batchLen
			if n < k {
				k = n
			}
			if _, err := p.RunBatch(ctx, starts[:k]); err != nil {
				fatal(err)
			}
			n -= k
		}
	}
	async := func(p *spice.Pool[*native.Node, int64]) {
		var futs [window]*spice.Future[int64]
		for i := 0; i < perSubmitter; i++ {
			if f := futs[i%window]; f != nil {
				if _, err := f.Wait(); err != nil {
					fatal(err)
				}
			}
			futs[i%window] = p.Submit(ctx, head)
		}
		for _, f := range futs {
			if f != nil {
				if _, err := f.Wait(); err != nil {
					fatal(err)
				}
			}
		}
	}

	tbl := &stats.Table{Header: []string{
		"submitters", "run inv/s", "batch inv/s", "submit inv/s", "batch speedup", "sheds"}}
	for _, subs := range []int{1, 2, 4, 8} {
		base, _ := drive(subs, naive)
		bIPS, bst := drive(subs, batched)
		sIPS, sst := drive(subs, async)
		tbl.Add(subs,
			fmt.Sprintf("%.0f", base),
			fmt.Sprintf("%.0f", bIPS),
			fmt.Sprintf("%.0f", sIPS),
			fmt.Sprintf("%.2fx", bIPS/base),
			fmt.Sprintf("%d/%d", bst.BatchSheds+sst.BatchSheds, bst.Invocations+sst.Invocations))
	}
	fmt.Print(tbl.String())
	fmt.Printf("\n(%d-element shared list, %d invocations per submitter, RunBatch slices\n", listLen, perSubmitter)
	fmt.Printf(" of %d, Submit windows of %d; sheds counts batched/async invocations the\n", batchLen, window)
	fmt.Println(" runtime executed sequentially in place because the executor was saturated")
	fmt.Println(" or the traversal too small to amortize chunk dispatch)")
}

// speedupTable measures the native runtime's per-iteration overhead on
// the paper's friendly scenario (a stable, fully predictable list) and
// prints the tN/t1 wall-clock ratio — the headline number of the
// block-structured hot loop. On a multi-core host the parallel rows
// divide the traversal and the ratio drops below 1.0x; on a single-CPU
// host the ratio isolates pure bookkeeping overhead (dispatch, the
// per-iteration successor-detection compare, commit/validation). The
// closures rows strip the loop's block form, so a chunk's inner loop is
// three indirect calls per iteration; the scan rows run it as shipped
// (Loop.Scan), which is the compiled loop.
func speedupTable() {
	header("Native runtime: per-iteration overhead and tN/t1 speedup")

	const listLen, invocations = 100_000, 60
	rng := rand.New(rand.NewSource(37))
	head, _ := native.BuildList(rng, listLen)

	measure := func(loop spice.Loop[*native.Node, int64], threads int) (perInv float64, st spice.Stats) {
		r, err := spice.NewRunner(loop, spice.Config{Threads: threads})
		if err != nil {
			fatal(err)
		}
		defer r.Close()
		r.MustRun(head) // bootstrap memoization
		r.MustRun(head) // settle the steady state
		start := time.Now()
		for i := 0; i < invocations; i++ {
			r.MustRun(head)
		}
		return time.Since(start).Seconds() / invocations, r.Stats()
	}

	closures := native.Loop()
	closures.Scan = nil
	tbl := &stats.Table{Header: []string{"loop", "threads", "ns/op", "ns/iter", "tN/t1", "misspec"}}
	for _, form := range []struct {
		name string
		loop spice.Loop[*native.Node, int64]
	}{{"closures", closures}, {"scan", native.Loop()}} {
		var base float64
		for _, threads := range []int{1, 2, 4} {
			perInv, st := measure(form.loop, threads)
			if threads == 1 {
				base = perInv
			}
			tbl.Add(form.name, threads,
				fmt.Sprintf("%.0f", perInv*1e9),
				fmt.Sprintf("%.2f", perInv*1e9/listLen),
				fmt.Sprintf("%.2fx", base/perInv),
				st.MisspecInvocations)
		}
	}
	fmt.Print(tbl.String())
	fmt.Printf("\n(%d-element stable list, %d timed invocations per row; tN/t1 > 1.0x\n",
		listLen, invocations)
	fmt.Printf(" means the parallel hot path beats the same loop form at width 1;\n")
	fmt.Printf(" GOMAXPROCS %d)\n", runtime.GOMAXPROCS(0))
}

// doacrossTable measures the native DOACROSS kernels across their
// conflict regimes (beyond the paper, which speculates on traversal
// structure only): accum carries a cross-node flow dependence every 64
// nodes — conflicts only when a chunk boundary splits a dependent
// pair, the regime where speculation must win — while histo's churn
// dial moves its nodes from fully private buckets (no conflicts ever)
// to a handful of shared hot buckets (dense cross-chunk conflicts, the
// regime the throttle must survive). Each row reports wall-clock per
// invocation at t1/t2/t4, the best tN/t1 ratio, and the measured
// conflict and squash rates.
//
// When outPath is non-empty the grid is also written as benchjson
// records named DoacrossRegime/KERNEL_REGIME/tT, merged into
// BENCH_pool.json alongside the scaling curve so the conflict-regime
// trajectory accumulates across commits.
func doacrossTable(outPath string) {
	header("Native runtime: DOACROSS conflict regimes (spice.Cells)")

	const size, invocations = 50_000, 30
	regimes := []struct {
		label  string
		kernel string
		churn  int
	}{
		{"accum_low", "accum", 64},
		{"histo_none", "histo", 0},
		{"histo_dense", "histo", 256},
	}
	threadGrid := []int{1, 2, 4}
	cores := runtime.NumCPU()

	measure := func(kernel string, churn, threads int) (perInv float64, st spice.Stats) {
		inst := native.ByName(kernel).New(size, 59, churn)
		r, err := spice.NewRunner(native.SpecLoop(), spice.Config{Threads: threads})
		if err != nil {
			fatal(err)
		}
		defer r.Close()
		r.BindCells(inst.Cells)
		r.MustRun(inst.Head) // bootstrap memoization
		r.MustRun(inst.Head) // settle the steady state (views sized)
		start := time.Now()
		for i := 0; i < invocations; i++ {
			r.MustRun(inst.Head)
			inst.Mutate()
		}
		return time.Since(start).Seconds() / invocations, r.Stats()
	}

	var recs []benchfmt.Record
	tbl := &stats.Table{Header: []string{
		"regime", "threads", "ns/op", "tN/t1", "conflicts/inv", "squashed iters"}}
	for _, reg := range regimes {
		var base float64
		for _, threads := range threadGrid {
			perInv, st := measure(reg.kernel, reg.churn, threads)
			if threads == 1 {
				base = perInv
			}
			tbl.Add(reg.label, threads,
				fmt.Sprintf("%.0f", perInv*1e9),
				fmt.Sprintf("%.2fx", base/perInv),
				fmt.Sprintf("%.3f", float64(st.Conflicts)/float64(max(st.Invocations, 1))),
				st.SquashedIters)
			recs = append(recs, benchfmt.Record{
				Name:     fmt.Sprintf("DoacrossRegime/%s/t%d", reg.label, threads),
				NsPerOp:  perInv * 1e9,
				MaxProcs: runtime.GOMAXPROCS(0),
				Cores:    cores,
			})
		}
	}
	fmt.Print(tbl.String())
	fmt.Printf("\n(%d-node lists, %d timed invocations per cell with value churn between\n",
		size, invocations)
	fmt.Println(" invocations; accum's dependence stride is 64 nodes, histo's churn dial")
	fmt.Println(" is the fraction of nodes on 8 shared hot buckets; conflicts squash the")
	fmt.Println(" chunk and re-execute it in order, so every row's result stays exactly")
	fmt.Println(" sequential — on a multi-core host the low-conflict rows drop below 1.0x)")

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := benchfmt.Write(f, recs); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %d conflict-regime records to %s\n", len(recs), outPath)
	}
}

// circuitTable measures the first real program on the runtime: MNA
// transient simulation (internal/workloads/circuit) of an RC ladder
// and a diode-bridge rectifier, timed end to end — netlist sweep,
// Newton solve, state updates, everything — not just the speculative
// sweep. Each parallel row is checked bit-identical against the
// sequential reference before it is reported; a divergence is a hard
// failure, not a footnote.
//
// When outPath is non-empty the grid is written as benchjson records
// named CircuitTransient/CIRCUIT/tT (plus /seq for the reference),
// NsPerOp being whole-transient wall clock, for merging into
// BENCH_pool.json.
func circuitTable(outPath string) {
	header("Real-program workload: speculative circuit transient simulation")

	configs := []struct {
		build func() *circuit.Circuit
		steps int
	}{
		{func() *circuit.Circuit { return circuit.RCLadder(8, 256) }, 50},
		{func() *circuit.Circuit { return circuit.Rectifier(512) }, 80},
	}
	threadGrid := []int{1, 2, 4}
	cores := runtime.NumCPU()

	var recs []benchfmt.Record
	tbl := &stats.Table{Header: []string{
		"circuit", "devices", "mode", "ms/run", "tN/seq", "sweeps", "hit rate", "conflicts", "identical"}}
	for _, cfg := range configs {
		c := cfg.build()
		start := time.Now()
		ref, err := c.RunSequential(cfg.steps)
		if err != nil {
			fatal(err)
		}
		seq := time.Since(start).Seconds()
		tbl.Add(c.Name, c.DeviceCount(), "seq",
			fmt.Sprintf("%.2f", seq*1e3), "1.00x", "-", "-", "-", "-")
		recs = append(recs, benchfmt.Record{
			Name:     fmt.Sprintf("CircuitTransient/%s/seq", c.Name),
			NsPerOp:  seq * 1e9,
			MaxProcs: runtime.GOMAXPROCS(0),
			Cores:    cores,
		})
		for _, threads := range threadGrid {
			start = time.Now()
			wf, st, err := c.RunParallel(context.Background(), threads, true, cfg.steps)
			if err != nil {
				fatal(err)
			}
			par := time.Since(start).Seconds()
			if !ref.Equal(wf) {
				fatal(fmt.Errorf("circuit %s t%d: waveform diverged from sequential reference", c.Name, threads))
			}
			hitRate := float64(st.Hits) / float64(max(st.Hits+st.Misses, 1))
			tbl.Add(c.Name, c.DeviceCount(), fmt.Sprintf("t%d", threads),
				fmt.Sprintf("%.2f", par*1e3),
				fmt.Sprintf("%.2fx", seq/par),
				st.Invocations,
				fmt.Sprintf("%.3f", hitRate),
				st.Conflicts,
				"yes")
			recs = append(recs, benchfmt.Record{
				Name:     fmt.Sprintf("CircuitTransient/%s/t%d", c.Name, threads),
				NsPerOp:  par * 1e9,
				MaxProcs: runtime.GOMAXPROCS(0),
				Cores:    cores,
			})
		}
	}
	fmt.Print(tbl.String())
	fmt.Println("\n(whole-transient wall clock: device sweeps through spice.Pool plus the")
	fmt.Println(" shared Newton/Gauss solve; stamps are fixed-point ReduceSum cells, so")
	fmt.Println(" every parallel waveform is checked bit-identical to the sequential")
	fmt.Println(" reference before its row is reported — on a single-core host the")
	fmt.Println(" parallel rows stay near 1x and the hit rate shows the predictor locking")
	fmt.Println(" onto the topology-stable netlist)")

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := benchfmt.Write(f, recs); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %d circuit-transient records to %s\n", len(recs), outPath)
	}
}

// scalingCurve measures the native runner's wall-clock per invocation
// across the full (GOMAXPROCS, Threads) grid: GOMAXPROCS walks
// {1,2,4,8,16} capped at the machine's core count (settings above it
// add no hardware parallelism, only scheduling pressure, so the curve
// stays honest about what the host can deliver), and for each setting
// Threads walks {1,2,4,8,16}. Every runner is constructed *after*
// GOMAXPROCS is set, so the topology-aware sizing in NewRunner (private
// executor width, latch and worker spin budgets) sees the setting under
// test. The t2-vs-t1 comparison at GOMAXPROCS ≥ 2 on ≥ 2 cores is the
// paper's parallel-beats-sequential claim; CI enforces it via
// `benchjson -faster -hard`.
//
// When outPath is non-empty the curve is also written there as
// benchjson records named ScalingCurve/gP/tT with maxprocs=P and the
// host's core count stamped, ready for `benchjson -merge` and -curve.
func scalingCurve(outPath string) {
	header("Native runtime: t1→t16 scaling curve per GOMAXPROCS")

	const listLen, invocations = 100_000, 40
	rng := rand.New(rand.NewSource(43))
	head, _ := native.BuildList(rng, listLen)
	cores := runtime.NumCPU()

	grid := []int{1, 2, 4, 8, 16}
	var procsList []int
	for _, p := range grid {
		if p <= cores {
			procsList = append(procsList, p)
		}
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var recs []benchfmt.Record
	tbl := &stats.Table{Header: []string{"gomaxprocs", "t1", "t2", "t4", "t8", "t16", "best tN/t1"}}
	for _, procs := range procsList {
		runtime.GOMAXPROCS(procs)
		row := []any{procs}
		var base, best float64
		for _, threads := range grid {
			r, err := spice.NewRunner(native.Loop(), spice.Config{Threads: threads})
			if err != nil {
				fatal(err)
			}
			r.MustRun(head) // bootstrap memoization
			r.MustRun(head) // settle the steady state
			start := time.Now()
			for i := 0; i < invocations; i++ {
				r.MustRun(head)
			}
			perInv := time.Since(start).Seconds() / invocations
			r.Close()
			ns := perInv * 1e9
			if threads == 1 {
				base = ns
			}
			if sp := base / ns; sp > best {
				best = sp
			}
			row = append(row, fmt.Sprintf("%.0f", ns))
			recs = append(recs, benchfmt.Record{
				Name:     fmt.Sprintf("ScalingCurve/g%d/t%d", procs, threads),
				NsPerOp:  ns,
				MaxProcs: procs,
				Cores:    cores,
			})
		}
		row = append(row, fmt.Sprintf("%.2fx", best))
		tbl.Add(row...)
	}
	runtime.GOMAXPROCS(prev)
	fmt.Print(tbl.String())
	fmt.Printf("\n(%d-element stable list, %d timed invocations per cell, ns/op; each\n",
		listLen, invocations)
	fmt.Printf(" runner is constructed under its row's GOMAXPROCS so topology-aware\n")
	fmt.Printf(" sizing is in effect; host has %d core(s) — GOMAXPROCS settings above\n", cores)
	fmt.Println(" the core count are skipped because they add no hardware parallelism)")

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := benchfmt.Write(f, recs); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %d curve records to %s\n", len(recs), outPath)
	}
}

func fatal(err error) {
	// os.Exit skips deferred cleanup; flush an in-flight CPU profile so
	// -cpuprofile output stays parseable even on an error path (a no-op
	// when profiling is off).
	pprof.StopCPUProfile()
	fmt.Fprintf(os.Stderr, "spicebench: %v\n", err)
	os.Exit(1)
}
