// Package harness wires a workload, the Spice compiler and the
// simulator together: it builds the program, optionally applies the
// Spice transformation, constructs the machine, runs the simulation and
// extracts the measurements the paper reports (loop cycles, loop
// speedups, hotness, mis-speculation statistics, Figure 8 profiles).
package harness

import (
	"fmt"
	"slices"

	"spice/internal/core"
	"spice/internal/interp"
	"spice/internal/profiler"
	"spice/internal/rt"
	"spice/internal/sim"
	"spice/internal/workloads"
)

// RunResult is one simulated execution.
type RunResult struct {
	Bench       *workloads.Benchmark
	Params      workloads.Params
	LoopCycles  int64 // cycles inside the measured region
	LoopInstrs  int64
	TotalInstrs int64
	Returns     []int64
	Checksum    []int64
	Machine     *rt.Machine
	Transform   *core.Transformed
}

// Options tunes a harness run.
type Options struct {
	Config sim.Config
	// PlanScheme selects the load-balancer variant (ablation).
	PlanScheme rt.PlanScheme
	// MaxInstrs overrides the interpreter fuel.
	MaxInstrs int64
}

// DefaultOptions uses the Table 1 machine.
func DefaultOptions() Options {
	return Options{Config: sim.DefaultConfig()}
}

// Run executes benchmark b with the given parameters on `threads`
// threads (1 = original sequential program, >1 = Spice-transformed).
func Run(b *workloads.Benchmark, p workloads.Params, threads int, opts Options) (*RunResult, error) {
	prog := b.Program(p)
	svaWidth := 1
	var tr *core.Transformed
	if threads > 1 {
		var err error
		tr, err = core.Transform(prog, core.Options{
			Fn: "main", LoopHeader: b.LoopHeader, Threads: threads,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: transform %s: %w", b.Name, err)
		}
		svaWidth = tr.SVAWidth
	}
	m, err := rt.New(opts.Config, threads, svaWidth)
	if err != nil {
		return nil, err
	}
	m.SetPlanScheme(opts.PlanScheme)
	inst := b.Init(m, p)

	specs := []interp.ThreadSpec{{Fn: "main", Args: inst.Args}}
	if tr != nil {
		for _, w := range tr.Workers {
			specs = append(specs, interp.ThreadSpec{Fn: w})
		}
	}
	it, err := interp.New(m, prog, specs, interp.Options{MaxInstrs: opts.MaxInstrs})
	if err != nil {
		return nil, err
	}
	res, err := it.Run()
	if err != nil {
		return nil, fmt.Errorf("harness: run %s (t=%d): %w", b.Name, threads, err)
	}
	rr := &RunResult{
		Bench:       b,
		Params:      p,
		TotalInstrs: res.TotalInstrs,
		Returns:     res.Returns[0],
		Checksum:    inst.Checksum(),
		Machine:     m,
		Transform:   tr,
	}
	if reg := m.Regions[workloads.RegionID]; reg != nil {
		rr.LoopCycles = reg.Cycles
		rr.LoopInstrs = reg.Instrs
	}
	return rr, nil
}

// SpeedupResult compares sequential and Spice executions of a loop.
type SpeedupResult struct {
	Seq, Par *RunResult
	// LoopSpeedup is the paper's metric: sequential loop cycles over
	// parallel loop cycles.
	LoopSpeedup float64
	// MisspecRate is mis-speculated invocations / invocations.
	MisspecRate float64
	// ChecksumOK reports sequential/parallel result equivalence.
	ChecksumOK bool
}

// Speedup runs seq's benchmark and parameters on `threads` threads and
// compares the run with seq, a sequential run from Run. A caller that
// measures several widths simulates the sequential run once.
func Speedup(seq *RunResult, threads int, opts Options) (*SpeedupResult, error) {
	par, err := Run(seq.Bench, seq.Params, threads, opts)
	if err != nil {
		return nil, err
	}
	sr := &SpeedupResult{Seq: seq, Par: par}
	if par.LoopCycles > 0 {
		sr.LoopSpeedup = float64(seq.LoopCycles) / float64(par.LoopCycles)
	}
	if inv := par.Machine.Stats.Invocations; inv > 0 {
		sr.MisspecRate = float64(par.Machine.Stats.MisspecInvocations) / float64(inv)
	}
	sr.ChecksumOK = slices.Equal(seq.Checksum, par.Checksum) && slices.Equal(seq.Returns, par.Returns)
	return sr, nil
}

// Hotness is the loop's fraction of dynamic instructions in the run
// (the Table 2 metric, read from a sequential run).
func (r *RunResult) Hotness() float64 {
	if r.TotalInstrs == 0 {
		return 0
	}
	return float64(r.LoopInstrs) / float64(r.TotalInstrs)
}

// ProfileSuite runs one Figure 8 suite benchmark under the value
// profiler and returns the per-loop predictability reports.
func ProfileSuite(bench workloads.SuiteBench, nodesPerLoop, invocations, seed int64, opts Options) ([]profiler.LoopReport, error) {
	prog := workloads.SuiteProgram(len(bench.Disturb))
	targets, err := profiler.SelectLoops(prog, "main")
	if err != nil {
		return nil, err
	}
	// Instrument only the traversal loops (not the outer driver loop).
	headers := map[string]bool{}
	for _, h := range workloads.SuiteLoopHeaders(len(bench.Disturb)) {
		headers[h] = true
	}
	var picked []profiler.LoopTarget
	for _, t := range targets {
		if headers[t.Header] {
			picked = append(picked, t)
		}
	}
	if len(picked) != len(bench.Disturb) {
		return nil, fmt.Errorf("harness: %s: selected %d loops, want %d",
			bench.Name, len(picked), len(bench.Disturb))
	}
	if err := profiler.Instrument(prog, picked); err != nil {
		return nil, err
	}
	m, err := rt.New(opts.Config, 1, 1)
	if err != nil {
		return nil, err
	}
	an := profiler.NewAnalyzer(seed)
	m.Prof = an
	args := workloads.SuiteInit(m, bench, nodesPerLoop, invocations, seed)
	it, err := interp.New(m, prog, []interp.ThreadSpec{{Fn: "main", Args: args}}, interp.Options{MaxInstrs: opts.MaxInstrs})
	if err != nil {
		return nil, err
	}
	if _, err := it.Run(); err != nil {
		return nil, fmt.Errorf("harness: profile %s: %w", bench.Name, err)
	}
	an.Finish()
	return an.Reports(), nil
}
