package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// childResult is one single run as the table mode read it back.
type childResult struct {
	Workload string     `json:"workload"`
	Traced   bool       `json:"traced"`
	Seconds  float64    `json:"wall_s"`
	Detail   detailLine `json:"detail"`
	Result   resultLine `json:"result"`
	Err      string     `json:"error,omitempty"`
}

// runChild runs one workload in a fresh process, so peak RSS and GC
// state never leak from one row of the table into the next.
func runChild(ctx context.Context, cfg config, name string, traced bool) childResult {
	self, err := os.Executable()
	if err != nil {
		return childResult{Workload: name, Traced: traced, Err: err.Error()}
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-rounds", strconv.Itoa(cfg.rounds),
		"-trace", tr, "-spiced", cfg.spiced, "-outdir", cfg.outdir,
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) } // let it reap its daemons
	cmd.WaitDelay = 30 * time.Second
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	runErr := cmd.Run()
	res := childResult{Workload: name, Traced: traced, Seconds: time.Since(t0).Seconds()}

	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "DETAIL "); ok {
			_ = json.Unmarshal([]byte(rest), &res.Detail)
			continue
		}
		if line != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &res.Result); err != nil {
		res.Err = fmt.Sprintf("no result line (%v)", err)
	}
	if runErr != nil && res.Err == "" {
		res.Err = runErr.Error()
	}
	return res
}

// tableMode runs the named workloads (all when none is named), timed
// and traced as asked, and prints the tables. With agree it does so
// twice and compares the two sets against the bounds.
func tableMode(ctx context.Context, cfg config, names []string, trace, out string, agree bool) int {
	if cfg.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	for _, n := range names {
		if workloadByName(n) == nil {
			fatalf("unknown workload %q", n)
		}
	}
	h := host()
	fmt.Printf("spice benchmark: seed=%d seconds=%g rounds=%d cores=%d maxprocs=%d width=%d %s %s\n",
		cfg.seed, cfg.seconds, cfg.rounds, h.Cores, h.MaxProcs, h.Width, h.Go, h.CPU)
	if h.Cores < 2 {
		fmt.Println("cores=1: speedup_vs_seq is printed but is not comparable with a multi-core record")
	}

	sets := 1
	if agree {
		sets = 2
	}
	var all [][]childResult
	code := 0
	for set := 0; set < sets; set++ {
		var rs []childResult
		for _, n := range names {
			for _, traced := range []bool{false, true} {
				if (traced && trace == "0") || (!traced && trace == "1") {
					continue
				}
				r := runChild(ctx, cfg, n, traced)
				if r.Err != "" || !r.Result.Correct {
					code = 1
					fmt.Printf("FAILED %s traced=%v: %s (attempted=%d failed=%d)\n", n, traced, r.Err, r.Result.Attempted, r.Result.Failed)
				}
				rs = append(rs, r)
			}
		}
		all = append(all, rs)
		if sets > 1 {
			fmt.Printf("\n===== set %d of %d =====\n", set+1, sets)
		}
		printEndToEnd(rs)
		printPerLayer(rs)
	}
	if agree && !printAgreement(all[0], all[1]) {
		code = 1
	}
	if out != "" {
		data, err := json.MarshalIndent(struct {
			Host hostInfo        `json:"host"`
			Seed int64           `json:"seed"`
			Sets [][]childResult `json:"sets"`
		}{h, cfg.seed, all}, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: -out: %v\n", err)
			code = 1
		}
	}
	return code
}

func printEndToEnd(rs []childResult) {
	fmt.Printf("\n%-18s %-15s %14s %-7s %-6s %5s %2s %7s\n", "workload", "metric", "value", "unit", "better", "bound", "n", "spread")
	for _, r := range rs {
		if r.Traced || r.Err != "" {
			continue
		}
		for _, d := range endToEnd {
			fmt.Printf("%-18s %-15s %14.4f %-7s %-6s %5.2f %2d %6.1f%%\n", r.Workload, d.Name,
				r.Result.Metrics[d.Name].Value, d.Unit, d.Better, d.Bound, r.Detail.Rounds, 100*r.Detail.Spread[d.Name])
		}
		fmt.Printf("%-18s attempted=%d failed=%d wall=%.1fs\n", r.Workload, r.Result.Attempted, r.Result.Failed, r.Seconds)
		for _, n := range r.Detail.Notes {
			fmt.Printf("%-18s note: %s\n", r.Workload, n)
		}
	}
}

// printPerLayer prints one row per metric, one column per workload.
func printPerLayer(rs []childResult) {
	var cols []childResult
	for _, r := range rs {
		if r.Traced && r.Err == "" {
			cols = append(cols, r)
		}
	}
	if len(cols) == 0 {
		return
	}
	fmt.Printf("\n%-32s %-8s", "per-layer metric (traced run)", "unit")
	for _, c := range cols {
		fmt.Printf(" %17s", c.Workload)
	}
	fmt.Println()
	for _, d := range perLayer {
		fmt.Printf("%-32s %-8s", d.Name, d.Unit)
		for _, c := range cols {
			fmt.Printf(" %17.4f", c.Result.Metrics[d.Name].Value)
		}
		fmt.Println()
	}
}

// worsening is how much b is worse than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// printAgreement compares two sets of timed runs of the same code: a
// pairing passes when neither set is worse than the other by more than
// the metric's bound.
func printAgreement(a, b []childResult) bool {
	ok := true
	fmt.Printf("\n%-18s %-15s %14s %14s %8s %5s\n", "workload", "metric", "set 1", "set 2", "diff", "")
	for i := range a {
		if a[i].Traced || i >= len(b) || a[i].Err != "" || b[i].Err != "" {
			continue
		}
		for _, d := range endToEnd {
			x, y := a[i].Result.Metrics[d.Name].Value, b[i].Result.Metrics[d.Name].Value
			w := max(worsening(d, x, y), worsening(d, y, x))
			verdict := "PASS"
			if w > d.Bound {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("%-18s %-15s %14.4f %14.4f %7.1f%% %5s\n", a[i].Workload, d.Name, x, y, 100*w, verdict)
		}
	}
	return ok
}
