// Command bench is the repository's benchmark of record: seven
// workloads from the raw loop to POST /v1/run, four end-to-end metrics
// on each, and a traced run that attributes the time to layers. It
// measures from outside the program under test: through the public
// spice API, the circuit and native workload packages, and a child
// spiced process over HTTP. See README.md in this directory.
//
// A single run (one workload, -trace 0 or 1) ends with one JSON line:
// the contract BENCHMARK.json's driver reads. Without those flags the
// command runs every workload, timed then traced, each in a fresh
// process, and prints the tables.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	rounds   int
	spiced   string
	outdir   string
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a single run's output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// detailLine precedes the result line: what the table mode and a human
// want beyond the bare values.
type detailLine struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Host     hostInfo           `json:"host"`
	Rounds   int                `json:"rounds"`
	Spread   map[string]float64 `json:"spread"` // IQR/median over rounds
	Notes    []string           `json:"notes,omitempty"`
}

// outcome is what a single run measured.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
	spread            map[string]float64
	rounds            int
	notes             []string
}

func main() {
	var cfg config
	var trace, out string
	var agree bool
	flag.StringVar(&cfg.workload, "workload", "", "workload name, or a comma list (default: all seven)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measuring time of one run")
	flag.IntVar(&cfg.rounds, "rounds", 0, "rounds a timed run is sized for (0: 16 a second for the library and circuit workloads, 2 a second for serving)")
	flag.StringVar(&trace, "trace", "both", "0: timed run only, 1: traced run only, both")
	flag.StringVar(&cfg.spiced, "spiced", "", "path of the spiced binary (bench/run.sh builds and passes it)")
	flag.StringVar(&cfg.outdir, "outdir", "", "directory the traced run writes spans to")
	flag.StringVar(&out, "out", "", "table mode: also write every result to this JSON file")
	flag.BoolVar(&agree, "agree", false, "table mode: run the set twice and compare the two against the bounds")
	occupyCPU := flag.Int("occupy-cpu", -1, "internal: run as the occupier of this processor")
	describe := flag.Bool("describe", false, "print BENCHMARK.json as the program's tables define it, and exit")
	flag.Parse()
	if *describe {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if *occupyCPU >= 0 {
		occupy(*occupyCPU)
	}
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if cfg.seconds <= 0 || cfg.rounds < 0 {
		fatalf("-seconds must be positive and -rounds not negative")
	}
	switch trace {
	case "false":
		trace = "0"
	case "true":
		trace = "both"
	case "0", "1", "both":
	default:
		fatalf("-trace must be 0, 1 or both")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// An interrupt must not leave a daemon behind; the run itself
		// sees the cancelled context and winds down.
		stopAllDaemons()
	}()

	names := strings.Split(cfg.workload, ",")
	single := cfg.workload != "" && len(names) == 1 && trace != "both" && !agree && out == ""
	if !single {
		os.Exit(tableMode(ctx, cfg, names, trace, out, agree))
	}
	if workloadByName(cfg.workload) == nil {
		fatalf("unknown workload %q", cfg.workload)
	}
	os.Exit(singleRun(ctx, cfg, trace == "1"))
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	os.Exit(2)
}

// singleRun measures one workload once and prints the result line.
func singleRun(ctx context.Context, cfg config, traced bool) int {
	defs := endToEnd
	run := timedRun
	if traced {
		defs, run = perLayer, tracedRun
	}
	stopOccupiers, occErr := startOccupiers()
	o, err := run(ctx, cfg)
	stopOccupiers()
	stopAllDaemons()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	h := host()
	if h.Cores < 2 {
		o.notes = append(o.notes, "cores=1: speedup_vs_seq is not comparable with a multi-core record")
	}
	if occErr != nil {
		o.notes = append(o.notes, fmt.Sprintf("no occupiers (%v): a halted processor may be taken away by the host, see occupy.go", occErr))
	}

	res := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricOut{}}
	fmt.Printf("# %s seed=%d seconds=%g traced=%v cores=%d maxprocs=%d width=%d %s %s\n",
		cfg.workload, cfg.seed, cfg.seconds, traced, h.Cores, h.MaxProcs, h.Width, h.Go, h.CPU)
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "bench: %s: metric %s missing or not finite (%v)\n", cfg.workload, d.Name, v)
			return 1
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
		line := fmt.Sprintf("%-32s %14.4f %-8s better=%-6s", d.Name, v, d.Unit, d.Better)
		if !traced {
			line += fmt.Sprintf(" bound=%.2f n=%d spread=%.3f", d.Bound, o.rounds, o.spread[d.Name])
		}
		fmt.Println(line)
	}
	if len(o.values) != len(defs) {
		fmt.Fprintf(os.Stderr, "bench: %s: %d metrics measured, %d defined\n", cfg.workload, len(o.values), len(defs))
		return 1
	}
	for _, n := range o.notes {
		fmt.Println("# note:", n)
	}
	fmt.Printf("# attempted=%d failed=%d\n", o.attempted, o.failed)
	detail, _ := json.Marshal(detailLine{
		Workload: cfg.workload, Seed: cfg.seed, Traced: traced, Host: h,
		Rounds: o.rounds, Spread: o.spread, Notes: o.notes,
	})
	fmt.Printf("DETAIL %s\n", detail)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if o.failed > 0 || o.attempted < 1 {
		return 1
	}
	return 0
}

// trioBuilder returns the builder of a library or circuit workload,
// nil for a serving one.
func trioBuilder(name string, seed int64) func() (*trio, error) {
	switch name {
	case "doall_hot":
		return func() (*trio, error) { return buildStable(seed, hotNodes, false) }
	case "doall_scattered":
		return func() (*trio, error) { return buildStable(seed, scatteredNodes, true) }
	case "doall_churn":
		return func() (*trio, error) { return buildChurn(seed) }
	case "doacross_cells":
		return func() (*trio, error) { return buildCells(seed) }
	case "circuit_transient":
		return buildCircuit
	}
	return nil
}

func serveSpecByName(name string) serveSpec {
	if name == "serve_light" {
		return serveLight
	}
	return serveMixed
}

// summarize reduces per-round values to the median and its spread.
func summarize(rounds []map[string]float64) (values, spreads map[string]float64) {
	values, spreads = map[string]float64{}, map[string]float64{}
	if len(rounds) == 0 {
		return
	}
	for name := range rounds[0] {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = r[name]
		}
		values[name] = median(xs)
		spreads[name] = spread(xs)
	}
	return
}

// timedRun is the untraced run: every end-to-end metric.
func timedRun(ctx context.Context, cfg config) (*outcome, error) {
	if build := trioBuilder(cfg.workload, cfg.seed); build != nil {
		if cfg.rounds == 0 {
			cfg.rounds = max(1, int(roundsPerSecond*cfg.seconds))
		}
		t, setup, err := setupTrio(build)
		if err != nil {
			return nil, err
		}
		rounds := measureTrio(t, cfg.seconds, cfg.rounds)
		o := &outcome{rounds: len(rounds)}
		o.values, o.spread = summarize(rounds)
		o.attempted, o.failed, err = t.verify()
		if err != nil {
			o.notes = append(o.notes, err.Error())
		}
		o.values["setup_s"] = setup
		if o.values["peak_rss_mb"], err = peakRSSMB(os.Getpid()); err != nil {
			return nil, err
		}
		return o, nil
	}
	return timedServe(ctx, cfg)
}
