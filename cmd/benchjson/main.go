// Benchjson converts `go test -bench -benchmem` output on stdin into a
// JSON array of {name, ns_per_op, b_per_op, allocs_per_op, maxprocs,
// cores} records (record.go) — the format CI archives as
// BENCH_pool.json so the perf trajectory of the native runtime
// accumulates across commits. Records are normalized on write: a
// benchmark reporting 0 allocs/op has its B/op forced to 0, since any
// residue there is go test's integer-averaged warm-up noise, not a
// steady-state byte cost. The cores field is stamped with
// runtime.NumCPU() so gates can later tell whether hardware
// parallelism existed when the measurement was taken.
//
// With -gate REGEX, benchjson additionally enforces the steady-state
// allocation budget: it exits non-zero if any benchmark whose name
// matches REGEX reports allocs/op above -max-allocs (default 0). The
// pool hot path is contractually allocation-free; a regression here is
// a build failure, not a graph wiggle.
//
// With -compare, benchjson diffs two of its own JSON files instead of
// reading stdin: for every benchmark present in the old file, the new
// file must contain it, stay within -tolerance percent on ns/op, and
// not increase allocs/op at all. CI uses this to diff a fresh
// BENCH_pool.json against the committed baseline and fail on
// steady-state regressions.
//
// With -faster, benchjson enforces an ordering between two benchmarks
// of one of its JSON files: `-faster file.json 'A<B'` exits non-zero
// unless benchmark A's ns/op is strictly below benchmark B's. This is
// the parallel-beats-sequential gate. The ordering is only physically
// meaningful when the left-hand measurement had real parallelism to
// win with — GOMAXPROCS at least 2 *and* at least 2 hardware cores
// (the cores field; GOMAXPROCS can be set above the core count on a
// one-core container, which changes nothing physically). When either
// is missing, the gap is reported as an advisory and the gate passes —
// unless -hard is given, which turns every advisory escape into a
// failure. CI's multi-core job runs `-faster -hard` on fresh
// measurements: on that hardware the ordering must hold, and a
// mis-provisioned single-core runner fails loudly instead of silently
// skipping the one gate the job exists for.
//
// Usage:
//
//	go test -run xxx -bench BenchmarkPool -benchmem -benchtime=100x . |
//	    go run ./cmd/benchjson -gate '^BenchmarkPool' > BENCH_pool.json
//	go run ./cmd/benchjson -compare old.json new.json -tolerance 5
//	go run ./cmd/benchjson -faster BENCH_pool.json \
//	    'BenchmarkNativeRunner/t2<BenchmarkNativeRunner/t1'
//	go run ./cmd/benchjson -faster -hard fresh.json 'A<B'
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	// Subcommand-style modes are handled before flag.Parse so the
	// documented CLI shapes (`-compare old.json new.json -tolerance 5`,
	// `-faster file.json 'A<B'`) work (the flag package would stop
	// parsing at the first positional argument).
	for i, a := range os.Args[1:] {
		switch a {
		case "-compare", "--compare":
			os.Exit(runCompare(os.Args[1+i+1:]))
		case "-faster", "--faster":
			os.Exit(runFaster(os.Args[1+i+1:]))
		}
	}

	os.Exit(runConvert(os.Args[1:], os.Stdin, os.Stdout))
}

// runConvert is the default mode: bench lines on in, JSON records on
// out, and the -gate allocation budget. The records are written before
// the gate's verdict, so a failing run still leaves its numbers behind.
func runConvert(args []string, in io.Reader, out io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	gate := fs.String("gate", "", "regexp of benchmark names whose allocs/op must not exceed -max-allocs")
	maxAllocs := fs.Float64("max-allocs", 0, "allocation budget per op for gated benchmarks")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var gateRe *regexp.Regexp
	if *gate != "" {
		var err error
		if gateRe, err = regexp.Compile(*gate); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad -gate: %v\n", err)
			return 2
		}
	}

	cores := runtime.NumCPU()
	recs := []record{} // non-nil: an empty run must emit [], not null
	var violations []string
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		rec, ok := parseLine(line)
		if !ok {
			continue
		}
		rec.Cores = cores
		rec.normalize()
		recs = append(recs, rec)
		if gateRe != nil && gateRe.MatchString(rec.Name) && rec.AllocsPerOp > *maxAllocs {
			violations = append(violations,
				fmt.Sprintf("%s: %.0f allocs/op (budget %.0f)", rec.Name, rec.AllocsPerOp, *maxAllocs))
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}

	if len(recs) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		return 2
	}
	if err := write(out, recs); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "benchjson: steady-state allocation regression: %s\n", v)
	}
	if len(violations) > 0 {
		return 1
	}
	return 0
}

// runCompare implements `-compare old.json new.json [-tolerance PCT]`:
// it prints a per-benchmark delta table and returns 1 when any
// benchmark from the old file is missing, slower than the tolerance
// allows, or allocates more. New-only benchmarks are reported but never
// fail the comparison (they have no baseline yet).
func runCompare(args []string) int {
	tolerance := 5.0
	var files []string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-tolerance", "--tolerance":
			i++
			if i >= len(args) {
				fmt.Fprintln(os.Stderr, "benchjson: -tolerance needs a value")
				return 2
			}
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil || v < 0 {
				fmt.Fprintf(os.Stderr, "benchjson: bad -tolerance %q\n", args[i])
				return 2
			}
			tolerance = v
		default:
			files = append(files, args[i])
		}
	}
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
		return 2
	}
	old, err := load(files[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	fresh, err := load(files[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	newByName := make(map[string]record, len(fresh))
	for _, r := range fresh {
		newByName[r.Name] = r
	}

	var violations []string
	seen := make(map[string]bool)
	for _, o := range old {
		seen[o.Name] = true
		n, ok := newByName[o.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: missing from %s", o.Name, files[1]))
			continue
		}
		delta := 0.0
		if o.NsPerOp > 0 {
			delta = (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		}
		status := "ok"
		if delta > tolerance {
			status = "SLOWER"
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f -> %.0f ns/op (%+.1f%%, tolerance %.1f%%)",
				o.Name, o.NsPerOp, n.NsPerOp, delta, tolerance))
		}
		if n.AllocsPerOp > o.AllocsPerOp {
			status = "ALLOCS"
			violations = append(violations, fmt.Sprintf(
				"%s: allocs/op %.0f -> %.0f", o.Name, o.AllocsPerOp, n.AllocsPerOp))
		}
		fmt.Printf("%-60s %12.0f %12.0f %+8.1f%% %7.0f %7.0f  %s\n",
			o.Name, o.NsPerOp, n.NsPerOp, delta, o.AllocsPerOp, n.AllocsPerOp, status)
	}
	for _, n := range fresh {
		if !seen[n.Name] {
			fmt.Printf("%-60s %12s %12.0f %9s %7s %7.0f  new\n",
				n.Name, "-", n.NsPerOp, "-", "-", n.AllocsPerOp)
		}
	}
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "benchjson: regression: %s\n", v)
	}
	if len(violations) > 0 {
		return 1
	}
	return 0
}

// runFaster implements `-faster [-hard] file.json 'A<B'`: benchmark A
// must be strictly faster (lower ns/op) than benchmark B in the file.
// The ordering is physically enforceable only when A's measurement had
// hardware parallelism: GOMAXPROCS ≥ 2 *and* ≥ 2 cores (records
// predating either field report 0 and are treated as unenforceable).
// Without -hard, an unenforceable ordering is reported as an advisory
// and the gate passes; with -hard it fails — the multi-core CI job
// must never silently skip the one gate it exists to run.
func runFaster(args []string) int {
	hard := false
	var rest []string
	for _, a := range args {
		if a == "-hard" || a == "--hard" {
			hard = true
			continue
		}
		rest = append(rest, a)
	}
	if len(rest) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson: -faster needs exactly two arguments: [-hard] file.json 'A<B'")
		return 2
	}
	file, expr := rest[0], rest[1]
	parts := strings.SplitN(expr, "<", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		fmt.Fprintf(os.Stderr, "benchjson: bad -faster expression %q (want 'A<B')\n", expr)
		return 2
	}
	recs, err := load(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	byName := make(map[string]record, len(recs))
	for _, r := range recs {
		byName[r.Name] = r
	}
	a, okA := byName[parts[0]]
	b, okB := byName[parts[1]]
	if !okA || !okB {
		fmt.Fprintf(os.Stderr, "benchjson: -faster: %s missing %q or %q\n", file, parts[0], parts[1])
		return 1
	}
	delta := 0.0
	if b.NsPerOp > 0 {
		delta = (a.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
	}
	if a.NsPerOp < b.NsPerOp {
		fmt.Printf("faster: %s %.0f ns/op < %s %.0f ns/op (%+.1f%%)\n",
			a.Name, a.NsPerOp, b.Name, b.NsPerOp, delta)
		return 0
	}
	if a.MaxProcs <= 1 || a.Cores <= 1 {
		why := fmt.Sprintf("GOMAXPROCS %d on %d core(s) — no hardware parallelism to win with",
			a.MaxProcs, a.Cores)
		if hard {
			fmt.Fprintf(os.Stderr, "benchjson: -faster -hard: %s %.0f ns/op !< %s %.0f ns/op (%+.1f%%) and "+
				"the measurement is unenforceable (%s); hard mode does not accept advisories\n",
				a.Name, a.NsPerOp, b.Name, b.NsPerOp, delta, why)
			return 1
		}
		fmt.Printf("advisory: %s %.0f ns/op !< %s %.0f ns/op (%+.1f%%), but %s; gate not enforced\n",
			a.Name, a.NsPerOp, b.Name, b.NsPerOp, delta, why)
		return 0
	}
	fmt.Fprintf(os.Stderr, "benchjson: ordering violated: %s %.0f ns/op !< %s %.0f ns/op (%+.1f%%) at GOMAXPROCS %d on %d cores\n",
		a.Name, a.NsPerOp, b.Name, b.NsPerOp, delta, a.MaxProcs, a.Cores)
	return 1
}
