// Benchjson converts `go test -bench -benchmem` output on stdin into a
// JSON array of {name, ns_per_op, b_per_op, allocs_per_op, maxprocs,
// cores} records (record.go) — the format CI archives as
// BENCH_pool.json so the perf trajectory of the native runtime
// accumulates across commits. Records are normalized on write: a
// benchmark reporting 0 allocs/op has its B/op forced to 0, since any
// residue there is go test's integer-averaged warm-up noise, not a
// steady-state byte cost. The cores field is stamped with
// runtime.NumCPU(), so a record says whether hardware parallelism
// existed when the measurement was taken.
//
// With -gate REGEX, benchjson additionally enforces the steady-state
// allocation budget: it exits 1 if any benchmark whose name matches
// REGEX reports more than 0 allocs/op. The pool hot path is
// contractually allocation-free; a regression here is a build failure,
// not a graph wiggle.
//
// With -compare, benchjson diffs two of its own JSON files instead of
// reading stdin: every benchmark of the old file must be in the new
// one and must not allocate more per op. The ns/op delta is printed
// for information only: it differs between machines and, at width 2
// on a 2-vCPU guest, from run to run. CI uses this to diff a fresh
// BENCH_pool.json against the committed baseline.
//
// With -faster, benchjson checks an ordering between two benchmarks of
// one of its JSON files: `-faster file.json 'A<B'` exits 1 unless
// benchmark A's ns/op is strictly below benchmark B's. This is the
// parallel-beats-sequential gate. A violation names the GOMAXPROCS and
// core count A was measured at: the ordering can only hold where there
// was hardware parallelism to win with.
//
// Usage:
//
//	go test -run xxx -bench BenchmarkPool -benchmem -benchtime=100x . |
//	    go run ./cmd/benchjson -gate '^BenchmarkPool' > BENCH_pool.json
//	go run ./cmd/benchjson -compare old.json new.json
//	go run ./cmd/benchjson -faster BENCH_pool.json \
//	    'BenchmarkNativeRunner/t2<BenchmarkNativeRunner/t1'
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout))
}

// run picks the mode from the flags: -compare and -faster take their
// files and expression as arguments, the default mode reads stdin.
func run(args []string, in io.Reader, out io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	gate := fs.String("gate", "", "regexp of benchmark names that must report 0 allocs/op")
	compare := fs.Bool("compare", false, "diff two records: -compare old.json new.json")
	faster := fs.Bool("faster", false, "check an ordering: -faster file.json 'A<B'")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare && *faster:
		fmt.Fprintln(os.Stderr, "benchjson: -compare and -faster are separate modes")
		return 2
	case *compare:
		return runCompare(fs.Args())
	case *faster:
		return runFaster(fs.Args())
	case fs.NArg() > 0:
		fmt.Fprintf(os.Stderr, "benchjson: unexpected arguments %q (bench output goes on stdin)\n", fs.Args())
		return 2
	}
	return runConvert(*gate, in, out)
}

// runConvert is the default mode: bench lines on in, JSON records on
// out, and the -gate allocation budget. The records are written before
// the gate's verdict, so a failing run still leaves its numbers behind.
func runConvert(gate string, in io.Reader, out io.Writer) int {
	var gateRe *regexp.Regexp
	if gate != "" {
		var err error
		if gateRe, err = regexp.Compile(gate); err != nil {
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
		if gateRe != nil && gateRe.MatchString(rec.Name) && rec.AllocsPerOp > 0 {
			violations = append(violations, fmt.Sprintf("%s: %.0f allocs/op, want 0", rec.Name, rec.AllocsPerOp))
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

// runCompare implements `-compare old.json new.json`: it prints a
// per-benchmark table with the ns/op delta and returns 1 when any
// benchmark from the old file is missing or allocates more. New-only
// benchmarks are reported but never fail the comparison (they have no
// baseline yet).
func runCompare(files []string) int {
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
	newByName, oldByName := byName(fresh), byName(old)

	var violations []string
	for _, o := range old {
		n, ok := newByName[o.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: missing from %s", o.Name, files[1]))
			continue
		}
		status := "ok"
		if n.AllocsPerOp > o.AllocsPerOp {
			status = "ALLOCS"
			violations = append(violations, fmt.Sprintf(
				"%s: allocs/op %.0f -> %.0f", o.Name, o.AllocsPerOp, n.AllocsPerOp))
		}
		fmt.Printf("%-60s %12.0f %12.0f %+8.1f%% %7.0f %7.0f  %s\n",
			o.Name, o.NsPerOp, n.NsPerOp, percent(n.NsPerOp, o.NsPerOp), o.AllocsPerOp, n.AllocsPerOp, status)
	}
	for _, n := range fresh {
		if _, ok := oldByName[n.Name]; !ok {
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

// runFaster implements `-faster file.json 'A<B'`: benchmark A must be
// strictly faster (lower ns/op) than benchmark B in the file.
func runFaster(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson: -faster needs exactly two arguments: file.json 'A<B'")
		return 2
	}
	file, expr := args[0], args[1]
	nameA, nameB, ok := strings.Cut(expr, "<")
	if !ok || nameA == "" || nameB == "" {
		fmt.Fprintf(os.Stderr, "benchjson: bad -faster expression %q (want 'A<B')\n", expr)
		return 2
	}
	recs, err := load(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	recByName := byName(recs)
	a, okA := recByName[nameA]
	b, okB := recByName[nameB]
	if !okA || !okB {
		fmt.Fprintf(os.Stderr, "benchjson: -faster: %s missing %q or %q\n", file, nameA, nameB)
		return 1
	}
	delta := percent(a.NsPerOp, b.NsPerOp)
	if a.NsPerOp < b.NsPerOp {
		fmt.Printf("faster: %s %.0f ns/op < %s %.0f ns/op (%+.1f%%)\n",
			a.Name, a.NsPerOp, b.Name, b.NsPerOp, delta)
		return 0
	}
	fmt.Fprintf(os.Stderr, "benchjson: ordering violated: %s %.0f ns/op !< %s %.0f ns/op (%+.1f%%) at GOMAXPROCS %d on %d core(s)\n",
		a.Name, a.NsPerOp, b.Name, b.NsPerOp, delta, a.MaxProcs, a.Cores)
	return 1
}

// byName indexes records by benchmark name.
func byName(recs []record) map[string]record {
	m := make(map[string]record, len(recs))
	for _, r := range recs {
		m[r.Name] = r
	}
	return m
}

// percent is how far x lies above ref, in percent of ref (0 when ref
// is not positive).
func percent(x, ref float64) float64 {
	if ref <= 0 {
		return 0
	}
	return (x - ref) / ref * 100
}
