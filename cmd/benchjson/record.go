package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// record is one benchmark measurement: the JSON schema committed as
// BENCH_pool.json.
type record struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// MaxProcs is the GOMAXPROCS the measurement ran at (the -N name
	// suffix of the benchmark line); 0 in baselines recorded before the
	// field existed.
	MaxProcs int `json:"maxprocs,omitempty"`
	// Cores is runtime.NumCPU() on the machine that took the
	// measurement, stamped at write time. GOMAXPROCS can be set above
	// the processor count, so MaxProcs alone cannot tell whether
	// hardware parallelism actually existed; the parallel-beats-
	// sequential gate is only physically meaningful when both MaxProcs
	// and Cores are at least 2. 0 in baselines recorded before the
	// field existed.
	Cores int `json:"cores,omitempty"`
}

// normalize rounds away measurement noise that is not a real resource:
// when a benchmark performs zero allocations per op, any nonzero B/op
// is go test's integer-averaged rounding residue of sub-alloc noise
// (one stray warm-up allocation amortized over the op count), not a
// steady-state byte cost — it is forced to 0 so committed baselines
// don't encode phantom bytes (the stale `b_per_op: 1` of the old t4
// record). Applied before every write, so gates can rely on it.
func (r *record) normalize() {
	if r.AllocsPerOp == 0 {
		r.BPerOp = 0
	}
}

// parseLine parses one `go test -bench -benchmem` result line, e.g.
//
//	BenchmarkPoolThroughput/submitters_4-8  100  668626 ns/op  69 B/op  0 allocs/op
//
// The trailing -N GOMAXPROCS suffix is stripped from the name and
// recorded as MaxProcs (go test omits the suffix entirely at
// GOMAXPROCS 1); custom ReportMetric columns are ignored. Cores is not
// derivable from the line — callers stamp it (see record.Cores).
func parseLine(line string) (record, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return record{}, false
	}
	name := f[0]
	procs := 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
			procs = n
		}
	}
	rec := record{Name: name, MaxProcs: procs}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return record{}, false
		}
		switch f[i+1] {
		case "ns/op":
			rec.NsPerOp = v
			seen = true
		case "B/op":
			rec.BPerOp = v
		case "allocs/op":
			rec.AllocsPerOp = v
		}
	}
	return rec, seen
}

// load reads one benchjson output file (a JSON array of records) and
// rejects empty files, which always indicate a harness mistake rather
// than a benchmark with nothing to say.
func load(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark records", path)
	}
	return recs, nil
}

// write emits recs as indented JSON, the committed-baseline format.
func write(w io.Writer, recs []record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}
