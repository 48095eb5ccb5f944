package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	for _, tc := range []struct {
		name, line string
		want       record
		ok         bool
	}{
		{"suffix stripped and recorded",
			"BenchmarkPoolThroughput/submitters_4-8  100  668626 ns/op  69 B/op  2 allocs/op",
			record{Name: "BenchmarkPoolThroughput/submitters_4", NsPerOp: 668626, BPerOp: 69, AllocsPerOp: 2, MaxProcs: 8}, true},
		{"no suffix at GOMAXPROCS 1",
			"BenchmarkNativeRunner/t2  200  1500 ns/op  0 B/op  0 allocs/op",
			record{Name: "BenchmarkNativeRunner/t2", NsPerOp: 1500, MaxProcs: 1}, true},
		{"a dash that is not a suffix stays in the name",
			"BenchmarkDoacross/rare-case  10  42 ns/op",
			record{Name: "BenchmarkDoacross/rare-case", NsPerOp: 42, MaxProcs: 1}, true},
		{"ReportMetric columns ignored",
			"BenchmarkDoacrossStream/t2-2  300  520000 ns/op  0.1200 parks/op  0 B/op  0 allocs/op",
			record{Name: "BenchmarkDoacrossStream/t2", NsPerOp: 520000, MaxProcs: 2}, true},
		{"no ns/op column", "BenchmarkX-2  100  12 B/op  1 allocs/op", record{}, false},
		{"non-numeric value", "BenchmarkX-2  100  fast ns/op", record{}, false},
		{"too short", "BenchmarkX-2 100", record{}, false},
	} {
		got, ok := parseLine(tc.line)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("%s: parseLine = %+v, %v; want %+v, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

func TestNormalize(t *testing.T) {
	for _, tc := range []struct {
		in, want record
	}{
		{record{BPerOp: 3, AllocsPerOp: 0}, record{BPerOp: 0, AllocsPerOp: 0}},
		{record{BPerOp: 48, AllocsPerOp: 1}, record{BPerOp: 48, AllocsPerOp: 1}},
	} {
		got := tc.in
		got.normalize()
		if got != tc.want {
			t.Errorf("normalize(%+v) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

const benchOutput = `goos: linux
BenchmarkPoolThroughput/submitters_1-2   100   5000 ns/op   7 B/op   0 allocs/op
BenchmarkBatchThroughput/run-2           100   9000 ns/op  96 B/op   3 allocs/op
PASS
`

func TestGate(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"no gate", nil, 0},
		{"gate on the clean row", []string{"-gate", "^BenchmarkPool"}, 0},
		{"gate on the allocating row", []string{"-gate", "^BenchmarkBatch"}, 1},
		{"budget covers it", []string{"-gate", "^BenchmarkBatch", "-max-allocs", "3"}, 0},
		{"bad regexp", []string{"-gate", "("}, 2},
	} {
		var out bytes.Buffer
		if code := runConvert(tc.args, strings.NewReader(benchOutput), &out); code != tc.code {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.code)
		}
		if tc.code == 2 {
			continue
		}
		// A gate violation still leaves the records behind.
		var recs []record
		if err := json.Unmarshal(out.Bytes(), &recs); err != nil || len(recs) != 2 {
			t.Errorf("%s: wrote %q (%v), want two records", tc.name, out.String(), err)
			continue
		}
		if recs[0].BPerOp != 0 || recs[0].MaxProcs != 2 || recs[0].Cores < 1 {
			t.Errorf("%s: first record %+v not normalized and stamped", tc.name, recs[0])
		}
	}
	if code := runConvert(nil, strings.NewReader("PASS\n"), new(bytes.Buffer)); code != 2 {
		t.Errorf("no bench lines: exit %d, want 2", code)
	}
}

// writeRecs stores recs as a benchjson file under the test's directory.
func writeRecs(t *testing.T, name string, recs []record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f, recs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	base := []record{{Name: "A", NsPerOp: 100}, {Name: "B", NsPerOp: 200, AllocsPerOp: 1}}
	old := writeRecs(t, "old.json", base)
	for _, tc := range []struct {
		name  string
		fresh []record
		extra []string
		code  int
	}{
		{"identical", base, nil, 0},
		{"within tolerance", []record{{Name: "A", NsPerOp: 104}, base[1]}, nil, 0},
		{"slower than tolerance", []record{{Name: "A", NsPerOp: 120}, base[1]}, nil, 1},
		{"wider tolerance", []record{{Name: "A", NsPerOp: 120}, base[1]}, []string{"-tolerance", "25"}, 0},
		{"missing row", base[:1], nil, 1},
		{"allocs increase", []record{base[0], {Name: "B", NsPerOp: 200, AllocsPerOp: 2}}, nil, 1},
		{"new-only row", append([]record{{Name: "C", NsPerOp: 1, AllocsPerOp: 9}}, base...), nil, 0},
	} {
		args := append([]string{old, writeRecs(t, "new.json", tc.fresh)}, tc.extra...)
		if code := runCompare(args); code != tc.code {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.code)
		}
	}
	if code := runCompare([]string{old}); code != 2 {
		t.Errorf("one file: exit %d, want 2", code)
	}
	if code := runCompare([]string{old, filepath.Join(t.TempDir(), "absent.json")}); code != 2 {
		t.Errorf("unreadable file: exit %d, want 2", code)
	}
}

func TestFaster(t *testing.T) {
	multi := writeRecs(t, "multi.json", []record{
		{Name: "t1", NsPerOp: 100, MaxProcs: 2, Cores: 2},
		{Name: "t2", NsPerOp: 60, MaxProcs: 2, Cores: 2},
	})
	single := writeRecs(t, "single.json", []record{
		{Name: "t1", NsPerOp: 100, MaxProcs: 2, Cores: 1},
		{Name: "t2", NsPerOp: 130, MaxProcs: 2, Cores: 1},
	})
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"holds", []string{multi, "t2<t1"}, 0},
		{"holds under -hard", []string{"-hard", multi, "t2<t1"}, 0},
		{"violated on two cores", []string{multi, "t1<t2"}, 1},
		{"advisory on cores=1", []string{single, "t2<t1"}, 0},
		{"-hard refuses the advisory", []string{"-hard", single, "t2<t1"}, 1},
		{"missing name", []string{multi, "t4<t1"}, 1},
		{"bad expression", []string{multi, "t2"}, 2},
		{"no expression", []string{multi}, 2},
	} {
		if code := runFaster(tc.args); code != tc.code {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.code)
		}
	}
}
