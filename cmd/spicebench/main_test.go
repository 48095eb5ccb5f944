package main

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

// TestGolden holds `spicebench all` to testdata/all.golden, the record of
// the paper's tables and figures: a change that moves a figure fails here
// and shows in review as a diff of the golden file. Regenerate it with
// `go run ./cmd/spicebench all > cmd/spicebench/testdata/all.golden`.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every table and figure")
	}
	if raceEnabled {
		t.Skip("single-goroutine simulation; see race_on_test.go")
	}
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, []string{"all"}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	at := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end of output)"
	}
	for i := 0; ; i++ {
		if at(g, i) != at(w, i) {
			t.Fatalf("output differs from testdata/all.golden at line %d:\n got: %s\nwant: %s",
				i+1, at(g, i), at(w, i))
		}
	}
}

// TestArgs covers run's argument handling: bad arguments are usage
// errors (exit 2) reported before anything is simulated, and flags may
// come before or after the names.
func TestArgs(t *testing.T) {
	for _, c := range []struct {
		name  string
		args  []string
		usage bool
		want  []string // substrings of the output, in order
	}{
		{"no name", nil, true, nil},
		{"only flags", []string{"-stats"}, true, nil},
		{"unknown name", []string{"table1", "fig9"}, true, nil},
		{"unknown flag", []string{"-size", "10", "otter"}, true, nil},
		{"unknown scheme", []string{"-scheme", "greedy", "otter"}, true, nil},
		{"zero threads", []string{"-threads", "0", "otter"}, true, nil},
		{"negative threads", []string{"otter", "-threads", "-1"}, true, nil},
		{"names in order", []string{"fig2", "table1"}, false, []string{"Figure 2", "Table 1"}},
		{"flags after names", []string{"table1", "-scheme", "paper", "fig5"}, false, []string{"Table 1", "Figure 5"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(&out, c.args)
			if c.usage {
				if !errors.Is(err, errUsage) {
					t.Fatalf("run(%q) = %v, want a usage error", c.args, err)
				}
				if out.Len() != 0 {
					t.Errorf("run(%q) printed before failing:\n%s", c.args, out.String())
				}
				return
			}
			if err != nil {
				t.Fatalf("run(%q) = %v", c.args, err)
			}
			rest := out.String()
			for _, w := range c.want {
				i := strings.Index(rest, w)
				if i < 0 {
					t.Fatalf("run(%q): %q missing or out of order in:\n%s", c.args, w, out.String())
				}
				rest = rest[i+len(w):]
			}
		})
	}
}
