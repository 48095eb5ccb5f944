package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark from
// outside the program under test. Spans of one operation share Op;
// Parent is the index of the span that caused this one (-1 for a root).
type span struct {
	Lane   int    `json:"lane"` // serving client; 0 for the one library caller
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the benchmark process started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// recorder keeps spans in memory; a nil recorder records nothing, so
// the untraced run pays one nil check per call site. It is used by one
// goroutine at a time (serving clients each own a recorder).
type recorder struct {
	spans []span
}

// epoch is the common zero of every recorder's clock.
var epoch = time.Now()

func newRecorder(capacity int) *recorder {
	return &recorder{spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(op int, name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Op: op, Name: name, Start: int64(time.Since(epoch)), Parent: parent})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(epoch))
}

// child records an already-measured interval as a child of parent,
// right-aligned to the parent's end: the server reports how long a job
// ran, not when it started, so the remainder in front of it is the
// queue + transport + codec time.
func (r *recorder) child(op int, name string, parent int, dur time.Duration) {
	if r == nil {
		return
	}
	end := r.spans[parent].End
	r.spans = append(r.spans, span{Op: op, Name: name, Start: end - int64(dur), End: end, Parent: parent})
}

// selfTimes returns, per span name, every span's self time in ns: its
// duration minus the part of that interval its direct children cover
// (overlapping children are merged first, so parallel children are not
// subtracted twice).
func selfTimes(spans []span) map[string][]float64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string][]float64)
	for i, s := range spans {
		self := s.End - s.Start - covered(kids[i], s.Start, s.End)
		out[s.Name] = append(out[s.Name], float64(self))
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum int64
	curLo, curHi := int64(0), int64(-1)
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		if curHi < curLo || a > curHi {
			if curHi > curLo {
				sum += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		sum += curHi - curLo
	}
	return sum
}

// appendSpans adds one recorder's spans to dst under the given lane,
// re-basing the parent indices.
func appendSpans(dst, src []span, lane int) []span {
	base := len(dst)
	for _, s := range src {
		s.Lane = lane
		if s.Parent >= 0 {
			s.Parent += base
		}
		dst = append(dst, s)
	}
	return dst
}

// writeSpans stores the spans as one JSON array under dir.
func writeSpans(dir, workload string, spans []span) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+workload+".json"), data, 0o644)
}
