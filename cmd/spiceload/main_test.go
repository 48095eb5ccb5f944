package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestArrivalInterval(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		want time.Duration // 0: refused
	}{
		{20, 50 * time.Millisecond},
		{0.5, 2 * time.Second},
		{1e6, time.Microsecond},
		{3e9, time.Nanosecond}, // under the clock's resolution: the finest spacing
		{0, 0},
		{-5, 0},
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
	} {
		got, err := arrivalInterval(tc.rate)
		if (err != nil) != (tc.want == 0) || got != tc.want {
			t.Errorf("arrivalInterval(%v) = %v, %v; want %v (0: an error)", tc.rate, got, err, tc.want)
		}
	}
}

func TestParseTenants(t *testing.T) {
	for _, tc := range []struct {
		name, mix string
		specs     []tenantSpec
		total     int // 0: refused
	}{
		{"two tenants", "good=sumlist:8:3, bad=hostile:4000:1,",
			[]tenantSpec{{"good", "sumlist", 8, 3}, {"bad", "hostile", 4000, 1}}, 4},
		{"one tenant at the largest weight", "a=sumlist:0:9223372036854775807",
			[]tenantSpec{{"a", "sumlist", 0, math.MaxInt}}, math.MaxInt},
		{"weights overflow when summed", "a=sumlist:0:9223372036854775807,b=sumlist:0:1", nil, 0},
		{"no =", "sumlist:8:3", nil, 0},
		{"two fields", "a=sumlist:8", nil, 0},
		{"four fields", "a=sumlist:8:3:1", nil, 0},
		{"bad churn", "a=sumlist:x:3", nil, 0},
		{"zero weight", "a=sumlist:8:0", nil, 0},
		{"negative weight", "a=sumlist:8:-2", nil, 0},
		{"empty mix", " , ", nil, 0},
	} {
		specs, total, err := parseTenants(tc.mix)
		if (err != nil) != (tc.total == 0) || total != tc.total || !slices.Equal(specs, tc.specs) {
			t.Errorf("%s: parseTenants(%q) = %v, %d, %v; want %v, %d (0: an error)",
				tc.name, tc.mix, specs, total, err, tc.specs, tc.total)
		}
	}
}

// TestArrivals: arrival k is due at start + k·interval, for every such
// instant before start + duration. The schedule reads no clock, so a
// generator that falls behind gets every arrival it missed, in order.
func TestArrivals(t *testing.T) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		interval, duration time.Duration
		want               int
	}{
		{40 * time.Millisecond, time.Second, 25},
		{300 * time.Millisecond, time.Second, 4}, // 0, 300, 600, 900 ms
		{time.Second, time.Second, 1},
		{2 * time.Second, time.Second, 1},
		{time.Millisecond, 0, 0},
	} {
		var got []time.Time
		for due := range arrivals(start, tc.interval, tc.duration) {
			got = append(got, due)
		}
		if len(got) != tc.want {
			t.Errorf("interval %v over %v: %d arrivals, want %d", tc.interval, tc.duration, len(got), tc.want)
		}
		for k, due := range got {
			if want := start.Add(time.Duration(k) * tc.interval); !due.Equal(want) {
				t.Errorf("interval %v: arrival %d due %v, want %v", tc.interval, k, due, want)
			}
		}
	}
	// A consumer that stops early ends the schedule.
	n := 0
	for range arrivals(start, time.Millisecond, time.Second) {
		if n++; n == 3 {
			break
		}
	}
	if n != 3 {
		t.Errorf("%d arrivals after a break at 3", n)
	}
}
