package main

import (
	"math"
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
		{3e9, time.Nanosecond}, // under the clock's resolution: the finest tick
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

func TestCheckMaxInflight(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{
		{256, true},
		{1, true},
		{0, false},  // every arrival dropped, no request sent
		{-1, false}, // makechan: size out of range
		{math.MinInt, false},
	} {
		if err := checkMaxInflight(tc.n); (err == nil) != tc.ok {
			t.Errorf("checkMaxInflight(%d) = %v; want ok %v", tc.n, err, tc.ok)
		}
	}
}

func TestCheckBackoff(t *testing.T) {
	for _, tc := range []struct {
		base time.Duration
		ok   bool
	}{
		{100 * time.Millisecond, true},
		{time.Nanosecond, true},
		{0, false}, // read as overflowed: a 2.5–7.5 s wait per retry
		{-time.Second, false},
	} {
		if err := checkBackoff(tc.base); (err == nil) != tc.ok {
			t.Errorf("checkBackoff(%v) = %v; want ok %v", tc.base, err, tc.ok)
		}
	}
}
