package main

import (
	"fmt"
	"testing"
	"time"
)

func TestSegmentedFiguresIgnoreOneStalledSegment(t *testing.T) {
	const n = 20000
	ph := &phase{start: make([]time.Duration, n), latency: make([]time.Duration, n), failed: make([]bool, n)}
	for i := range ph.latency {
		ph.latency[i] = time.Millisecond
		if i < n/10 {
			ph.latency[i] = 50 * time.Millisecond // the first segment stalls
		}
		if i > 0 {
			ph.start[i] = ph.start[i-1] + ph.latency[i-1]
		}
	}
	for _, p := range []float64{50, 90, 99} {
		if v, k := segmentedPercentile(ph, p, 1); v != 1 || k != maxSegments {
			t.Errorf("p%g = %v over %d segments, want 1 over %d", p, v, k, maxSegments)
		}
	}
	if v, _ := segmentedThroughput(ph, 1); v != 1000 {
		t.Errorf("throughput = %v, want 1000", v)
	}
	// Too few samples for ten beyond p90 in two segments: one segment.
	ph.latency, ph.failed, ph.start = ph.latency[:150], ph.failed[:150], ph.start[:150]
	if _, k := segmentedPercentile(ph, 90, 1); k != 1 {
		t.Errorf("p90 of 150 samples over %d segments, want 1", k)
	}
}

func TestSegmentsFollowTheSchedulePeriod(t *testing.T) {
	for _, c := range []struct {
		n, minLen, period int
		want              [][2]int
	}{
		{100, 1, 20, [][2]int{{0, 20}, {20, 40}, {40, 60}, {60, 80}, {80, 100}}},
		{100, 20, 20, [][2]int{{0, 20}, {20, 40}, {40, 60}, {60, 80}, {80, 100}}},
		{100, 100, 20, [][2]int{{0, 100}}},
		{110, 1, 20, [][2]int{{0, 20}, {20, 40}, {40, 60}, {60, 80}, {80, 110}}},
		{15, 1, 20, [][2]int{{0, 15}}},
		{150, 15, 1, [][2]int{{0, 15}, {15, 30}, {30, 45}, {45, 60}, {60, 75}, {75, 90}, {90, 105}, {105, 120}, {120, 135}, {135, 150}}},
	} {
		got := segments(c.n, c.minLen, c.period)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("segments(%d, %d, %d) = %v, want %v", c.n, c.minLen, c.period, got, c.want)
		}
	}
}
