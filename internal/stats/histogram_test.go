package stats

import (
	"testing"
	"time"
)

// TestHistogram: a latency lands in the first bucket whose bound it does
// not exceed, past the last bound in +Inf; snapshots are cumulative with
// the count and sum; and Observe allocates nothing.
func TestHistogram(t *testing.T) {
	b := LatencyBounds{0.001, 0.005, 0.02, 0.1, 0.5, 2, 10}
	var h Histogram
	for _, d := range []time.Duration{0, time.Millisecond, 3 * time.Millisecond, 2 * time.Second, time.Minute} {
		h.Observe(&b, d)
	}
	s := h.Snapshot(&b)
	if s.Count != 5 || s.TotalSeconds != 62.004 {
		t.Fatalf("count %d, total %v s", s.Count, s.TotalSeconds)
	}
	want := []uint64{2, 3, 3, 3, 3, 4, 4, 5}
	if len(s.Buckets) != len(want) {
		t.Fatalf("%d buckets, want %d", len(s.Buckets), len(want))
	}
	for i, bk := range s.Buckets {
		inf := i == len(b)
		if bk.Count != want[i] || bk.Inf != inf || (!inf && bk.LeSeconds != b[i]) {
			t.Errorf("bucket %d = %+v, want count %d", i, bk, want[i])
		}
	}
	if a := testing.AllocsPerRun(100, func() { h.Observe(&b, time.Millisecond) }); a != 0 {
		t.Fatalf("Observe allocates %v times", a)
	}
}
