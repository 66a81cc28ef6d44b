package stats

import (
	"sync/atomic"
	"time"
)

// LatencyBounds are a latency histogram's bucket upper bounds in seconds,
// ascending; a final +Inf bucket catches the rest.
type LatencyBounds [7]float64

// Histogram counts latencies into the buckets of a LatencyBounds and keeps
// their count and sum. Its owner passes the same bounds to every call.
// Observe takes no lock and allocates nothing, so a request path can call
// it on every request. The zero Histogram is empty; it must not be copied.
type Histogram struct {
	count   atomic.Uint64
	nanos   atomic.Uint64
	buckets [len(LatencyBounds{}) + 1]atomic.Uint64
}

// Observe counts one latency d.
func (h *Histogram) Observe(b *LatencyBounds, d time.Duration) {
	h.count.Add(1)
	h.nanos.Add(uint64(d.Nanoseconds()))
	sec := d.Seconds()
	for i, bound := range b {
		if sec <= bound {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(b)].Add(1)
}

// HistogramSnapshot is a histogram's cumulative Prometheus-style bucket
// counts plus its count and sum.
type HistogramSnapshot struct {
	Count        uint64        `json:"count"`
	TotalSeconds float64       `json:"total_seconds"`
	Buckets      []BucketCount `json:"buckets"`
}

// BucketCount is one cumulative histogram bucket: how many latencies were
// at or under LeSeconds. The +Inf bucket is encoded as Inf=true.
type BucketCount struct {
	LeSeconds float64 `json:"le_seconds"`
	Inf       bool    `json:"inf,omitempty"`
	Count     uint64  `json:"count"`
}

// Snapshot reads the histogram's counters.
func (h *Histogram) Snapshot(b *LatencyBounds) HistogramSnapshot {
	out := HistogramSnapshot{
		Count:        h.count.Load(),
		TotalSeconds: float64(h.nanos.Load()) / 1e9,
		Buckets:      make([]BucketCount, len(h.buckets)),
	}
	cum := uint64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		out.Buckets[i].Count = cum
		if i < len(b) {
			out.Buckets[i].LeSeconds = b[i]
		} else {
			out.Buckets[i].Inf = true
		}
	}
	return out
}
