package main

// Metric bookkeeping and the output format: one human-readable line per
// metric (name, value, unit, sample count), then the result as one JSON
// object on the last line of standard output.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in print order, each with a note on how it was
// measured.
type report struct {
	res   result
	names []string
	notes map[string]string

	problems []string // failed requests and broken guards, for standard error
	infos    []string // printed lines of figures left out of the result
}

func newReport() *report {
	return &report{res: result{Metrics: map[string]metric{}}, notes: map[string]string{}}
}

func (r *report) add(name string, value float64, unit, note string) {
	if _, dup := r.res.Metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.res.Metrics[name] = metric{Value: value, Unit: unit}
	r.notes[name] = note
}

// info prints a figure on its own line without adding it to the result.
func (r *report) info(name string, value float64, unit, note string) {
	r.infos = append(r.infos, fmt.Sprintf("  %-36s %14.6g %-6s %s", name, value, unit, note))
}

// write prints the human-readable lines and then the JSON result line.
func (r *report) write(w io.Writer, header string) error {
	fmt.Fprintln(w, header)
	for _, name := range r.names {
		m := r.res.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.6g %-6s %s\n", name, m.Value, m.Unit, r.notes[name])
	}
	for _, line := range r.infos {
		fmt.Fprintln(w, line)
	}
	line, err := json.Marshal(&r.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// failedLatency stands in for the latency of a failed request, which
// misses every latency limit.
const failedLatency = math.MaxFloat64

// latencySamples returns the latencies of requests [lo, hi) in
// milliseconds, sorted, with failed requests as failedLatency.
func latencySamples(ph *phase, lo, hi int) []float64 {
	out := make([]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		v := ms(ph.latency[i])
		if ph.failed[i] {
			v = failedLatency
		}
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// maxSegments bounds how many consecutive segments of the timed list an
// end-to-end figure is taken over. Each figure is the median of its
// per-segment values, so a stall of the host that lasts a few seconds moves
// one segment, not the run's figure.
const maxSegments = 10

// segments splits n requests into at most maxSegments consecutive ranges
// of at least minLen requests each, cut only at multiples of period, the
// length of the list's repeating schedule (one range when n is too short).
// The last range also takes a trailing partial period.
func segments(n, minLen, period int) [][2]int {
	period = max(1, period)
	units := n / period
	k := max(1, min(maxSegments, units/((minLen+period-1)/period)))
	out := make([][2]int, k)
	for s := range out {
		out[s] = [2]int{s * units / k * period, (s + 1) * units / k * period}
	}
	out[k-1][1] = n
	return out
}

// segmentedPercentile is the median over segments of the nearest-rank p-th
// percentile, each segment long enough to keep ten samples beyond p and
// made of whole schedule periods. It also returns the segment count.
func segmentedPercentile(ph *phase, p float64, period int) (float64, int) {
	segs := segments(len(ph.latency), int(math.Ceil(1000/(100-p))), period)
	vals := make([]float64, len(segs))
	for s, r := range segs {
		vals[s] = percentile(latencySamples(ph, r[0], r[1]), p)
	}
	return median(vals), len(segs)
}

// segmentedThroughput is the median over segments of successful replies
// per second, a segment's time running from its first send to its last
// reply. Each segment holds whole schedule periods, so each times the
// same mix of requests.
func segmentedThroughput(ph *phase, period int) (float64, int) {
	segs := segments(len(ph.latency), 1, period)
	vals := make([]float64, len(segs))
	for s, r := range segs {
		first, last, ok := time.Duration(math.MaxInt64), time.Duration(0), 0
		for i := r[0]; i < r[1]; i++ {
			first = min(first, ph.start[i])
			last = max(last, ph.start[i]+ph.latency[i])
			if !ph.failed[i] {
				ok++
			}
		}
		vals[s] = ratio(float64(ok), (last - first).Seconds())
	}
	return median(vals), len(segs)
}

// percentile is the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	k = max(0, min(k, len(sorted)-1))
	return sorted[k]
}

// percentileOf is percentile over unsorted values.
func percentileOf(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, p)
}

func median(v []float64) float64 { return percentileOf(v, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
