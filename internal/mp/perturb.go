package mp

// Fault injection: one-off per-rank delays and run probes.
//
// A Delay pins extra seconds to one recordable operation of one rank; the
// injector advances a per-rank operation counter that counts exactly the
// operations a trace records (charges with positive cost, parametric
// charges, sends, receives, collectives, marks, checkpoints), so an op
// index means the same instant on the event backend and in a trace
// replay — the bit-identical-clock guarantee extends to perturbed runs. Fail-stop failures ride the same counter; see
// failstop.go. A
// RunProbe captures per-rank timelines (virtual clock and accumulated
// idle time at every collective generation) that the perturb package
// turns into idle-wave reports.

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Delay is one injected one-off delay: Seconds of extra virtual time
// charged to Rank immediately before its Op-th recordable operation.
// Several delays may target the same (rank, op) slot; they stack.
type Delay struct {
	Rank    int
	Op      int
	Seconds float64
}

// validDelays rejects out-of-range or non-finite delays up front, so a
// malformed scenario fails loudly instead of silently never firing.
func validDelays(n int, delays []Delay) error {
	for _, d := range delays {
		if d.Rank < 0 || d.Rank >= n {
			return fmt.Errorf("mp: delay rank %d out of range [0,%d)", d.Rank, n)
		}
		if d.Op < 0 {
			return fmt.Errorf("mp: delay op %d negative (rank %d)", d.Op, d.Rank)
		}
		if d.Seconds < 0 || math.IsNaN(d.Seconds) || math.IsInf(d.Seconds, 0) {
			return fmt.Errorf("mp: delay seconds %v invalid (rank %d op %d)", d.Seconds, d.Rank, d.Op)
		}
	}
	return nil
}

// rankDelays partitions delays into per-rank queues ordered by op index.
// The returned slices are private copies; callers hand them out as
// consumable cursors without mutating the caller's spec.
func rankDelays(n int, delays []Delay) [][]Delay {
	if len(delays) == 0 {
		return nil
	}
	sorted := make([]Delay, len(delays))
	copy(sorted, delays)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Rank != sorted[j].Rank {
			return sorted[i].Rank < sorted[j].Rank
		}
		return sorted[i].Op < sorted[j].Op
	})
	per := make([][]Delay, n)
	lo := 0
	for hi := 1; hi <= len(sorted); hi++ {
		if hi == len(sorted) || sorted[hi].Rank != sorted[lo].Rank {
			per[sorted[lo].Rank] = sorted[lo:hi:hi]
			lo = hi
		}
	}
	return per
}

// RunProbe records per-rank timelines during a run: at every collective
// generation g, each rank's virtual clock on entry (after any injected
// delay at that op) and its accumulated idle time so far. Idle time is
// receive wait (message availability minus the receiver's clock when it
// arrives early) plus collective wait (the collective's completion time
// minus the rank's entry). Rows are dense [generation][rank] matrices;
// identical runs on any backend produce bit-identical rows.
//
// A probe is owned by one run at a time: Run/Replay reset it, and the
// recording is single-writer per (generation, rank) cell, so reads are
// safe once the run returns.
type RunProbe struct {
	n      int
	clocks []float64
	idle   []float64
}

// reset empties the probe for a run of n ranks and makes room for gens
// generations, when the caller knows how many the run has, so that a trace
// replay grows each matrix at most once.
func (p *RunProbe) reset(n, gens int) {
	p.n = n
	p.clocks = slices.Grow(p.clocks[:0], gens*n)
	p.idle = slices.Grow(p.idle[:0], gens*n)
}

// record writes rank's entry state for collective generation gen, growing
// the matrices to cover the generation, zeroed, on its first touch. Both
// backends call it from one rank at a time, so it needs no lock.
func (p *RunProbe) record(gen, rank int, clock, idle float64) {
	if need := (gen + 1) * p.n; len(p.clocks) < need {
		p.clocks = zeroTo(p.clocks, need)
		p.idle = zeroTo(p.idle, need)
	}
	p.clocks[gen*p.n+rank] = clock
	p.idle[gen*p.n+rank] = idle
}

// zeroTo extends s to length n, the new elements zero, in one step.
func zeroTo(s []float64, n int) []float64 {
	m := len(s)
	s = slices.Grow(s, n-m)[:n]
	clear(s[m:])
	return s
}

// Ranks returns the probed world size.
func (p *RunProbe) Ranks() int { return p.n }

// Generations returns how many collective generations were recorded.
func (p *RunProbe) Generations() int {
	if p.n == 0 {
		return 0
	}
	return len(p.clocks) / p.n
}

// ClockRow returns the per-rank entry clocks of generation g, aliasing
// the probe's storage.
func (p *RunProbe) ClockRow(g int) []float64 {
	return p.clocks[g*p.n : (g+1)*p.n]
}

// IdleRow returns the per-rank accumulated idle seconds on entry to
// generation g, aliasing the probe's storage.
func (p *RunProbe) IdleRow(g int) []float64 {
	return p.idle[g*p.n : (g+1)*p.n]
}
