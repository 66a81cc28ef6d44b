package mp

import (
	"fmt"
	"math"
	"testing"
)

// testDelays is a small scenario touching an interior rank, rank 0's very
// first op, and a late op of the last rank; two delays stack on one slot.
func testDelays() []Delay {
	return []Delay{
		{Rank: 5, Op: 7, Seconds: 2e-3},
		{Rank: 0, Op: 0, Seconds: 1e-3},
		{Rank: 11, Op: 40, Seconds: 5e-4},
		{Rank: 5, Op: 7, Seconds: 3e-4},
	}
}

// perturbedOpts are the options of the standard equivalence wavefront with
// injected delays and a fresh probe attached.
func perturbedOpts(net NetworkModel, seed int64, delays []Delay) Options {
	return Options{
		Net:    net,
		Noise:  jitterNoise{0.04},
		Seed:   seed,
		Delays: delays,
		Probe:  &RunProbe{},
	}
}

// runPerturbedWavefront runs the standard equivalence wavefront on the
// event backend under perturbedOpts.
func runPerturbedWavefront(t *testing.T, net NetworkModel, seed int64, delays []Delay) (*World, *RunProbe) {
	t.Helper()
	opts := perturbedOpts(net, seed, delays)
	w, err := NewWorld(12, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(wavefrontProgram(4, 3, 4)); err != nil {
		t.Fatal(err)
	}
	return w, opts.Probe
}

// requireSameProbe asserts two probes recorded bit-identical clock and
// idle timelines.
func requireSameProbe(t *testing.T, name, scheds string, a, b *RunProbe) {
	t.Helper()
	if a.Generations() != b.Generations() || a.Ranks() != b.Ranks() {
		t.Fatalf("%s: probe shape %dx%d vs %dx%d (%s)",
			name, a.Generations(), a.Ranks(), b.Generations(), b.Ranks(), scheds)
	}
	for g := 0; g < a.Generations(); g++ {
		ac, bc := a.ClockRow(g), b.ClockRow(g)
		ai, bi := a.IdleRow(g), b.IdleRow(g)
		for r := range ac {
			if ac[r] != bc[r] {
				t.Fatalf("%s gen %d rank %d: clock %v vs %v (%s)", name, g, r, ac[r], bc[r], scheds)
			}
			if ai[r] != bi[r] {
				t.Fatalf("%s gen %d rank %d: idle %v vs %v (%s)", name, g, r, ai[r], bi[r], scheds)
			}
		}
	}
}

// TestSchedulerEquivalenceInjectedDelays extends the cross-backend
// equivalence harness to fault injection: with the same injected-delay
// scenario (plus compute noise), the event backend and a replay of the
// recorded trace must agree bit for bit on every rank's clock and on the
// probe's clock/idle timelines. On the jittered nets the event backend
// runs the scenario and a replay is refused.
func TestSchedulerEquivalenceInjectedDelays(t *testing.T) {
	nets := map[string]NetworkModel{"flat": alphaBeta{alpha: 2e-5, beta: 1e-8}}
	for name, net := range testHierNets() {
		nets[name] = net
	}
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{3, 77} {
				e, ep := runPerturbedWavefront(t, net, seed, testDelays())
				// Replay the recorded trace; nothing may move a bit.
				opts := perturbedOpts(net, seed, testDelays())
				if drawsCosts(net) {
					requireRefused(t, fmt.Sprintf("seed %d", seed), 12, opts, nil, nil, wavefrontProgram(4, 3, 4))
					continue
				}
				rp := recordReplay(t, 12, opts, nil, nil, wavefrontProgram(4, 3, 4))
				requireSameClocks(t, fmt.Sprintf("seed %d", seed), e, rp)
				requireSameProbe(t, name, "event vs trace", ep, opts.Probe)
			}
		})
	}
}

// TestDelayInjectionShiftsClocks pins the injector's semantics: a delayed
// run can only be slower, the injected rank is damaged by at least its own
// (unabsorbed) delay budget's effect, and a delay-free Delays slice is a
// true no-op (bit-identical to the baseline).
func TestDelayInjectionShiftsClocks(t *testing.T) {
	net := alphaBeta{alpha: 2e-5, beta: 1e-8}
	run := func(delays []Delay) *World {
		w, err := NewWorld(12, Options{Net: net, Seed: 9, Delays: delays})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(wavefrontProgram(4, 3, 4)); err != nil {
			t.Fatal(err)
		}
		return w
	}
	base := run(nil)
	empty := run([]Delay{})
	for i := 0; i < 12; i++ {
		if base.Clock(i) != empty.Clock(i) {
			t.Fatalf("empty delay slice moved rank %d: %v vs %v", i, empty.Clock(i), base.Clock(i))
		}
	}
	const d = 5e-3
	pert := run([]Delay{{Rank: 5, Op: 0, Seconds: d}})
	if pert.Makespan() < base.Makespan() {
		t.Fatalf("perturbed makespan %v < baseline %v", pert.Makespan(), base.Makespan())
	}
	if pert.Makespan() > base.Makespan()+d+1e-12 {
		t.Fatalf("damage %v exceeds injected %v", pert.Makespan()-base.Makespan(), d)
	}
	// A delay at op 0 lands before the rank's first collective, so it must
	// damage the rank's clock at least until the next synchronisation point
	// absorbs it; with d far above the program's total slack, global damage
	// must be visible.
	if pert.Makespan()-base.Makespan() < d/2 {
		t.Fatalf("a %vs delay produced only %vs damage", d, pert.Makespan()-base.Makespan())
	}
}

// TestDelayValidation checks both entry points reject malformed delays.
func TestDelayValidation(t *testing.T) {
	bad := [][]Delay{
		{{Rank: -1, Op: 0, Seconds: 1}},
		{{Rank: 12, Op: 0, Seconds: 1}},
		{{Rank: 0, Op: -3, Seconds: 1}},
		{{Rank: 0, Op: 0, Seconds: -1}},
		{{Rank: 0, Op: 0, Seconds: math.NaN()}},
		{{Rank: 0, Op: 0, Seconds: math.Inf(1)}},
	}
	for i, delays := range bad {
		if _, err := NewWorld(12, Options{Delays: delays}); err == nil {
			t.Errorf("case %d: NewWorld accepted invalid delay %+v", i, delays[0])
		}
	}

	w, err := NewWorld(4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.RunRecorded(func(c *Comm) error { c.Barrier(); return nil })
	if err != nil {
		t.Fatal(err)
	}
	rp := NewReplayer()
	for i, delays := range bad {
		if err := rp.Replay(tr, Options{Delays: delays}, ReplayParams{}); err == nil {
			t.Errorf("case %d: Replay accepted invalid delay %+v", i, delays[0])
		}
	}
}

// TestOpIndexOfReduce checks the iteration->op-index mapping on a recorded
// wavefront trace: the k-th collective of each rank is found at an op whose
// kind is topReduce, indices are strictly increasing per rank, and asking
// past the recorded collectives returns -1.
func TestOpIndexOfReduce(t *testing.T) {
	const iters = 4
	w, err := NewWorld(12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.RunRecorded(wavefrontProgram(4, 3, iters))
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 12; rank++ {
		nops := tr.RankOps(rank)
		if nops == 0 {
			t.Fatalf("rank %d: empty script", rank)
		}
		prev := -1
		// wavefrontProgram runs one AllreduceMax per iteration plus a
		// final AllreduceSum.
		for k := 0; k < iters+1; k++ {
			idx := tr.OpIndexOfReduce(rank, k)
			if idx <= prev || idx >= nops {
				t.Fatalf("rank %d: reduce %d at op %d (prev %d, rank ops %d)", rank, k, idx, prev, nops)
			}
			prev = idx
		}
		if idx := tr.OpIndexOfReduce(rank, iters+1); idx != -1 {
			t.Fatalf("rank %d: phantom collective at op %d", rank, idx)
		}
	}
	// The final op of every rank must be the closing AllreduceSum.
	for rank := 0; rank < 12; rank++ {
		if got, want := tr.OpIndexOfReduce(rank, iters), tr.RankOps(rank)-1; got != want {
			t.Fatalf("rank %d: final collective at op %d, want %d", rank, got, want)
		}
	}
}

// TestRunProbeTimelines pins the probe's shape and basic physics on an
// unperturbed run: one row per collective generation, monotone per-rank
// clocks across generations, non-negative non-decreasing idle.
func TestRunProbeTimelines(t *testing.T) {
	const iters = 5
	probe := &RunProbe{}
	opts := Options{Net: alphaBeta{alpha: 2e-5, beta: 1e-8}, Seed: 1, Probe: probe}
	w, err := NewWorld(12, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(wavefrontProgram(4, 3, iters)); err != nil {
		t.Fatal(err)
	}
	if got, want := probe.Generations(), iters+1; got != want {
		t.Fatalf("generations = %d, want %d", got, want)
	}
	if probe.Ranks() != 12 {
		t.Fatalf("ranks = %d, want 12", probe.Ranks())
	}
	for r := 0; r < 12; r++ {
		prevClock, prevIdle := -1.0, 0.0
		for g := 0; g < probe.Generations(); g++ {
			c, id := probe.ClockRow(g)[r], probe.IdleRow(g)[r]
			if c <= prevClock {
				t.Fatalf("rank %d gen %d: clock %v not increasing (prev %v)", r, g, c, prevClock)
			}
			if id < prevIdle {
				t.Fatalf("rank %d gen %d: idle %v decreased (prev %v)", r, g, id, prevIdle)
			}
			prevClock, prevIdle = c, id
		}
	}
	// Another run with the probe must reset it, not append.
	if w, err = NewWorld(12, opts); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(wavefrontProgram(4, 3, iters)); err != nil {
		t.Fatal(err)
	}
	if got, want := probe.Generations(), iters+1; got != want {
		t.Fatalf("after rerun: generations = %d, want %d", got, want)
	}
}

// TestRunProbeRecordAllocs: recording G generations into a fresh probe
// sized for them takes a constant number of allocations, two (one per
// matrix) outside the race detector, whatever G; so does a warmed replay
// into a fresh probe, which sizes the probe from the trace.
func TestRunProbeRecordAllocs(t *testing.T) {
	const n = 16
	record := func(gens int) float64 {
		got := 0
		allocs := testing.AllocsPerRun(5, func() {
			var p RunProbe
			p.reset(n, gens)
			for g := 0; g < gens; g++ {
				for r := 0; r < n; r++ {
					p.record(g, r, float64(g), float64(r))
				}
			}
			got = p.Generations()
		})
		if got != gens {
			t.Fatalf("%d generations recorded as %d", gens, got)
		}
		return allocs
	}
	one := record(1)
	for _, gens := range []int{13, 1000} {
		if a := record(gens); a != one || a > 4 {
			t.Errorf("%d generations: %v allocations, one generation %v", gens, a, one)
		}
	}
	net := alphaBeta{alpha: 2e-5, beta: 1e-8}
	replay := func(iters int) float64 {
		w, err := NewWorld(12, Options{Net: net})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := w.RunRecorded(wavefrontProgram(4, 3, iters))
		if err != nil {
			t.Fatal(err)
		}
		rp := NewReplayer()
		opts := Options{Net: net, Probe: &RunProbe{}}
		if err := rp.Replay(tr, opts, ReplayParams{}); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			opts.Probe = &RunProbe{}
			if err := rp.Replay(tr, opts, ReplayParams{}); err != nil {
				t.Fatal(err)
			}
		})
		if g := opts.Probe.Generations(); g != iters+1 {
			t.Fatalf("probe recorded %d generations, want %d", g, iters+1)
		}
		return allocs
	}
	if short, long := replay(4), replay(200); long != short || long > 6 {
		t.Errorf("warmed replay into a fresh probe: %v allocations at 201 generations, %v at 5", long, short)
	}
}
