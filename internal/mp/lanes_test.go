package mp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// laneTestNets are the nets the lane generator runs on: none and a flat
// and a hierarchical deterministic net, which replay with their noise
// bound into a table, and a flat and a hierarchical jittered net, which
// only the event backend runs (a replay refuses them).
func laneTestNets() []struct {
	name string
	net  NetworkModel
} {
	hier := testHierNets()
	return []struct {
		name string
		net  NetworkModel
	}{
		{"nil", nil},
		{"flat", alphaBeta{alpha: 1e-5, beta: 2e-9}},
		{"two-level", hier["two-level"]},
		{"jitter", jitterNet{alphaBeta{alpha: 1e-5, beta: 2e-9}, 0.1}},
		{"two-level-jitter", hier["two-level-jitter"]},
	}
}

// randomLane draws one run of a lane pass over tr: delays at about one op
// in five (so they land on every macro sub-step), up to three fail-stops,
// and a probe and a fail log each three times in four. One lane in five
// is unperturbed.
func randomLane(rng *rand.Rand, tr *Trace) Lane {
	var l Lane
	if rng.Intn(5) > 0 {
		for r := 0; r < tr.Ranks(); r++ {
			for op := 0; op < tr.RankOps(r); op++ {
				if rng.Intn(5) == 0 {
					l.Delays = append(l.Delays, Delay{Rank: r, Op: op, Seconds: rng.Float64() * 2e-3})
				}
			}
		}
		for i := rng.Intn(4); i > 0; i-- {
			r := rng.Intn(tr.Ranks())
			l.Fails = append(l.Fails, FailStop{Rank: r, Op: rng.Intn(tr.RankOps(r) + 2), Restart: rng.Float64() * 1e-3})
		}
	}
	if rng.Intn(4) > 0 {
		l.Probe = &RunProbe{}
	}
	if rng.Intn(4) > 0 {
		l.FailLog = &FailLog{}
	}
	return l
}

// TestLaneReplayRandomPrograms is the lane generator: noisy random
// programs (noisyRandomProgram: parametric and noisy literal charges,
// one- and two-receive macros, checkpoints, collectives) replayed as
// passes of 1, 2, 3 and 5 lanes with random per-lane delays, fail-stops,
// probes and fail logs, on the nets of laneTestNets, with compute noise
// drawn live from per-rank streams. Every lane's clocks,
// makespan, probe rows and fail log must equal a solo replay of that run
// and the event backend's run of it bit for bit, and lane 0's marks the
// solo replay's. On a jittered net the event backend runs the program and
// both a solo replay and a 2-lane pass are refused.
func TestLaneReplayRandomPrograms(t *testing.T) {
	const n, steps = 6, 15
	charges := []float64{3e-4, 7e-4, 1.1e-3, 2e-4} // entry 3: checkpoint write
	noise := jitterNoise{0.3}
	trials := 6
	if testing.Short() {
		trials = 2
	}
	pass, solo := NewReplayer(), NewReplayer()
	for trial := 0; trial < trials; trial++ {
		seed := int64(5000 + trial)
		prog := noisyRandomProgram(n, steps, seed)
		rec, err := NewWorld(n, Options{Net: alphaBeta{alpha: 1e-5, beta: 2e-9}, Noise: noise, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rec.SetParams(charges, nil)
		tr, err := rec.RunRecorded(prog)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, nt := range laneTestNets() {
			opts := Options{Net: nt.net, Noise: noise, Seed: seed}
			params := ReplayParams{Charges: charges}
			if drawsCosts(nt.net) {
				ew, err := NewWorld(n, opts)
				if err != nil {
					t.Fatal(err)
				}
				ew.SetParams(charges, nil)
				if err := ew.Run(prog); err != nil {
					t.Fatalf("seed %d %s: event: %v", seed, nt.name, err)
				}
				requireRefusesTrace(t, fmt.Sprintf("seed %d %s", seed, nt.name), tr, opts, params)
				continue
			}
			for _, nl := range []int{1, 2, 3, 5} {
				name := fmt.Sprintf("seed %d %s L=%d", seed, nt.name, nl)
				lanes := make([]Lane, nl)
				for k := range lanes {
					lanes[k] = randomLane(rng, tr)
				}
				if err := pass.ReplayLanes(tr, opts, params, lanes); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for k, l := range lanes {
					lname := fmt.Sprintf("%s lane %d", name, k)
					one := opts
					one.Delays, one.Fails, one.Probe, one.FailLog = l.Delays, l.Fails, &RunProbe{}, &FailLog{}
					if err := solo.Replay(tr, one, params); err != nil {
						t.Fatalf("%s: solo: %v", lname, err)
					}
					ev := one
					ev.Probe, ev.FailLog = &RunProbe{}, &FailLog{}
					ew, err := NewWorld(n, ev)
					if err != nil {
						t.Fatal(err)
					}
					ew.SetParams(charges, nil)
					if err := ew.Run(prog); err != nil {
						t.Fatalf("%s: event: %v", lname, err)
					}
					requireMatchesEvent(t, lname+" solo", solo, ew)
					for i := 0; i < n; i++ {
						if got, want := pass.LaneClock(k, i), solo.Clock(i); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: rank %d clock %v, solo %v", lname, i, got, want)
						}
					}
					if got, want := pass.LaneMakespan(k), solo.Makespan(); got != want {
						t.Fatalf("%s: makespan %v, solo %v", lname, got, want)
					}
					if l.Probe != nil {
						requireSameProbe(t, lname, "lane vs solo", l.Probe, one.Probe)
						requireSameProbe(t, lname, "lane vs event", l.Probe, ev.Probe)
					}
					if l.FailLog != nil {
						requireSameFailLog(t, lname, "lane vs solo", l.FailLog, one.FailLog)
						requireSameFailLog(t, lname, "lane vs event", l.FailLog, ev.FailLog)
					}
					if k == 0 {
						for m, want := range solo.Marks() {
							if got := pass.Marks()[m]; got != want {
								t.Fatalf("%s: mark %d %v, solo %v", lname, m, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestLaneReplayRejects: a lane pass needs a lane, takes its events and
// recorders per lane only, and validates every lane's events.
func TestLaneReplayRejects(t *testing.T) {
	tr := recordParamRing(t, 4, 3)
	rp := NewReplayer()
	p := ReplayParams{Charges: []float64{1e-3}, Sizes: []int{512}}
	if err := rp.ReplayLanes(tr, Options{}, p, nil); err == nil {
		t.Fatal("a pass with no lanes replayed")
	}
	if err := rp.ReplayLanes(tr, Options{Probe: &RunProbe{}}, p, []Lane{{}}); err == nil {
		t.Fatal("a pass took a probe in Options")
	}
	bad := []Lane{{}, {Delays: []Delay{{Rank: 9, Op: 0, Seconds: 1}}}}
	if err := rp.ReplayLanes(tr, Options{}, p, bad); err == nil {
		t.Fatal("a pass took a delay outside the world")
	}
	bad = []Lane{{}, {Fails: []FailStop{{Rank: 0, Op: -1}}}}
	if err := rp.ReplayLanes(tr, Options{}, p, bad); err == nil {
		t.Fatal("a pass took a fail-stop at a negative op")
	}
}

// TestLaneReplayZeroAllocs: a warmed pass of unperturbed lanes with
// probes, repeated on the same trace, allocates nothing, like a warmed
// one-lane replay.
func TestLaneReplayZeroAllocs(t *testing.T) {
	tr := recordParamRing(t, 6, 20)
	rp := NewReplayer()
	opts := Options{Net: alphaBeta{alpha: 1e-6, beta: 1e-9}}
	p := ReplayParams{Charges: []float64{1e-3}, Sizes: []int{512}}
	lanes := []Lane{{Probe: &RunProbe{}}, {Probe: &RunProbe{}}, {}}
	for i := 0; i < 2; i++ {
		if err := rp.ReplayLanes(tr, opts, p, lanes); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := rp.ReplayLanes(tr, opts, p, lanes); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed 3-lane pass: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkTraceReplayLanes times a matched set's pass on the perturbed
// loop: a 4x4 wavefront of 12 iterations under a deterministic net with
// compute noise, every lane recording a probe, as a pass of 1, 2 and 4
// lanes. Each op makes, seeds and draws the 16 per-rank noise streams and
// drops them on return, as every noisy replay does. lanes=1 is a single
// perturbed replay (the cost of RunPerturbed, NoiseCurve and the
// resilience baseline); the others show what each further lane adds.
func BenchmarkTraceReplayLanes(b *testing.B) {
	charges := []float64{1e-4}
	opts := Options{Net: alphaBeta{alpha: 1e-6, beta: 1e-9}, Noise: jitterNoise{0.2}, Seed: 7}
	w, err := NewWorld(16, opts)
	if err != nil {
		b.Fatal(err)
	}
	w.SetParams(charges, nil)
	tr, err := w.RunRecorded(wavefrontProgram(4, 4, 12))
	if err != nil {
		b.Fatal(err)
	}
	p := ReplayParams{Charges: charges}
	for _, nl := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("lanes=%d", nl), func(b *testing.B) {
			rp := NewReplayer()
			lanes := make([]Lane, nl)
			for k := range lanes {
				lanes[k].Probe = &RunProbe{}
			}
			for i := 0; i < 2; i++ {
				if err := rp.ReplayLanes(tr, opts, p, lanes); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rp.ReplayLanes(tr, opts, p, lanes); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Ops()), "ops/lane")
		})
	}
}
