package mp

import (
	"fmt"
	"math"
	"testing"
)

// ckptWavefrontProgram is wavefrontProgram with a parametric checkpoint
// after every ckptEvery-th iteration's collective (none after the last),
// matching how the pace template lays out checkpoints. The charge table
// holds the checkpoint cost in slot 0.
func ckptWavefrontProgram(px, py, iters, ckptEvery int) func(c *Comm) error {
	return func(c *Comm) error {
		ix, iy := c.Rank()%px, c.Rank()/px
		for it := 0; it < iters; it++ {
			c.Charge(1e-4 * float64(1+c.Rank()%3))
			for _, sx := range []int{+1, -1} {
				for _, sy := range []int{+1, -1} {
					upX, downX := ix-sx, ix+sx
					upY, downY := iy-sy, iy+sy
					if upX >= 0 && upX < px {
						c.RecvN(iy*px+upX, 1)
					}
					if upY >= 0 && upY < py {
						c.RecvN(upY*px+ix, 2)
					}
					c.ChargeExact(2e-4)
					if downX >= 0 && downX < px {
						c.SendN(iy*px+downX, 1, 1200, nil)
					}
					if downY >= 0 && downY < py {
						c.SendN(downY*px+ix, 2, 960, nil)
					}
				}
			}
			c.AllreduceMax(float64(c.Rank()))
			if ckptEvery > 0 && (it+1)%ckptEvery == 0 && it != iters-1 {
				c.Checkpoint(0)
			}
		}
		c.AllreduceSum(1)
		return nil
	}
}

// testFailStops hits an interior rank twice (stacked rework), rank 0's
// first op (no checkpoint yet: rewind to time zero), and a late op of the
// last rank.
func testFailStops() []FailStop {
	return []FailStop{
		{Rank: 5, Op: 19, Restart: 4e-3},
		{Rank: 0, Op: 0, Restart: 1e-3},
		{Rank: 5, Op: 19, Restart: 2e-3},
		{Rank: 11, Op: 44, Restart: 5e-4},
	}
}

// failStopOpts are the options of the checkpointed equivalence wavefront:
// injected failures plus delays and noise, with a fresh probe and fail log.
func failStopOpts(net NetworkModel, seed int64) Options {
	return Options{
		Net:     net,
		Noise:   jitterNoise{0.04},
		Seed:    seed,
		Delays:  testDelays(),
		Fails:   testFailStops(),
		FailLog: &FailLog{},
		Probe:   &RunProbe{},
	}
}

// runFailStopWavefront runs the checkpointed equivalence wavefront on the
// event backend under failStopOpts.
func runFailStopWavefront(t *testing.T, net NetworkModel, seed int64) (*World, *RunProbe, *FailLog) {
	t.Helper()
	opts := failStopOpts(net, seed)
	w, err := NewWorld(12, opts)
	if err != nil {
		t.Fatal(err)
	}
	w.SetParams([]float64{3e-4}, nil)
	if err := w.Run(ckptWavefrontProgram(4, 3, 4, 2)); err != nil {
		t.Fatal(err)
	}
	return w, opts.Probe, opts.FailLog
}

// TestSchedulerEquivalenceFailStop extends the cross-backend equivalence
// harness to fail-stop failures with checkpoint/restart, over flat and
// hierarchical (two- and three-level, deterministic and jittered)
// interconnects: the event backend and a replay of the recorded trace must
// agree bit for bit on every rank's clock, on the probe timelines, and on
// the failure accounting. On the jittered nets the event backend runs the
// scenario and a replay is refused.
func TestSchedulerEquivalenceFailStop(t *testing.T) {
	nets := map[string]NetworkModel{"flat": alphaBeta{alpha: 2e-5, beta: 1e-8}}
	for name, net := range testHierNets() {
		nets[name] = net
	}
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{3, 77} {
				e, ep, el := runFailStopWavefront(t, net, seed)
				// Replay the recorded trace; nothing may move a bit.
				opts := failStopOpts(net, seed)
				if drawsCosts(net) {
					requireRefused(t, fmt.Sprintf("seed %d", seed), 12, opts, []float64{3e-4}, nil, ckptWavefrontProgram(4, 3, 4, 2))
					continue
				}
				rp := recordReplay(t, 12, opts, []float64{3e-4}, nil, ckptWavefrontProgram(4, 3, 4, 2))
				requireSameClocks(t, fmt.Sprintf("seed %d", seed), e, rp)
				requireSameProbe(t, name, "event vs trace", ep, opts.Probe)
				requireSameFailLog(t, name, "event vs trace", el, opts.FailLog)
			}
		})
	}
}

// requireSameFailLog asserts two fail logs recorded bit-identical events.
func requireSameFailLog(t *testing.T, name, scheds string, a, b *FailLog) {
	t.Helper()
	ae, be := a.Events(), b.Events()
	if len(ae) != len(be) {
		t.Fatalf("%s: fail log length %d vs %d (%s)", name, len(ae), len(be), scheds)
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("%s: fail event %d: %+v vs %+v (%s)", name, i, ae[i], be[i], scheds)
		}
	}
}

// TestFailStopRewindSemantics pins the recovery model on the event
// backend: a failure charges exactly (clock - lastCkpt) + restart to the
// failed rank at the failure instant, rewinding to time zero when no
// checkpoint was taken, and a checkpointed run pays the checkpoint charge
// but bounds the rework.
func TestFailStopRewindSemantics(t *testing.T) {
	const ckptSec = 3e-4
	run := func(fails []FailStop, ckptEvery int) (*World, *FailLog) {
		flog := &FailLog{}
		w, err := NewWorld(12, Options{
			Net:     alphaBeta{alpha: 2e-5, beta: 1e-8},
			Seed:    9,
			Fails:   fails,
			FailLog: flog,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.SetParams([]float64{ckptSec}, nil)
		if err := w.Run(ckptWavefrontProgram(4, 3, 4, ckptEvery)); err != nil {
			t.Fatal(err)
		}
		return w, flog
	}

	base, _ := run(nil, 0)
	baseCk, _ := run(nil, 2)
	// Checkpointing alone costs exactly the checkpoint charges (absorbed or
	// not, the makespan cannot shrink).
	if baseCk.Makespan() < base.Makespan() {
		t.Fatalf("checkpointed baseline %v faster than plain %v", baseCk.Makespan(), base.Makespan())
	}

	// One failure late in an uncheckpointed run: the rank rewinds to time
	// zero, so its rework equals its full clock at the failure instant.
	fails := []FailStop{{Rank: 5, Op: 50, Restart: 2e-3}}
	_, flog := run(fails, 0)
	ev := flog.Events()[0]
	if !ev.Applied {
		t.Fatal("failure did not fire")
	}
	if ev.LastCkpt != 0 {
		t.Fatalf("uncheckpointed rewind target %v, want 0", ev.LastCkpt)
	}
	if ev.Rework != ev.At {
		t.Fatalf("rework %v != clock at failure %v", ev.Rework, ev.At)
	}
	if flog.Applied() != 1 || flog.ReworkSeconds() != ev.Rework || flog.RestartSeconds() != 2e-3 {
		t.Fatalf("log accounting: applied %d rework %v restart %v",
			flog.Applied(), flog.ReworkSeconds(), flog.RestartSeconds())
	}

	// The same failure with checkpoints every 2 iterations rewinds to a
	// checkpoint instead: strictly less rework, strictly positive target.
	_, flogCk := run(fails, 2)
	evCk := flogCk.Events()[0]
	if !evCk.Applied {
		t.Fatal("checkpointed failure did not fire")
	}
	if evCk.LastCkpt <= 0 {
		t.Fatalf("checkpointed rewind target %v, want > 0", evCk.LastCkpt)
	}
	if evCk.Rework >= ev.Rework {
		t.Fatalf("checkpointed rework %v not below uncheckpointed %v", evCk.Rework, ev.Rework)
	}
	if math.Abs(evCk.Rework-(evCk.At-evCk.LastCkpt)) > 1e-18 {
		t.Fatalf("rework %v != At-LastCkpt %v", evCk.Rework, evCk.At-evCk.LastCkpt)
	}

	// A failure spec beyond the rank's program never fires and leaves its
	// slot unapplied without disturbing the run.
	w, flogNop := run([]FailStop{{Rank: 3, Op: 100000, Restart: 1}}, 2)
	if flogNop.Applied() != 0 {
		t.Fatalf("phantom failure applied: %+v", flogNop.Events())
	}
	for i := 0; i < 12; i++ {
		if w.Clock(i) != baseCk.Clock(i) {
			t.Fatalf("unfired failure moved rank %d: %v vs %v", i, w.Clock(i), baseCk.Clock(i))
		}
	}
}

// TestFailStopValidation checks both entry points reject malformed specs.
func TestFailStopValidation(t *testing.T) {
	bad := [][]FailStop{
		{{Rank: -1, Op: 0, Restart: 1}},
		{{Rank: 12, Op: 0, Restart: 1}},
		{{Rank: 0, Op: -3, Restart: 1}},
		{{Rank: 0, Op: 0, Restart: -1}},
		{{Rank: 0, Op: 0, Restart: math.NaN()}},
		{{Rank: 0, Op: 0, Restart: math.Inf(1)}},
	}
	for i, fails := range bad {
		if _, err := NewWorld(12, Options{Fails: fails}); err == nil {
			t.Errorf("case %d: NewWorld accepted invalid fail-stop %+v", i, fails[0])
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
	for i, fails := range bad {
		if err := rp.Replay(tr, Options{Fails: fails}, ReplayParams{}); err == nil {
			t.Errorf("case %d: Replay accepted invalid fail-stop %+v", i, fails[0])
		}
	}
}

// TestFailStopStacking pins stacked failures at one (rank, op) slot: the
// segment is re-executed once per failure, so the second event's rework
// includes the first event's charges.
func TestFailStopStacking(t *testing.T) {
	flog := &FailLog{}
	w, err := NewWorld(12, Options{
		Net:  alphaBeta{alpha: 2e-5, beta: 1e-8},
		Seed: 1,
		Fails: []FailStop{
			{Rank: 5, Op: 19, Restart: 1e-3},
			{Rank: 5, Op: 19, Restart: 1e-3},
		},
		FailLog: flog,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.SetParams([]float64{3e-4}, nil)
	if err := w.Run(ckptWavefrontProgram(4, 3, 4, 2)); err != nil {
		t.Fatal(err)
	}
	a, b := flog.Events()[0], flog.Events()[1]
	if !a.Applied || !b.Applied {
		t.Fatalf("stacked failures did not both fire: %+v %+v", a, b)
	}
	// Same rewind target; the second failure replays the first's rework and
	// restart on top.
	if a.LastCkpt != b.LastCkpt {
		t.Fatalf("rewind targets differ: %v vs %v", a.LastCkpt, b.LastCkpt)
	}
	want := a.Rework + a.Rework + a.Restart
	if math.Abs(b.Rework-want) > 1e-15 {
		t.Fatalf("second rework %v, want %v (first rework %v + first charge)", b.Rework, want, a.Rework)
	}
}
