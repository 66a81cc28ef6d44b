package mp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// withWorkers forces every admissible fused replay onto k workers until the
// test ends.
func withWorkers(t testing.TB, k int) {
	old := testWorkers
	testWorkers = k
	t.Cleanup(func() { testWorkers = old })
}

// replayWorkers replays tr on rp with fused replays forced onto k workers
// (0: admission as in production) and returns the replay's stats.
func replayWorkers(t testing.TB, rp *Replayer, k int, tr *Trace, opts Options, p ReplayParams) ReplayStats {
	t.Helper()
	old := testWorkers
	testWorkers = k
	err := rp.Replay(tr, opts, p)
	testWorkers = old
	if err != nil {
		t.Fatalf("replay on %d workers: %v", k, err)
	}
	return rp.Stats()
}

// requireSameReplay requires two finished replays of one trace to agree
// bit for bit on every rank's clock and every mark slot, and on the cycle
// counters of their stats.
func requireSameReplay(t testing.TB, name string, a, b *Replayer) {
	t.Helper()
	for i := range a.rk {
		if x, y := a.Clock(i), b.Clock(i); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s: rank %d clock %v (%x) vs %v (%x)", name, i, x, math.Float64bits(x), y, math.Float64bits(y))
		}
	}
	for m := range a.Marks() {
		if x, y := a.Marks()[m], b.Marks()[m]; math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s: mark %d %v vs %v", name, m, x, y)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	sa.Workers, sb.Workers, sa.Serial, sb.Serial = 0, 0, "", ""
	if sa != sb {
		t.Fatalf("%s: stats %+v vs %+v", name, sa, sb)
	}
}

// requireMatchesEvent requires a finished replay to agree with an event
// backend run on every rank's clock and every mark slot.
func requireMatchesEvent(t testing.TB, name string, rp *Replayer, ev *World) {
	t.Helper()
	for i := 0; i < ev.Size(); i++ {
		if got, want := rp.Clock(i), ev.Clock(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: rank %d clock %v, event %v", name, i, got, want)
		}
	}
	for m, want := range ev.Marks() {
		got := 0.0
		if m < len(rp.Marks()) {
			got = rp.Marks()[m]
		}
		if got != want {
			t.Fatalf("%s: mark %d = %v, event %v", name, m, got, want)
		}
	}
}

// soloMarkedWavefront is markedWavefront with rank 0 the only writer of
// its two mark slots.
func soloMarkedWavefront(px, py, iters int) func(c *Comm) error {
	body := wavefrontProgram(px, py, 1)
	return func(c *Comm) error {
		for it := 0; it < iters; it++ {
			if it == 0 && c.Rank() == 0 {
				c.Mark(0)
			}
			if err := body(c); err != nil {
				return err
			}
			if it == 0 && c.Rank() == 0 {
				c.Mark(1)
			}
		}
		return nil
	}
}

// randomMarkedProgram is a random ring exchange with occasional collectives
// in which each rank writes its own mark slot, rank%MaxMarks, at a random
// step: on more than MaxMarks ranks that shares slots, below it every slot
// has one writer.
func randomMarkedProgram(n, steps int, seed int64) func(c *Comm) error {
	return func(c *Comm) error {
		rng := rand.New(rand.NewSource(seed + int64(c.Rank())))
		shape := rand.New(rand.NewSource(seed)) // identical on every rank
		next, prev := (c.Rank()+1)%n, (c.Rank()+n-1)%n
		markAt := rng.Intn(steps)
		for i := 0; i < steps; i++ {
			both := shape.Intn(2) == 0
			c.ChargeExact(rng.Float64() * 1e-3)
			c.SendN(next, 2*i, 64+rng.Intn(4096), nil)
			if both {
				c.SendN(prev, 2*i+1, 64+rng.Intn(4096), nil)
			}
			c.RecvN(prev, 2*i)
			if both {
				c.RecvN(next, 2*i+1)
			}
			if i == markAt {
				c.Mark(c.Rank() % MaxMarks)
			}
			if shape.Intn(4) == 0 {
				c.Barrier()
			}
		}
		return nil
	}
}

// TestParallelReplayRandomPrograms: random programs on flat and
// hierarchical deterministic nets, over ragged rank ranges, replay
// bit-identically on one, two and three workers, and match the event
// backend.
func TestParallelReplayRandomPrograms(t *testing.T) {
	nets := map[string]NetworkModel{
		"flat": alphaBeta{alpha: 1e-5, beta: 2e-9},
		"nil":  nil,
	}
	for name, net := range testHierNets() {
		if net.jitter == 0 {
			nets[name] = net
		}
	}
	for name, net := range nets {
		for trial := 0; trial < 8; trial++ {
			n := 3 + trial%6 // 3..8 ranks: ranges split unevenly
			seed := int64(5000 + trial)
			prog := randomMarkedProgram(n, 12+trial, seed)
			ev, err := NewWorld(n, Options{Net: net})
			if err != nil {
				t.Fatal(err)
			}
			if err := ev.Run(prog); err != nil {
				t.Fatal(err)
			}
			rec, err := NewWorld(n, Options{Net: net})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := rec.RunRecorded(prog)
			if err != nil {
				t.Fatal(err)
			}
			serial := NewReplayer()
			replayWorkers(t, serial, 1, tr, Options{Net: net}, ReplayParams{})
			for _, k := range []int{2, 3} {
				label := fmt.Sprintf("%s n=%d trial %d workers=%d", name, n, trial, k)
				rp := NewReplayer()
				if st := replayWorkers(t, rp, k, tr, Options{Net: net}, ReplayParams{}); st.Workers != k {
					t.Fatalf("%s: ran on %d workers", label, st.Workers)
				}
				requireSameReplay(t, label, serial, rp)
				requireMatchesEvent(t, label, rp, ev)
			}
		}
	}
}

// TestParallelReplayExtrapolation: generated periodic programs whose costs
// sit on binade edges and half-ulp ties, replayed at long horizons, jump
// binades identically on one, two and three workers and match a full event
// run. A second replay of the same inputs on the warmed replayers repeats
// the first, on the parallel path as on the serial one.
func TestParallelReplayExtrapolation(t *testing.T) {
	trials, maxExtra := 16, 5000
	if testing.Short() {
		trials, maxExtra = 6, 1000
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(9100 + trial)
		rng := rand.New(rand.NewSource(seed))
		scale := -14 + rng.Intn(10)
		costs := &edgeCosts{rng: rng, scale: scale, tieLo: scale + 1, tieHi: scale + 18}
		g := newGenProgram(rng, costs)
		var net NetworkModel
		if trial%3 != 0 {
			m := &edgeNet{}
			for i := range genSizes {
				m.send[i], m.recv[i], m.transit[i] = costs.draw(), costs.draw(), costs.draw()
			}
			m.reduce[0], m.reduce[1] = costs.draw(), costs.draw()
			net = m
		}
		base := 4 + rng.Intn(5)
		w, err := g.world(net)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := w.RunRecorded(g.program(base))
		if err != nil {
			t.Fatal(err)
		}
		if tr.sharedMark {
			t.Fatalf("seed %d: generated program shares a mark slot", seed)
		}
		serial, par2, par3 := NewReplayer(), NewReplayer(), NewReplayer()
		for _, extra := range []int{0, 1 + rng.Intn(10), maxExtra - rng.Intn(maxExtra/10)} {
			iters := base + extra
			ref, err := g.world(net)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Run(g.program(iters)); err != nil {
				t.Fatal(err)
			}
			p := ReplayParams{Charges: g.charges, ExtraCycles: extra}
			for pass := 0; pass < 2; pass++ { // a warmed replayer repeats itself
				replayWorkers(t, serial, 1, tr, Options{Net: net}, p)
				requireMatchesEvent(t, fmt.Sprintf("seed %d iters=%d serial", seed, iters), serial, ref)
				for k, rp := range map[int]*Replayer{2: par2, 3: par3} {
					label := fmt.Sprintf("seed %d iters=%d pass %d workers=%d", seed, iters, pass, k)
					if st := replayWorkers(t, rp, k, tr, Options{Net: net}, p); st.Workers != min(k, g.n) {
						t.Fatalf("%s: ran on %d workers", label, st.Workers)
					}
					requireSameReplay(t, label, serial, rp)
				}
			}
		}
	}
}

// TestParallelReplayWarmRepeat: a warmed replayer repeats a long-horizon
// wavefront replay, serially and on two workers, with the clocks, marks
// and cycle counters of a cold serial replay: a replay keeps nothing from
// the replays before it.
func TestParallelReplayWarmRepeat(t *testing.T) {
	const px, py, iters = 4, 3, 10
	net := alphaBeta{alpha: 2e-5, beta: 1e-8}
	w, err := NewWorld(px*py, Options{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.RunRecorded(soloMarkedWavefront(px, py, iters))
	if err != nil {
		t.Fatal(err)
	}
	p := ReplayParams{ExtraCycles: 5000}
	cold := NewReplayer()
	if st := replayWorkers(t, cold, 1, tr, Options{Net: net}, p); st.ExtrapolatedCycles == 0 {
		t.Fatalf("cold replay extrapolated nothing: %+v", st)
	}
	warm := NewReplayer()
	for pass, k := range []int{1, 1, 2, 2} {
		label := fmt.Sprintf("pass %d workers=%d", pass, k)
		if st := replayWorkers(t, warm, k, tr, Options{Net: net}, p); st.Workers != k {
			t.Fatalf("%s: ran on %d workers", label, st.Workers)
		}
		requireSameReplay(t, label, cold, warm)
	}
}

// TestParallelReplaySharedMarkRunsSerially: a trace in which two ranks
// write one mark slot replays on one worker, even when forced.
func TestParallelReplaySharedMarkRunsSerially(t *testing.T) {
	const n = MaxMarks + 3
	prog := randomMarkedProgram(n, 10, 77)
	w, err := NewWorld(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.RunRecorded(prog)
	if err != nil {
		t.Fatal(err)
	}
	st := replayWorkers(t, NewReplayer(), 2, tr, Options{}, ReplayParams{})
	if st.Workers != 1 || st.Serial != SerialSharedMark {
		t.Fatalf("shared-mark trace: workers %d, serial %q", st.Workers, st.Serial)
	}
	// Below MaxMarks ranks every slot has one writer.
	w, err = NewWorld(MaxMarks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr, err = w.RunRecorded(randomMarkedProgram(MaxMarks, 10, 77)); err != nil {
		t.Fatal(err)
	}
	if st := replayWorkers(t, NewReplayer(), 2, tr, Options{}, ReplayParams{}); st.Workers != 2 {
		t.Fatalf("one writer per slot: workers %d, serial %q", st.Workers, st.Serial)
	}
}

// bigWavefrontTrace compiles a wavefront whose fused-op total exceeds
// parMinFusedOps.
func bigWavefrontTrace(t testing.TB) *Trace {
	t.Helper()
	const px, py = 16, 16
	for iters := 16; ; iters *= 2 {
		tr, err := CompileClasses(px*py, wavefrontClass(px, py), soloMarkedWavefront(px, py, iters))
		if err != nil {
			t.Fatal(err)
		}
		if tr.FusedOps() > parMinFusedOps {
			return tr
		}
	}
}

// TestParallelReplayAdmission pins each serial reason and the default
// admission of a large trace.
func TestParallelReplayAdmission(t *testing.T) {
	net := alphaBeta{alpha: 2e-5, beta: 1e-8}
	small, err := CompileClasses(6, func(r int) int { return r }, soloMarkedWavefront(3, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	rp := NewReplayer()
	if st := replayWorkers(t, rp, 0, small, Options{Net: net}, ReplayParams{}); st.Workers != 1 || st.Serial != SerialSmallTrace {
		t.Fatalf("small trace: workers %d, serial %q", st.Workers, st.Serial)
	}
	// Perturbed replays are not fused replays: no reason.
	if st := replayWorkers(t, rp, 2, small, Options{Net: net, Probe: &RunProbe{}}, ReplayParams{}); st.Workers != 1 || st.Serial != "" {
		t.Fatalf("probed replay: workers %d, serial %q", st.Workers, st.Serial)
	}
	big := bigWavefrontTrace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if st := replayWorkers(t, rp, 0, big, Options{Net: net}, ReplayParams{}); st.Workers != 1 || st.Serial != SerialNoIdleCPU {
		t.Fatalf("GOMAXPROCS(1): workers %d, serial %q", st.Workers, st.Serial)
	}
	runtime.GOMAXPROCS(2)
	replayPs.Add(1) // another replay holds the second P
	st := replayWorkers(t, rp, 0, big, Options{Net: net}, ReplayParams{})
	replayPs.Add(-1)
	if st.Workers != 1 || st.Serial != SerialNoIdleCPU {
		t.Fatalf("busy P: workers %d, serial %q", st.Workers, st.Serial)
	}
	if st := replayWorkers(t, rp, 0, big, Options{Net: net}, ReplayParams{}); st.Workers != parWorkers || st.Serial != "" {
		t.Fatalf("idle P: workers %d, serial %q", st.Workers, st.Serial)
	}
	if got := replayPs.Load(); got != 0 {
		t.Fatalf("%d Ps still counted after the replays", got)
	}
	serial := NewReplayer()
	replayWorkers(t, serial, 1, big, Options{Net: net}, ReplayParams{})
	requireSameReplay(t, "admitted", serial, rp)
}

// TestParallelReplayOneP: a forced two-worker replay finishes on one P, so
// no wait starves the worker it waits for.
func TestParallelReplayOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	net := alphaBeta{alpha: 2e-5, beta: 1e-8}
	w, err := NewWorld(12, Options{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.RunRecorded(soloMarkedWavefront(4, 3, 12))
	if err != nil {
		t.Fatal(err)
	}
	serial := NewReplayer()
	replayWorkers(t, serial, 1, tr, Options{Net: net}, ReplayParams{ExtraCycles: 300})
	for k := 2; k <= 3; k++ {
		par := NewReplayer()
		if st := replayWorkers(t, par, k, tr, Options{Net: net}, ReplayParams{ExtraCycles: 300}); st.Workers != k {
			t.Fatalf("workers %d, want %d", st.Workers, k)
		}
		requireSameReplay(t, fmt.Sprintf("one P, %d workers", k), serial, par)
	}
}

// TestParallelReplayStall: a trace whose ranks wait for messages nobody
// sends fails on two workers as it does on one.
func TestParallelReplayStall(t *testing.T) {
	w, err := NewWorld(4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.RunRecorded(ringProgram(3))
	if err != nil {
		t.Fatal(err)
	}
	// Drop every send: each receive waits forever.
	broken := *tr
	broken.fops = append([]fop(nil), tr.fops...)
	for i := range broken.fops {
		f := &broken.fops[i]
		switch f.kind {
		case fSend:
			f.kind = topChargeLit
			f.arg0 = 0
			broken.lits = []float64{0}
		case fMacro:
			f.ns = 0
		}
	}
	for k := 1; k <= 3; k++ {
		old := testWorkers
		testWorkers = k
		err := NewReplayer().Replay(&broken, Options{}, ReplayParams{})
		testWorkers = old
		if err != errStalled {
			t.Fatalf("%d workers: err %v, want a stall", k, err)
		}
	}
}

// TestParallelReplayAllocs: a warmed two-worker replay allocates at most a
// small constant number of objects, whatever the trace's length.
func TestParallelReplayAllocs(t *testing.T) {
	withWorkers(t, 2)
	net := alphaBeta{alpha: 2e-5, beta: 1e-8}
	w, err := NewWorld(12, Options{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.RunRecorded(soloMarkedWavefront(4, 3, 12))
	if err != nil {
		t.Fatal(err)
	}
	rp := NewReplayer()
	for i := 0; i < 3; i++ {
		if err := rp.Replay(tr, Options{Net: net}, ReplayParams{}); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(20, func() {
		if err := rp.Replay(tr, Options{Net: net}, ReplayParams{}); err != nil {
			t.Fatal(err)
		}
	})
	if rp.Stats().Workers != 2 {
		t.Fatalf("replay ran on %d workers", rp.Stats().Workers)
	}
	if avg > 2 {
		t.Fatalf("warmed parallel replay: %v allocations per replay, want at most 2", avg)
	}
}

// TestParallelReplayPanicReachesCaller: a replay whose trace sends outside
// the world panics on the caller's goroutine, on one worker or several,
// and leaves no helper goroutine behind.
func TestParallelReplayPanicReachesCaller(t *testing.T) {
	w, err := NewWorld(6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.RunRecorded(ringProgram(3))
	if err != nil {
		t.Fatal(err)
	}
	broken := *tr
	broken.fops = append([]fop(nil), tr.fops...)
	for i := range broken.fops {
		switch f := &broken.fops[i]; f.kind {
		case fSend:
			f.arg0 = 100
		case fMacro:
			f.s0dst, f.s1dst = 100, 100
		}
	}
	before := runtime.NumGoroutine()
	for k := 1; k <= 3; k++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d workers: no panic", k)
				}
			}()
			old := testWorkers
			testWorkers = k
			defer func() { testWorkers = old }()
			_ = NewReplayer().Replay(&broken, Options{}, ReplayParams{})
		}()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after the panicking replays, %d before", after, before)
	}
	if n := replayPs.Load(); n != 0 {
		t.Fatalf("%d Ps still counted after the panicking replays", n)
	}
}

// TestParallelReplayInFlightAcrossCollective: a message that crosses from
// one worker to the other over every collective keeps the boundaries
// dirty, so a parallel replay refuses to extrapolate, as the serial one
// does, even when the message still sits in the receiving worker's inbox
// at the close; and the full replays agree.
func TestParallelReplayInFlightAcrossCollective(t *testing.T) {
	prog := func(c *Comm) error {
		r := c.Rank()
		for it := 0; it < 8; it++ {
			if r < 2 { // keep worker 0 busy while worker 1 reaches the collective
				for j := 0; j < 200; j++ {
					c.SendN(1-r, 1, 64, nil)
					c.RecvN(1-r, 1)
				}
			}
			if r == 1 {
				c.SendN(2, 7, 64, nil)
			}
			c.AllreduceMax(0)
			if r == 2 {
				c.RecvN(1, 7)
			}
		}
		c.AllreduceSum(0)
		return nil
	}
	net := alphaBeta{alpha: 2e-5, beta: 1e-8}
	w, err := NewWorld(4, Options{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.RunRecorded(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.CycleDetected() {
		t.Fatal("no steady cycle detected")
	}
	serial := NewReplayer()
	if err := serial.Replay(tr, Options{Net: net}, ReplayParams{ExtraCycles: 10}); err != ErrCannotExtrapolate {
		t.Fatalf("serial: err %v, want ErrCannotExtrapolate", err)
	}
	replayWorkers(t, serial, 1, tr, Options{Net: net}, ReplayParams{})
	rp := NewReplayer()
	for trial := 0; trial < 20; trial++ {
		old := testWorkers
		testWorkers = 2
		err := rp.Replay(tr, Options{Net: net}, ReplayParams{ExtraCycles: 10})
		testWorkers = old
		if err != ErrCannotExtrapolate {
			t.Fatalf("trial %d: err %v, want ErrCannotExtrapolate", trial, err)
		}
		replayWorkers(t, rp, 2, tr, Options{Net: net}, ReplayParams{})
		requireSameReplay(t, fmt.Sprintf("trial %d", trial), serial, rp)
	}
}
