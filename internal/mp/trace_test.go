package mp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestTraceRecordThenReplayDetNet covers the deterministic-cost replay
// fast path: recorded clocks and replayed clocks must match a fresh event
// run bit for bit, across several replays on one replayer.
func TestTraceRecordThenReplayDetNet(t *testing.T) {
	net := alphaBeta{alpha: 2e-5, beta: 1e-8}
	prog := wavefrontProgram(4, 3, 4)
	ref, err := NewWorld(12, Options{Net: net, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(prog); err != nil {
		t.Fatal(err)
	}
	tw, err := NewWorld(12, Options{Net: net, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tw.RunRecorded(prog)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ranks() != 12 || tr.Ops() == 0 {
		t.Fatalf("trace not captured: %+v", tr)
	}
	for i := 0; i < 12; i++ {
		if tw.Clock(i) != ref.Clock(i) {
			t.Fatalf("recording: clock[%d] = %v, want %v", i, tw.Clock(i), ref.Clock(i))
		}
	}
	rp := NewReplayer()
	for rep := 0; rep < 3; rep++ {
		if err := rp.Replay(tr, Options{Net: net, Seed: 11}, ReplayParams{}); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		requireSameClocks(t, fmt.Sprintf("rep %d", rep), ref, rp)
	}
}

// TestTraceChunkInterning checks that ranks with identical delta-encoded
// scripts share interned chunks: in a 16-rank ring every interior rank
// records the same ops, so the trace must be far smaller than the raw op
// stream.
func TestTraceChunkInterning(t *testing.T) {
	w, err := NewWorld(16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.RunRecorded(ringProgram(200))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ops() != 16*200*3 {
		t.Fatalf("ops = %d, want %d", tr.Ops(), 16*200*3)
	}
	// 14 interior ranks share one script; rank 0 and rank 15 differ (ring
	// wrap deltas). Generous bound: interning must cut at least 4x.
	if tr.UniqueOps()*4 > tr.Ops() {
		t.Errorf("chunk interning too weak: %d unique of %d ops", tr.UniqueOps(), tr.Ops())
	}
}

// TestTraceParamReplay is the cost-reparameterisation contract: a program
// recorded through ChargeParam/SendParam replays under swapped tables with
// clocks bit-identical to a live event run using those tables.
func TestTraceParamReplay(t *testing.T) {
	const n = 6
	prog := func(c *Comm) error {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		for i := 0; i < 8; i++ {
			c.ChargeParam(i % 3)
			c.SendParam(next, 0, i%2)
			c.RecvN(prev, 0)
			if i == 4 && c.Rank() == 0 {
				c.Mark(0)
			}
		}
		c.Barrier()
		return nil
	}
	net := alphaBeta{alpha: 1e-5, beta: 3e-9}
	chargesA := []float64{1e-4, 2e-4, 0}
	sizesA := []int{800, 1600}
	chargesB := []float64{5e-4, 1e-5, 7e-4}
	sizesB := []int{64, 4096}

	world := func(charges []float64, sizes []int) *World {
		w, err := NewWorld(n, Options{Net: net})
		if err != nil {
			t.Fatal(err)
		}
		w.SetParams(charges, sizes)
		return w
	}

	tr, err := world(chargesA, sizesA).RunRecorded(prog) // records under table A
	if err != nil {
		t.Fatal(err)
	}
	rp := NewReplayer()
	for _, tab := range []struct {
		charges []float64
		sizes   []int
	}{{chargesA, sizesA}, {chargesB, sizesB}} {
		ref := world(tab.charges, tab.sizes)
		if err := ref.Run(prog); err != nil {
			t.Fatal(err)
		}
		if err := rp.Replay(tr, Options{Net: net}, ReplayParams{Charges: tab.charges, Sizes: tab.sizes}); err != nil {
			t.Fatal(err)
		}
		requireSameClocks(t, "swapped tables", ref, rp)
		if rp.Marks()[0] != ref.Marks()[0] {
			t.Fatalf("mark = %v, want %v", rp.Marks()[0], ref.Marks()[0])
		}
	}
}

// TestTraceReplayerShared replays one trace from several Replayers and
// under different parameter tables via the public Replayer API.
func TestTraceReplayerShared(t *testing.T) {
	net := alphaBeta{alpha: 1e-5}
	w, err := NewWorld(4, Options{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	charges := []float64{2e-3}
	w.SetParams(charges, nil)
	prog := func(c *Comm) error {
		if c.Rank() > 0 {
			c.Recv(c.Rank()-1, 0)
		}
		c.ChargeParam(0)
		if c.Rank() < c.Size()-1 {
			c.SendN(c.Rank()+1, 0, 512, nil)
		}
		c.AllreduceMax(0)
		return nil
	}
	tr, err := w.RunRecorded(prog)
	if err != nil {
		t.Fatal(err)
	}
	want := w.Makespan()

	for i := 0; i < 2; i++ {
		rp := NewReplayer()
		if err := rp.Replay(tr, Options{Net: net}, ReplayParams{Charges: charges}); err != nil {
			t.Fatal(err)
		}
		if rp.Makespan() != want {
			t.Fatalf("replayer %d makespan = %v, want %v", i, rp.Makespan(), want)
		}
		// Re-parameterised replay: double the charge, makespan moves.
		if err := rp.Replay(tr, Options{Net: net}, ReplayParams{Charges: []float64{4e-3}}); err != nil {
			t.Fatal(err)
		}
		if rp.Makespan() <= want {
			t.Fatalf("re-priced makespan = %v, want > %v", rp.Makespan(), want)
		}
	}

	// Missing parameter tables must be a validation error, not a panic.
	if err := NewReplayer().Replay(tr, Options{Net: net}, ReplayParams{}); err == nil {
		t.Fatal("expected param-table validation error")
	}
}

// TestTraceFailedRecordingNotStored pins the recording failure contract:
// a deadlocked recording returns no trace, and a fresh world records the
// corrected program.
func TestTraceFailedRecordingNotStored(t *testing.T) {
	w, err := NewWorld(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.RunRecorded(func(c *Comm) error {
		if c.Rank() == 1 {
			c.Recv(0, 99) // never sent
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected deadlock error from recording run")
	}
	if tr != nil {
		t.Fatal("failed recording returned a trace")
	}
	if w, err = NewWorld(2, Options{}); err != nil {
		t.Fatal(err)
	}
	tr, err = w.RunRecorded(func(c *Comm) error {
		if c.Rank() == 0 {
			c.SendN(1, 0, 64, nil)
		} else {
			c.RecvN(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("successful recording returned no trace")
	}
}

// recordRing records ringProgram(50) on 8 ranks under opts.
func recordRing(tb testing.TB, opts Options) *Trace {
	tb.Helper()
	w, err := NewWorld(8, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := w.RunRecorded(ringProgram(50))
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// requireZeroAllocReplays warms a replayer on the trace, then requires
// zero heap allocations per further Replay.
func requireZeroAllocReplays(t *testing.T, name string, tr *Trace, opts Options) {
	t.Helper()
	rp := NewReplayer()
	// Warm: the first replays materialise the replayer and its per-rank
	// streams.
	for i := 0; i < 2; i++ {
		if err := rp.Replay(tr, opts, ReplayParams{}); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if err := rp.Replay(tr, opts, ReplayParams{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("%s: steady-state replay allocations = %v per replay (%d message ops), want 0", name, avg, 8*50*2)
	}
}

// TestTraceReplayZeroAllocs is the replay-path allocation acceptance: a
// warmed replayer must replay with zero heap allocations (precomputed price
// tables, no RNGs).
func TestTraceReplayZeroAllocs(t *testing.T) {
	opts := Options{Net: alphaBeta{alpha: 1e-6, beta: 1e-9}, Seed: 7}
	requireZeroAllocReplays(t, "flat net", recordRing(t, opts), opts)
}

// TestTraceReplayZeroAllocsDetNet is the same acceptance on a
// deterministic class-resolved net, unseeded: the per-class price tables
// are built once and reused by every further replay.
func TestTraceReplayZeroAllocsDetNet(t *testing.T) {
	opts := Options{Net: testHierNets()["three-level"]}
	requireZeroAllocReplays(t, "class net", recordRing(t, opts), opts)
}

// TestTraceReplayZeroAllocsPerturbationDisabled guards the serving fast
// path against the fault-injection machinery: a warmed replayer that has
// just executed a *perturbed* replay (delays + probe, which allocate
// cursor state) must return to zero allocations per replay the moment
// perturbation is disabled again.
func TestTraceReplayZeroAllocsPerturbationDisabled(t *testing.T) {
	net := alphaBeta{alpha: 1e-6, beta: 1e-9}
	w, err := NewWorld(8, Options{Net: net, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	prog := ringProgram(50)
	tr, err := w.RunRecorded(prog)
	if err != nil {
		t.Fatal(err)
	}
	rp := NewReplayer()
	plain := Options{Net: net, Seed: 7}
	perturbed := Options{
		Net:    net,
		Seed:   7,
		Delays: []Delay{{Rank: 3, Op: 10, Seconds: 1e-3}},
		Probe:  &RunProbe{},
	}
	// Warm the replayer, run a perturbed replay in the middle, and confirm
	// the perturbed makespan moved.
	for i := 0; i < 3; i++ {
		if err := rp.Replay(tr, plain, ReplayParams{}); err != nil {
			t.Fatal(err)
		}
	}
	base := rp.Makespan()
	if err := rp.Replay(tr, perturbed, ReplayParams{}); err != nil {
		t.Fatal(err)
	}
	if rp.Makespan() < base {
		t.Fatalf("perturbed makespan %v < baseline %v", rp.Makespan(), base)
	}
	avg := testing.AllocsPerRun(10, func() {
		if err := rp.Replay(tr, plain, ReplayParams{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("perturbation-disabled replay allocations = %v per cycle, want 0", avg)
	}
	if rp.Makespan() != base {
		t.Errorf("perturbation-disabled makespan %v != baseline %v", rp.Makespan(), base)
	}
}

// requireRepeatedReplays records prog under opts and replays the trace
// three times on one replayer; every replay must equal the event run ref
// bit for bit.
func requireRepeatedReplays(t *testing.T, ref *World, opts Options, prog func(c *Comm) error) {
	t.Helper()
	w, err := NewWorld(ref.Size(), opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.RunRecorded(prog)
	if err != nil {
		t.Fatal(err)
	}
	rp := NewReplayer()
	for rep := 0; rep < 3; rep++ {
		if err := rp.Replay(tr, opts, ReplayParams{}); err != nil {
			t.Fatal(err)
		}
		requireSameClocks(t, fmt.Sprintf("rep %d", rep), ref, rp)
	}
}

// jitterNet perturbs every alphaBeta cost with the supplied RNG stream: a
// drawing net, which the event backend runs and a trace replay refuses.
type jitterNet struct {
	alphaBeta
	frac float64
}

func (jitterNet) CostsDeterministic() bool { return false }

// TestTraceRefusesDrawingNets: Replay and a 2-lane ReplayLanes refuse every
// net that draws its costs with ErrDrawingNet, before sizing any replay
// state, with and without noise, while the event backend runs the same
// program under the same options.
func TestTraceRefusesDrawingNets(t *testing.T) {
	hier := testHierNets()
	nets := map[string]NetworkModel{
		"jitter":           jitterNet{alphaBeta{alpha: 2e-5, beta: 1e-8}, 0.2},
		"two-level-jitter": hier["two-level-jitter"],
		"wan-jitter":       hier["wan-jitter"],
	}
	prog := wavefrontProgram(4, 3, 4)
	tr := recordMarkedWavefront(t, alphaBeta{alpha: 2e-5, beta: 1e-8}, 4)
	for name, net := range nets {
		for _, noise := range []ComputeNoise{nil, jitterNoise{0.05}} {
			opts := Options{Net: net, Noise: noise, Seed: 99}
			rname := fmt.Sprintf("%s noise=%v", name, noise != nil)
			ev, err := NewWorld(12, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := ev.Run(prog); err != nil || !(ev.Makespan() > 0) {
				t.Fatalf("%s: event backend: makespan %v, err %v", rname, ev.Makespan(), err)
			}
			requireRefused(t, rname, 12, opts, nil, nil, prog)
			requireRefusesTrace(t, rname+" (other trace)", tr, opts, ReplayParams{})
		}
	}
}

// TestTraceLiveNoiseDropsStreams: a noisy replay draws from per-rank
// streams that it seeds afresh and drops on return. Alone and as lane 0
// and lane 1 of a 2-lane pass, on one reused replayer, it equals the event
// backend bit for bit, and the replayer holds no rank streams after a
// successful replay nor after a refused one (a bad lane, refused before
// the streams are made; a noisy extrapolation, refused after).
func TestTraceLiveNoiseDropsStreams(t *testing.T) {
	const n, per = 2, 256
	prog := func(c *Comm) error {
		peer := 1 - c.Rank()
		for i := 0; i < per; i++ {
			c.ChargeParam(0)
			if i%16 == 15 {
				c.SendN(peer, 0, 64, nil)
				c.RecvN(peer, 0)
			}
		}
		c.Barrier()
		return nil
	}
	opts := Options{Net: alphaBeta{alpha: 1e-6, beta: 1e-9}, Noise: jitterNoise{0.1}, Seed: 5}
	params := ReplayParams{Charges: []float64{1e-6}}
	w, err := NewWorld(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	w.SetParams(params.Charges, nil)
	tr, err := w.RunRecorded(prog)
	if err != nil {
		t.Fatal(err)
	}
	rp := NewReplayer()
	noStreams := func(name string) {
		t.Helper()
		if rp.rngs != nil {
			t.Fatalf("%s: replayer kept %d rank streams", name, len(rp.rngs))
		}
	}
	if err := rp.Replay(tr, opts, params); err != nil {
		t.Fatal(err)
	}
	requireMatchesEvent(t, "live, 1 lane", rp, w)
	noStreams("1 lane")

	delayed := Lane{Delays: []Delay{{Rank: 1, Op: 100, Seconds: 1e-3}}}
	dopts := opts
	dopts.Delays = delayed.Delays
	dw, err := NewWorld(n, dopts)
	if err != nil {
		t.Fatal(err)
	}
	dw.SetParams(params.Charges, nil)
	if err := dw.Run(prog); err != nil {
		t.Fatal(err)
	}
	if dw.Makespan() == w.Makespan() {
		t.Fatal("the delay did not move the makespan")
	}
	for k := 0; k < 2; k++ {
		if err := rp.ReplayLanes(tr, opts, params, []Lane{{}, delayed}); err != nil {
			t.Fatal(err)
		}
		for lane, ref := range []*World{w, dw} {
			for i := 0; i < n; i++ {
				if got, want := rp.LaneClock(lane, i), ref.Clock(i); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("live, pass %d, lane %d of 2: rank %d clock %v, event %v", k, lane, i, got, want)
				}
			}
		}
		noStreams(fmt.Sprintf("2-lane pass %d", k))
	}

	bad := []Lane{{}, {Delays: []Delay{{Rank: n, Op: 0, Seconds: 1}}}}
	if err := rp.ReplayLanes(tr, opts, params, bad); err == nil {
		t.Fatal("a pass took a delay outside the world")
	}
	noStreams("bad lane")
	extra := params
	extra.ExtraCycles = 1
	if err := rp.Replay(tr, opts, extra); !errors.Is(err, ErrCannotExtrapolate) {
		t.Fatalf("noisy extrapolation: err = %v, want ErrCannotExtrapolate", err)
	}
	noStreams("noisy extrapolation")
}

func (m jitterNet) jitter(v float64, rng *rand.Rand) float64 {
	return v * (1 + m.frac*(2*rng.Float64()-1))
}
func (m jitterNet) SendOverhead(b int, rng *rand.Rand) float64 {
	return m.jitter(m.alphaBeta.SendOverhead(b, rng), rng)
}
func (m jitterNet) RecvOverhead(b int, rng *rand.Rand) float64 {
	return m.jitter(m.alphaBeta.RecvOverhead(b, rng), rng)
}
func (m jitterNet) Transit(b int, rng *rand.Rand) float64 {
	return m.jitter(m.alphaBeta.Transit(b, rng), rng)
}
func (m jitterNet) ReduceCost(p, b int, rng *rand.Rand) float64 {
	return m.jitter(m.alphaBeta.ReduceCost(p, b, rng), rng)
}

// TestTraceStreamOverflow exercises a wide stream slot table: each of 3
// ranks exchanges on 14 (src, tag) pairs, 28 receiver-side slots in all,
// and must replay bit-identically (and keep doing so across reuse).
func TestTraceStreamOverflow(t *testing.T) {
	const n, tags = 3, 7 // 7 tags x 2 peers >> 4 inline stream slots
	prog := func(c *Comm) error {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		for round := 0; round < 3; round++ {
			for tag := 0; tag < tags; tag++ {
				c.ChargeExact(1e-5 * float64(1+tag))
				c.SendN(next, tag, 64*(tag+1), nil)
				c.SendN(prev, 100+tag, 32*(tag+1), nil)
			}
			for tag := 0; tag < tags; tag++ {
				c.RecvN(prev, tag)
				c.RecvN(next, 100+tag)
			}
			c.Barrier()
		}
		return nil
	}
	net := alphaBeta{alpha: 1e-5, beta: 2e-9}
	ref, err := NewWorld(n, Options{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(prog); err != nil {
		t.Fatal(err)
	}
	requireRepeatedReplays(t, ref, Options{Net: net}, prog)
}

// TestTraceStreamSlotCap pins the stream slot cap. Rank 0 receiving from
// each of 80 ranks needs 80 slots: the event backend runs it, the trace
// backend refuses it at record time with ErrTooManyStreams (so no replayer
// and no n×D stream table is ever built), a program at the cap records,
// and a class compile one stream over the cap is refused.
func TestTraceStreamSlotCap(t *testing.T) {
	const n = 81
	gather := func(c *Comm) error {
		if c.Rank() == 0 {
			for src := 1; src < n; src++ {
				c.RecvN(src, 3)
			}
			return nil
		}
		c.SendN(0, 3, 64, nil)
		return nil
	}
	net := alphaBeta{alpha: 1e-5, beta: 2e-9}
	ev, err := NewWorld(n, Options{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Run(gather); err != nil {
		t.Fatalf("event backend: %v", err)
	}
	tw, err := NewWorld(n, Options{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	if tr, err := tw.RunRecorded(gather); !errors.Is(err, ErrTooManyStreams) || tr != nil {
		t.Fatalf("recording: trace %v, err = %v, want ErrTooManyStreams", tr, err)
	}

	// Two ranks, one stream per tag: maxStreamSlots tags fit exactly.
	tags := func(c *Comm) error {
		for tag := 0; tag < maxStreamSlots; tag++ {
			if c.Rank() == 1 {
				c.SendN(0, tag, 8, nil)
			} else {
				c.RecvN(1, tag)
			}
		}
		return nil
	}
	w, err := NewWorld(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.RunRecorded(tags)
	if err != nil {
		t.Fatal(err)
	}
	if tr.nslots != maxStreamSlots {
		t.Fatalf("nslots = %d, want %d", tr.nslots, maxStreamSlots)
	}
	// One tag more is one stream over the cap, refused by a class compile
	// as by a recording run.
	over := func(c *Comm) error {
		for tag := 0; tag <= maxStreamSlots; tag++ {
			if c.Rank() == 1 {
				c.SendN(0, tag, 8, nil)
			} else {
				c.RecvN(1, tag)
			}
		}
		return nil
	}
	if _, err := CompileClasses(2, func(r int) int { return r }, over); !errors.Is(err, ErrTooManyStreams) {
		t.Fatalf("class compile over the cap: err = %v, want ErrTooManyStreams", err)
	}
}

// BenchmarkTraceReplay measures a warmed replay of an 8-rank, 800-op ring
// trace on the fused loop (BenchmarkTraceReplayLanes/lanes=1 times the
// one-lane perturbed loop); ReportAllocs documents the zero-allocation
// steady state the CI gate holds.
func BenchmarkTraceReplay(b *testing.B) {
	opts := Options{Net: alphaBeta{alpha: 1e-6, beta: 1e-9}, Seed: 7}
	tr := recordRing(b, opts)
	rp := NewReplayer()
	if err := rp.Replay(tr, opts, ReplayParams{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rp.Replay(tr, opts, ReplayParams{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(8*50*2), "msg_ops/op")
}

// TestCompileClassesMatchesRecorded: a class compile gives the trace of a
// recording run on the event backend, for class rules down to one rank
// per class and up to the coarsest rule the program allows. The script-only
// Comm reads no parameter table, so the class compiles run with none set.
func TestCompileClassesMatchesRecorded(t *testing.T) {
	const px, py = 4, 3
	edge := func(i, n int) int {
		switch {
		case i == 0:
			return 0
		case i == n-1:
			return 2
		}
		return 1
	}
	cases := []struct {
		name  string
		n     int
		prog  func(c *Comm) error
		class func(r int) int
	}{
		{"wavefront/rank", px * py, wavefrontProgram(px, py, 5), func(r int) int { return r }},
		{"wavefront/boundary", px * py, wavefrontProgram(px, py, 5), wavefrontClass(px, py)},
		{"marked/rank", px * py, markedWavefront(px, py, 8), func(r int) int { return r }},
		{"ring/ends", 7, paramRingProgram(7, 4), func(r int) int { return edge(r, 7) }},
		{"single", 1, paramRingProgram(1, 0), func(int) int { return 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWorld(tc.n, Options{Net: alphaBeta{alpha: 2e-5, beta: 1e-8}, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			w.SetParams([]float64{1e-4}, []int{512})
			rec, err := w.RunRecorded(tc.prog)
			if err != nil {
				t.Fatal(err)
			}
			cls, err := CompileClasses(tc.n, tc.class, tc.prog)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cls, rec) {
				t.Fatalf("class compile differs from the recording (%d/%d unique ops, %d/%d ops)",
					cls.UniqueOps(), rec.UniqueOps(), cls.Ops(), rec.Ops())
			}
			// Canonical order: each rank's script names chunks it is the
			// first to use in ascending order, starting from the next id.
			next := int32(0)
			for _, c := range rec.script {
				if c > next {
					t.Fatalf("chunk %d appears before chunk %d", c, next)
				}
				if c == next {
					next++
				}
			}
		})
	}
}

// TestCompileClassesErrors: a rank error or panic in the script-only run
// fails the compile, as it fails a recording run, and so does a class rule
// that gives a rank partners outside the world.
func TestCompileClassesErrors(t *testing.T) {
	boom := errors.New("boom")
	if _, err := CompileClasses(4, func(r int) int { return r },
		func(c *Comm) error {
			if c.Rank() == 2 {
				return boom
			}
			return nil
		}); !errors.Is(err, boom) {
		t.Fatalf("rank error: got %v", err)
	}
	if _, err := CompileClasses(4, func(int) int { return 0 },
		func(c *Comm) error {
			c.SendN(-1, 0, 8, nil)
			return nil
		}); err == nil {
		t.Fatal("invalid send: no error")
	}
	if _, err := CompileClasses(0, func(int) int { return 0 }, func(*Comm) error { return nil }); err == nil {
		t.Fatal("empty world: no error")
	}
	// One class for a whole wavefront gives the last rank rank 0's sends
	// to its right and below, outside the world.
	if _, err := CompileClasses(12, func(int) int { return 0 }, wavefrontProgram(4, 3, 2)); err == nil {
		t.Fatal("class rule that does not fit the program: no error")
	}
}

// paramRingProgram is a ring over n ranks using every parameterised op: a
// charge parameter, a checkpoint and a parameterised send size, closed by
// a collective each round.
func paramRingProgram(n, rounds int) func(c *Comm) error {
	return func(c *Comm) error {
		next, prev := (c.Rank()+1)%n, (c.Rank()+n-1)%n
		for it := 0; it < rounds; it++ {
			c.ChargeParam(0)
			c.SendParam(next, 1, 0)
			c.RecvN(prev, 1)
			c.Checkpoint(0)
			c.AllreduceMax(1)
		}
		return nil
	}
}

func recordParamRing(t testing.TB, n, rounds int) *Trace {
	t.Helper()
	w, err := NewWorld(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.SetParams([]float64{1e-4}, []int{512})
	tr, err := w.RunRecorded(paramRingProgram(n, rounds))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTraceValidateRefusesOutOfRangeOps: validate refuses a trace whose
// partner offsets or parameter indices would index past the replayer's
// tables, so a trace that passes it never panics in Replay.
func TestTraceValidateRefusesOutOfRangeOps(t *testing.T) {
	if err := recordParamRing(t, 4, 2).validate(); err != nil {
		t.Fatalf("recorded ring: %v", err)
	}
	cases := []struct {
		name string
		kind uint8
		mut  func(o *top)
	}{
		{"send offset past the world", topSendParam, func(o *top) { o.arg0 = 1000 }},
		{"send offset below rank 0", topSendParam, func(o *top) { o.arg0 = -1000 }},
		{"receive offset past the world", topRecv, func(o *top) { o.arg0 = 1000 }},
		{"charge param past header max", topChargeParam, func(o *top) { o.arg0 = 50 }},
		{"negative charge param", topChargeParam, func(o *top) { o.arg0 = -1 }},
		{"checkpoint param past header max", topCkpt, func(o *top) { o.arg0 = 50 }},
		{"size param past header max", topSendParam, func(o *top) { o.arg2 = 50 }},
		{"negative collective length", topReduce, func(o *top) { o.arg0 = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := recordParamRing(t, 4, 2)
			found := false
			for i := range tr.chunkOps {
				if tr.chunkOps[i].kind == tc.kind {
					tc.mut(&tr.chunkOps[i])
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("ring trace records no op of kind %d", tc.kind)
			}
			if err := tr.validate(); err == nil {
				t.Fatal("validate accepted the trace")
			}
		})
	}
	// A mark count past MaxMarks would size Replay's mark table, and header
	// parameter maxima above every referenced index would make Replay
	// refuse every real parameter table.
	for name, mut := range map[string]func(tr *Trace){
		"mark count past MaxMarks":      func(tr *Trace) { tr.nmarks = 1 << 30 },
		"charge param maximum inflated": func(tr *Trace) { tr.maxChPar = 1 << 30 },
		"size param maximum inflated":   func(tr *Trace) { tr.maxSzPar = 1 << 30 },
	} {
		tr := recordParamRing(t, 4, 2)
		mut(tr)
		if err := tr.validate(); err == nil {
			t.Fatalf("%s: validate accepted the trace", name)
		}
	}
}
