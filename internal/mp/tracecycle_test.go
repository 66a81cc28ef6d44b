package mp

import (
	"errors"
	"math"
	"testing"
)

// markedWavefront is wavefrontProgram with the pace-template mark
// convention: marks bracket iteration 0 only, so the first collective
// generation differs from the steady body and lands in the cycle prefix.
func markedWavefront(px, py, iters int) func(c *Comm) error {
	return func(c *Comm) error {
		ix, iy := c.Rank()%px, c.Rank()/px
		for it := 0; it < iters; it++ {
			if it == 0 {
				c.Mark(0)
			}
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
			if it == 0 {
				c.Mark(1)
			}
			c.AllreduceMax(float64(c.Rank()))
		}
		c.AllreduceSum(1)
		return nil
	}
}

// recordMarkedWavefront records the marked wavefront on the event backend
// and returns the compiled trace.
func recordMarkedWavefront(t *testing.T, net NetworkModel, iters int) *Trace {
	t.Helper()
	w, err := NewWorld(12, Options{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.RunRecorded(markedWavefront(4, 3, iters))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// cycleTestNets is the deterministic platform matrix for the
// extrapolation equivalence tests: flat alpha-beta plus the two- and
// three-level hierarchical class models.
func cycleTestNets() map[string]NetworkModel {
	flat := alphaBeta{alpha: 2e-5, beta: 1e-8}
	nets := map[string]NetworkModel{"flat": flat}
	for name, hn := range testHierNets() {
		if hn.CostsDeterministic() {
			nets[name] = hn
		}
	}
	return nets
}

// TestTraceCycleDetected pins the detection result on the canonical
// wavefront shape: period-1 steady cycle, non-trivial prefix, and the
// fused-op accounting distinguishing macro steps from scalar ops.
func TestTraceCycleDetected(t *testing.T) {
	net := alphaBeta{alpha: 2e-5, beta: 1e-8}
	tr := recordMarkedWavefront(t, net, 8)
	if !tr.CycleDetected() {
		t.Fatal("no steady-state cycle detected on the wavefront template")
	}
	if tr.CyclePeriod() != 1 {
		t.Fatalf("period = %d, want 1", tr.CyclePeriod())
	}
	if tr.CycleCount() < cycMinCycles {
		t.Fatalf("cycles = %d, want >= %d", tr.CycleCount(), cycMinCycles)
	}
	if tr.CyclePrefixGens() < 1 {
		t.Fatalf("prefix = %d, want >= 1", tr.CyclePrefixGens())
	}
	// Fusion accounting: macro steps exist, fused dispatch count is
	// strictly below the scalar op count, and the scalar counters are
	// untouched by fusion.
	if tr.MacroOps() == 0 || tr.MacroUniqueOps() == 0 {
		t.Fatalf("no macro ops fused: total=%d unique=%d", tr.MacroOps(), tr.MacroUniqueOps())
	}
	if tr.FusedOps() >= tr.Ops() {
		t.Fatalf("fusion did not shrink dispatch: fused=%d scalar=%d", tr.FusedOps(), tr.Ops())
	}
	if tr.FusedUniqueOps() >= tr.UniqueOps()+tr.MacroUniqueOps() {
		t.Fatalf("fused unique ops %d not below scalar unique %d + macros %d",
			tr.FusedUniqueOps(), tr.UniqueOps(), tr.MacroUniqueOps())
	}
	if tr.MacroOps() > tr.FusedOps() || tr.MacroUniqueOps() > tr.FusedUniqueOps() {
		t.Fatal("macro counters exceed fused totals")
	}
}

// wavefrontClass is a class rule for wavefrontProgram and its marked
// variants on px×py ranks: first, interior or last in each of x and y,
// and rank%3, which the literal charge varies with.
func wavefrontClass(px, py int) func(r int) int {
	edge := func(i, n int) int {
		switch {
		case i == 0:
			return 0
		case i == n-1:
			return 2
		}
		return 1
	}
	return func(r int) int { return 9*(r%3) + 3*edge(r/px, py) + edge(r%px, px) }
}

// TestTraceChunksCloseAtCollectives: the recorder closes a chunk after
// every collective, so in a recording and in a class compile alike every
// interned chunk holds at most one collective, as its last op, and no
// chunk is longer than traceChunkOps. Each rank's k-th collective is then
// the last op of its k-th closing chunk, which OpIndexOfReduce reads off.
// And since every steady iteration of a wavefront reuses the same chunk
// ids, its interned pool is the same size at 12 iterations as at 1,000.
func TestTraceChunksCloseAtCollectives(t *testing.T) {
	const px, py = 4, 3
	class := wavefrontClass(px, py)
	// Generations longer than a chunk: 300 charges between collectives.
	long := func(c *Comm) error {
		for it := 0; it < 4; it++ {
			for i := 0; i < 300; i++ {
				c.ChargeExact(1e-6 * float64(1+i%7))
			}
			c.Barrier()
		}
		return nil
	}
	compile := func(n int, class func(int) int, f func(c *Comm) error) *Trace {
		t.Helper()
		tr, err := CompileClasses(n, class, f)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	w, err := NewWorld(16, Options{Net: alphaBeta{alpha: 2e-5, beta: 1e-8}})
	if err != nil {
		t.Fatal(err)
	}
	random, err := w.RunRecorded(randomMarkedProgram(16, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	traces := map[string]*Trace{
		"recorded/wavefront": recordMarkedWavefront(t, alphaBeta{alpha: 2e-5, beta: 1e-8}, 12),
		"recorded/random":    random,
		"class/wavefront":    compile(px*py, class, markedWavefront(px, py, 12)),
		"class/long":         compile(3, func(int) int { return 0 }, long),
	}
	for name, tr := range traces {
		for c := 0; c+1 < len(tr.cstart); c++ {
			ops := tr.chunkOps[tr.cstart[c]:tr.cstart[c+1]]
			if len(ops) == 0 || len(ops) > traceChunkOps {
				t.Fatalf("%s: chunk %d holds %d ops", name, c, len(ops))
			}
			for i := range ops[:len(ops)-1] {
				if ops[i].kind == topReduce {
					t.Fatalf("%s: chunk %d holds a collective at op %d of %d", name, c, i, len(ops))
				}
			}
		}
		for rank := 0; rank < tr.n; rank++ {
			var reduces []int // op indices of the rank's collectives
			i := 0
			for _, c := range tr.script[tr.sstart[rank]:tr.sstart[rank+1]] {
				for _, o := range tr.chunkOps[tr.cstart[c]:tr.cstart[c+1]] {
					if o.kind == topReduce {
						reduces = append(reduces, i)
					}
					i++
				}
			}
			if g := tr.rankGens(int32(rank)); g != len(reduces) {
				t.Fatalf("%s: rank %d counts %d generations, records %d collectives", name, rank, g, len(reduces))
			}
			for k := 0; k <= len(reduces); k++ {
				want := -1
				if k < len(reduces) {
					want = reduces[k]
				}
				if got := tr.OpIndexOfReduce(rank, k); got != want {
					t.Fatalf("%s: rank %d collective %d at op %d, want %d", name, rank, k, got, want)
				}
			}
		}
	}
	if g := traces["class/long"].gens; g != 4 {
		t.Fatalf("long generations: %d collectives, want 4", g)
	}

	short := traces["class/wavefront"]
	long1000 := compile(px*py, class, markedWavefront(px, py, 1000))
	if long1000.UniqueOps() != short.UniqueOps() || long1000.FusedUniqueOps() != short.FusedUniqueOps() {
		t.Fatalf("interned ops grow with the horizon: %d/%d at 12 iterations, %d/%d at 1,000",
			short.UniqueOps(), short.FusedUniqueOps(), long1000.UniqueOps(), long1000.FusedUniqueOps())
	}
}

// TestTraceExtrapolationMatchesEvent is the equivalence matrix: a trace
// recorded at a short horizon and replayed with ExtraCycles must produce
// clocks and marks bit-identical to a full event-backend run of the long
// horizon, on flat and hierarchical deterministic platforms.
func TestTraceExtrapolationMatchesEvent(t *testing.T) {
	const base = 8
	for name, net := range cycleTestNets() {
		t.Run(name, func(t *testing.T) {
			tr := recordMarkedWavefront(t, net, base)
			if !tr.CycleDetected() {
				t.Fatal("cycle not detected")
			}
			r := NewReplayer()
			for _, iters := range []int{base, 11, 40, 400, 4000} {
				ref, err := NewWorld(12, Options{Net: net})
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.Run(markedWavefront(4, 3, iters)); err != nil {
					t.Fatal(err)
				}
				if err := r.Replay(tr, Options{Net: net}, ReplayParams{ExtraCycles: iters - base}); err != nil {
					t.Fatalf("iters=%d: %v", iters, err)
				}
				for i := 0; i < 12; i++ {
					if r.Clock(i) != ref.Clock(i) {
						t.Fatalf("iters=%d: clock[%d] = %v, want %v", iters, i, r.Clock(i), ref.Clock(i))
					}
				}
				for m := 0; m < 2; m++ {
					if r.Marks()[m] != ref.Marks()[m] {
						t.Fatalf("iters=%d: mark[%d] = %v, want %v", iters, m, r.Marks()[m], ref.Marks()[m])
					}
				}
				if iters >= 400 && r.Stats().ExtrapolatedCycles == 0 {
					t.Fatalf("iters=%d: no cycles extrapolated (stats %+v)", iters, r.Stats())
				}
			}
		})
	}
}

// TestTraceExtrapolationLongHorizonFlat drives the extrapolation far past
// the recorded horizon on one platform and checks the work stays bounded:
// virtually all steady cycles must be skipped, not replayed.
func TestTraceExtrapolationLongHorizonFlat(t *testing.T) {
	net := alphaBeta{alpha: 2e-5, beta: 1e-8}
	tr := recordMarkedWavefront(t, net, 8)
	r := NewReplayer()
	const iters = 100000
	if err := r.Replay(tr, Options{Net: net}, ReplayParams{ExtraCycles: iters - 8}); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	total := st.ReplayedCycles + st.ExtrapolatedCycles
	if total != iters-1 {
		t.Fatalf("cycle total = %d, want %d (stats %+v)", total, iters-1, st)
	}
	// Each binade costs about two replayed cycles; everything else
	// must be analytic. 1% is a generous ceiling.
	if st.ReplayedCycles*100 > total {
		t.Fatalf("replayed %d of %d steady cycles — extrapolation not engaged", st.ReplayedCycles, total)
	}
}

// TestTraceExtrapolationPerturbedFallsBack pins the fallback contract:
// every perturbation option forces the full-replay path (zero
// extrapolated cycles, bit-identical to the event backend), and asking
// for ExtraCycles under perturbation is an explicit error. A jittered net
// is no fallback: the event backend runs it and a replay refuses it.
func TestTraceExtrapolationPerturbedFallsBack(t *testing.T) {
	det := alphaBeta{alpha: 2e-5, beta: 1e-8}
	rows := map[string]Options{
		"noise":  {Net: det, Noise: jitterNoise{0.05}, Seed: 3},
		"probe":  {Net: det, Probe: &RunProbe{}},
		"delays": {Net: det, Delays: []Delay{{Rank: 1, Op: 5, Seconds: 1e-3}}},
		"fails":  {Net: det, Fails: []FailStop{{Rank: 2, Op: 7, Restart: 1e-2}}},
		"jitter-net": {Net: jitterNet{
			alphaBeta: alphaBeta{alpha: 2e-5, beta: 1e-8}, frac: 0.05}, Seed: 3},
	}
	tr := recordMarkedWavefront(t, det, 8)
	if !tr.CycleDetected() {
		t.Fatal("cycle not detected")
	}
	for name, opts := range rows {
		t.Run(name, func(t *testing.T) {
			ref, err := NewWorld(12, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Run(markedWavefront(4, 3, 8)); err != nil {
				t.Fatal(err)
			}
			if drawsCosts(opts.Net) {
				requireRefusesTrace(t, name, tr, opts, ReplayParams{})
				requireRefusesTrace(t, name+" extra cycles", tr, opts, ReplayParams{ExtraCycles: 5})
				return
			}
			row := tr
			if opts.Noise != nil {
				// Noisy charges must be recorded as re-drawable ops; a
				// noise-free recording replays them exactly by design.
				w, err := NewWorld(12, opts)
				if err != nil {
					t.Fatal(err)
				}
				if row, err = w.RunRecorded(markedWavefront(4, 3, 8)); err != nil {
					t.Fatal(err)
				}
			}
			r := NewReplayer()
			if err := r.Replay(row, opts, ReplayParams{}); err != nil {
				t.Fatal(err)
			}
			if got := r.Stats().ExtrapolatedCycles; got != 0 {
				t.Fatalf("perturbed replay extrapolated %d cycles", got)
			}
			for i := 0; i < 12; i++ {
				if r.Clock(i) != ref.Clock(i) {
					t.Fatalf("clock[%d] = %v, want %v", i, r.Clock(i), ref.Clock(i))
				}
			}
			if err := r.Replay(row, opts, ReplayParams{ExtraCycles: 5}); !errors.Is(err, ErrCannotExtrapolate) {
				t.Fatalf("ExtraCycles under perturbation: err = %v, want ErrCannotExtrapolate", err)
			}
		})
	}
}

// TestTraceExtrapolationParamValidation pins ReplayParams validation:
// negative ExtraCycles is an argument error, and ExtraCycles on a trace
// with no usable cycle is ErrCannotExtrapolate.
func TestTraceExtrapolationParamValidation(t *testing.T) {
	net := alphaBeta{alpha: 2e-5, beta: 1e-8}
	tr := recordMarkedWavefront(t, net, 8)
	r := NewReplayer()
	if err := r.Replay(tr, Options{Net: net}, ReplayParams{ExtraCycles: -1}); err == nil {
		t.Fatal("negative ExtraCycles accepted")
	}
	// Too short to contain cycMinCycles steady cycles: detection must
	// decline and ExtraCycles must refuse.
	short := recordMarkedWavefront(t, net, 3)
	if short.CycleDetected() {
		t.Fatal("cycle detected on a 3-iteration trace")
	}
	if err := r.Replay(short, Options{Net: net}, ReplayParams{ExtraCycles: 5}); !errors.Is(err, ErrCannotExtrapolate) {
		t.Fatalf("err = %v, want ErrCannotExtrapolate", err)
	}
	if err := r.Replay(short, Options{Net: net}, ReplayParams{}); err != nil {
		t.Fatalf("plain replay of short trace: %v", err)
	}
}

// TestTraceReplayZeroAllocsExtrapolated extends the zero-alloc contract
// to extrapolated replays: once a Replayer is warmed (tables sized),
// long-horizon replays must not allocate.
func TestTraceReplayZeroAllocsExtrapolated(t *testing.T) {
	net := alphaBeta{alpha: 2e-5, beta: 1e-8}
	tr := recordMarkedWavefront(t, net, 8)
	r := NewReplayer()
	opts := Options{Net: net}
	p := ReplayParams{ExtraCycles: 9992}
	for i := 0; i < 3; i++ {
		if err := r.Replay(tr, opts, p); err != nil {
			t.Fatal(err)
		}
	}
	if r.Stats().ExtrapolatedCycles == 0 {
		t.Fatal("warmup replays did not extrapolate")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := r.Replay(tr, opts, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed extrapolated replay allocates %v/op, want 0", allocs)
	}
}

// TestCostBitsTieDetector pins the half-ulp tie detector: which bit a
// cost sets, and in which binades it is then reported as a tie.
func TestCostBitsTieDetector(t *testing.T) {
	p2 := func(e int) float64 { return math.Ldexp(1, e) }
	cases := []struct {
		name  string
		cost  float64
		bit   int       // the set bit (exponent+1074); -1 none
		tie   []float64 // clocks whose binade has the cost as a half-ulp tie
		noTie []float64
	}{
		{"zero", 0, -1, nil, []float64{0, p2(-1021), 1, 1.5, p2(53)}},
		// [2^-1021, 2^-1020) is the lowest binade with a half-ulp (2^-1074)
		// a float can hold; below it the grid is the subnormal one.
		{"smallest subnormal", math.SmallestNonzeroFloat64, 0,
			[]float64{p2(-1021), 1.5 * p2(-1021)}, []float64{0, p2(-1074), p2(-1022), p2(-1020)}},
		{"odd subnormal", 3 * math.SmallestNonzeroFloat64, 0, []float64{p2(-1021)}, []float64{p2(-1022)}},
		{"even subnormal", p2(-1073), 1, []float64{p2(-1020)}, []float64{p2(-1021)}},
		{"largest subnormal", p2(-1022) - p2(-1074), 0, []float64{p2(-1021)}, []float64{p2(-1020)}},
		// A power of two 2^k is a tie in [2^(k+53), 2^(k+54)), where u = 2^(k+1).
		{"one", 1, 1074, []float64{p2(53), p2(54) - 2}, []float64{p2(52), p2(54), 1}},
		{"2^-10", p2(-10), 1064, []float64{p2(43)}, []float64{p2(42), p2(44)}},
		{"smallest normal", p2(-1022), 52, []float64{p2(-969)}, []float64{p2(-970), p2(-968)}},
		// u/2 of [1, 2), and an odd multiple of it.
		{"half ulp of [1,2)", p2(-53), 1021, []float64{1, 1.5, math.Nextafter(2, 0)}, []float64{0.75, 2, 3}},
		{"3/2 ulp of [1,2)", 3 * p2(-53), 1021, []float64{1.25}, []float64{2}},
		{"full mantissa", 1 + p2(-52), 1022, []float64{2, 3}, []float64{1, 4}},
	}
	for _, tc := range cases {
		var s costBits
		s.add(tc.cost)
		got := -1
		for i := 0; i < 64*len(s.lsb); i++ {
			if s.lsb[i>>6]&(1<<(i&63)) != 0 {
				if got >= 0 {
					t.Fatalf("%s: more than one bit set", tc.name)
				}
				got = i
			}
		}
		if got != tc.bit || s.bad {
			t.Fatalf("%s: bit %d bad %v, want bit %d", tc.name, got, s.bad, tc.bit)
		}
		for _, d := range tc.tie {
			if !s.tieAt(d) {
				t.Errorf("%s: no tie reported at clock %v", tc.name, d)
			}
			// The claim itself: adding the cost to the clock and to the
			// next clock on the grid rounds in opposite directions.
			if next := math.Nextafter(d, math.Inf(1)); sameBinade(d, next) && (d+tc.cost)-d == (next+tc.cost)-next {
				t.Errorf("%s: adding the cost at %v and %v rounds alike", tc.name, d, next)
			}
		}
		for _, d := range tc.noTie {
			if s.tieAt(d) {
				t.Errorf("%s: tie reported at clock %v", tc.name, d)
			}
		}
	}
	for _, c := range []float64{-1, -math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1)} {
		var s costBits
		if s.add(c); !s.bad {
			t.Errorf("cost %v not flagged bad", c)
		}
	}
}

// TestFusedProgramExactSize: a compiled trace keeps its fused program at
// exactly its length, whether recorded or class-compiled, so cached traces
// hold no slack from the scalar op count fusion started from.
func TestFusedProgramExactSize(t *testing.T) {
	cls, err := CompileClasses(12, func(r int) int { return r }, markedWavefront(4, 3, 12))
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*Trace{
		"recorded":       recordMarkedWavefront(t, nil, 12),
		"class-compiled": cls,
		"param ring":     recordParamRing(t, 5, 4),
	} {
		if len(tr.fops) == 0 || len(tr.fops) >= tr.UniqueOps() {
			t.Fatalf("%s: %d fused of %d scalar ops: nothing fused", name, len(tr.fops), tr.UniqueOps())
		}
		if cap(tr.fops) != len(tr.fops) {
			t.Fatalf("%s: fused program len %d, cap %d", name, len(tr.fops), cap(tr.fops))
		}
	}
}
