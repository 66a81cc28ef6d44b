package perturb

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"pacesweep/internal/capp"
	"pacesweep/internal/clc"
	"pacesweep/internal/grid"
	"pacesweep/internal/hwmodel"
	"pacesweep/internal/pace"
	"pacesweep/internal/platform"
)

// testModel mirrors the pace package's deterministic fitted model.
func testModel() *hwmodel.Model {
	return &hwmodel.Model{
		Name:   "perturb-test",
		MFLOPS: 110,
		OpcodeCosts: clc.CostTable{
			clc.MFDG: 10e-9, clc.AFDG: 9e-9, clc.DFDG: 28e-9,
			clc.IFBR: 1.5e-9, clc.LFOR: 2e-9,
		},
		Send:     platform.Piecewise{A: 512, B: 6, C: 0.008, D: 8, E: 0.0042},
		Recv:     platform.Piecewise{A: 512, B: 7, C: 0.008, D: 9, E: 0.0042},
		PingPong: platform.Piecewise{A: 512, B: 26, C: 0.02, D: 32, E: 0.0088},
	}
}

// hierModel adds a two-level interconnect (fast intra-node, slow
// inter-node) and a topology so ClassOf distinguishes cost classes.
func hierModel() *hwmodel.Model {
	m := testModel()
	m.Name = "perturb-test-hier"
	m.Levels = []hwmodel.NetLevel{
		{
			Send:     platform.Piecewise{A: 2048, B: 1.2, C: 0.0008, D: 1.8, E: 0.00055},
			Recv:     platform.Piecewise{A: 2048, B: 1.4, C: 0.0008, D: 2.0, E: 0.00055},
			PingPong: platform.Piecewise{A: 2048, B: 3.4, C: 0.002, D: 5.1, E: 0.0012},
		},
		{
			Send:     platform.Piecewise{A: 512, B: 6, C: 0.008, D: 8, E: 0.0042},
			Recv:     platform.Piecewise{A: 512, B: 7, C: 0.008, D: 9, E: 0.0042},
			PingPong: platform.Piecewise{A: 512, B: 26, C: 0.02, D: 32, E: 0.0088},
		},
	}
	m.Topology = platform.Topology{CoresPerNode: 2}
	return m
}

func testEvaluator(t testing.TB, m *hwmodel.Model) *pace.Evaluator {
	t.Helper()
	analysis, err := capp.SweepKernelAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := pace.NewEvaluator(m, analysis)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func testConfig(px, py int) pace.Config {
	return pace.Config{
		Grid:       grid.Global{NX: 50 * px, NY: 50 * py, NZ: 50},
		Decomp:     grid.Decomp{PX: px, PY: py},
		MK:         10,
		MMI:        3,
		Angles:     6,
		Iterations: 12,
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{},
		{Delays: []DelaySpec{{Rank: -1, Iteration: 0, Seconds: 1}}},
		{Delays: []DelaySpec{{Rank: 6, Iteration: 0, Seconds: 1}}},
		{Delays: []DelaySpec{{Rank: 0, Iteration: -1, Seconds: 1}}},
		{Delays: []DelaySpec{{Rank: 0, Iteration: 12, Seconds: 1}}},
		{Delays: []DelaySpec{{Rank: 0, Iteration: 0, Seconds: 0}}},
		{Delays: []DelaySpec{{Rank: 0, Iteration: 0, Seconds: -1}}},
		{Delays: []DelaySpec{{Rank: 0, Iteration: 0, Seconds: math.NaN()}}},
		{Delays: []DelaySpec{{Rank: 0, Iteration: 0, Seconds: math.Inf(1)}}},
		{
			Delays: []DelaySpec{{Rank: 0, Iteration: 0, Seconds: 1}},
			Noise:  &NoiseSpec{Kind: "pink", Frac: 0.1},
		},
		{
			Delays: []DelaySpec{{Rank: 0, Iteration: 0, Seconds: 1}},
			Noise:  &NoiseSpec{Kind: "uniform", Frac: -0.1},
		},
	}
	for i, sc := range bad {
		if err := sc.Validate(6, 12); err == nil {
			t.Errorf("case %d: accepted invalid scenario %+v", i, sc)
		}
	}
	good := Scenario{
		Seed:   7,
		Delays: []DelaySpec{{Rank: 5, Iteration: 11, Seconds: 1e-3}},
		Noise:  &NoiseSpec{Kind: "gaussian", Frac: 0.02},
	}
	if err := good.Validate(6, 12); err != nil {
		t.Fatal(err)
	}
}

func TestNoiseGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gens := []struct {
		name string
		n    interface {
			Perturb(float64, *rand.Rand) float64
		}
	}{
		{"uniform", UniformNoise{Frac: 0.1}},
		{"gaussian", GaussianNoise{Frac: 0.1}},
		{"exponential", ExponentialNoise{Frac: 0.1}},
	}
	for _, g := range gens {
		for i := 0; i < 1000; i++ {
			s := g.n.Perturb(1e-3, rng)
			if s < 1e-3 || math.IsNaN(s) || math.IsInf(s, 0) {
				t.Fatalf("%s: draw %d gave %v (must never speed charges up)", g.name, i, s)
			}
		}
	}
	// Kind strings resolve to the matching generator; zero frac is identity.
	for _, kind := range []string{"uniform", "gaussian", "exponential"} {
		n, err := noiseModel(&NoiseSpec{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		if got := n.Perturb(1e-3, rng); got != 1e-3 {
			t.Fatalf("%s frac=0: %v != 1e-3", kind, got)
		}
	}
}

// TestRunReportPhysics pins the core invariants of a report on a flat
// platform: damage is bounded by the injection, generation rows cover
// every collective, the wavefront originates at the injected rank, and the
// same scenario yields byte-identical JSON.
func TestRunReportPhysics(t *testing.T) {
	ev := testEvaluator(t, testModel())
	cfg := testConfig(3, 2)
	// The delay must exceed the wavefront slack of an iteration start
	// (smaller injections are fully absorbed by the ranks' waiting time —
	// exactly the absorption the report is built to expose).
	sc := Scenario{
		Seed:   42,
		Delays: []DelaySpec{{Rank: 2, Iteration: 3, Seconds: 3.0}},
		Noise:  &NoiseSpec{Kind: "uniform", Frac: 0.01},
	}
	rep, err := Run(ev, cfg, sc, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ranks != 6 || rep.Iterations != 12 || rep.Seed != 42 {
		t.Fatalf("header %+v", rep)
	}
	if rep.InjectedSeconds != 3.0 {
		t.Fatalf("injected = %v", rep.InjectedSeconds)
	}
	if rep.DamageSeconds <= 0 || rep.DamageSeconds > rep.InjectedSeconds+1e-9 {
		t.Fatalf("damage %v out of (0, injected]", rep.DamageSeconds)
	}
	if math.Abs(rep.AbsorbedSeconds-(rep.InjectedSeconds-rep.DamageSeconds)) > 1e-12 {
		t.Fatalf("absorbed %v inconsistent", rep.AbsorbedSeconds)
	}
	if rep.DamageSeconds != rep.PerturbedSeconds-rep.BaselineSeconds {
		t.Fatalf("makespans inconsistent: %v vs %v - %v",
			rep.DamageSeconds, rep.PerturbedSeconds, rep.BaselineSeconds)
	}
	if rep.AnalyticDamageSeconds <= 0 || rep.AnalyticDamageSeconds > rep.InjectedSeconds {
		t.Fatalf("analytic damage %v out of range", rep.AnalyticDamageSeconds)
	}
	if len(rep.Generations) != cfg.Iterations+1 {
		t.Fatalf("generations = %d, want %d", len(rep.Generations), cfg.Iterations+1)
	}
	// Generations before the injection's iteration are untouched (their
	// collectives close before the delay exists); damage appears at the
	// injected iteration's own collective or later.
	for g := 0; g < 3; g++ {
		if rep.Generations[g].DamagedRanks != 0 {
			t.Fatalf("gen %d damaged before injection", g)
		}
	}
	saw := false
	for g := 3; g < len(rep.Generations); g++ {
		if rep.Generations[g].DamagedRanks > 0 {
			saw = true
			if rep.Generations[g].MaxDamage <= 0 {
				t.Fatalf("gen %d: damaged ranks without damage", g)
			}
		}
	}
	if !saw {
		t.Fatal("a delay above the slack budget vanished without touching any generation")
	}
	if len(rep.PerRank) != 6 {
		t.Fatalf("per-rank len = %d", len(rep.PerRank))
	}
	var worst float64
	for _, r := range rep.PerRank {
		if r.Damage > worst {
			worst = r.Damage
		}
	}
	if worst <= 0 {
		t.Fatal("no rank shows final damage")
	}

	// Determinism: same scenario, byte-identical report.
	rep2, err := Run(ev, cfg, sc, true)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(rep)
	b2, _ := json.Marshal(rep2)
	if string(b1) != string(b2) {
		t.Fatal("same scenario produced different reports")
	}
}

// TestRunHierarchicalClassDamage checks class-resolved damage appears on
// hierarchical platforms and respects the topology: the origin's own class
// row exists and holds the peak damage.
func TestRunHierarchicalClassDamage(t *testing.T) {
	ev := testEvaluator(t, hierModel())
	cfg := testConfig(2, 2)
	sc := Scenario{
		Seed:   5,
		Delays: []DelaySpec{{Rank: 1, Iteration: 0, Seconds: 2.0}},
	}
	rep, err := Run(ev, cfg, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	sawClasses := false
	for _, row := range rep.Generations {
		if row.ClassDamage == nil {
			continue
		}
		sawClasses = true
		if len(row.ClassDamage) != 2 {
			t.Fatalf("gen %d: %d classes, want 2", row.Generation, len(row.ClassDamage))
		}
		var peak float64
		for _, d := range row.ClassDamage {
			if d > peak {
				peak = d
			}
		}
		if peak != row.MaxDamage {
			t.Fatalf("gen %d: class peak %v != max damage %v", row.Generation, peak, row.MaxDamage)
		}
	}
	if !sawClasses {
		t.Fatal("hierarchical platform produced no class damage rows")
	}
	if rep.PerRank != nil {
		t.Fatal("perRank=false still attached per-rank rows")
	}
}

// TestRunRejects pins the error paths of Run.
func TestRunRejects(t *testing.T) {
	ev := testEvaluator(t, testModel())
	cfg := testConfig(2, 2)
	if _, err := Run(ev, cfg, Scenario{}, false); err == nil {
		t.Fatal("accepted empty scenario")
	}
	sc := Scenario{Delays: []DelaySpec{{Rank: 0, Iteration: 0, Seconds: 1e-3}}}
	big := cfg
	big.Decomp = grid.Decomp{PX: 100, PY: 100}
	big.Grid = grid.Global{NX: 500, NY: 500, NZ: 50}
	if _, err := Run(ev, big, sc, false); err == nil {
		t.Fatal("accepted non-template configuration")
	}
	badCfg := cfg
	badCfg.Iterations = 0
	if _, err := Run(ev, badCfg, sc, false); err == nil {
		t.Fatal("accepted invalid configuration")
	}
}

// BenchmarkPerturbRun times perturb.Run, one 2-lane pass that replays the
// baseline and the perturbed run together, sharing each live noise draw,
// over a sweep's shape mix: six arrays from
// 8x8 to 16x16, each with mk 10 and 25 and mmi 3 and 6, 40x40x50 cells per
// processor and 12 iterations, under one 3 s delay plus 2% uniform noise.
// One op is one shape's Run, which makes, seeds and drops its per-rank
// noise streams; traces are compiled before the timer starts.
func BenchmarkPerturbRun(b *testing.B) {
	ev := testEvaluator(b, testModel())
	var cfgs []pace.Config
	for _, a := range [][2]int{{8, 8}, {8, 12}, {12, 12}, {8, 16}, {16, 12}, {16, 16}} {
		for _, mk := range []int{10, 25} {
			for _, mmi := range []int{3, 6} {
				cfg := testConfig(a[0], a[1])
				cfg.Grid = grid.Global{NX: 40 * a[0], NY: 40 * a[1], NZ: 50}
				cfg.MK, cfg.MMI = mk, mmi
				cfgs = append(cfgs, cfg)
			}
		}
	}
	sc := Scenario{
		Seed:   17,
		Delays: []DelaySpec{{Rank: 5, Iteration: 2, Seconds: 3}},
		Noise:  &NoiseSpec{Kind: "uniform", Frac: 0.02},
	}
	for _, cfg := range cfgs {
		if _, err := Run(ev, cfg, sc, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ev, cfgs[i%len(cfgs)], sc, false); err != nil {
			b.Fatal(err)
		}
	}
}
