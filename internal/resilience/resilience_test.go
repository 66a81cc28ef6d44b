package resilience

import (
	"encoding/json"
	"math"
	"testing"

	"pacesweep/internal/capp"
	"pacesweep/internal/clc"
	"pacesweep/internal/grid"
	"pacesweep/internal/hwmodel"
	"pacesweep/internal/pace"
	"pacesweep/internal/perturb"
	"pacesweep/internal/platform"
)

// testModel mirrors the perturb package's deterministic fitted model.
func testModel() *hwmodel.Model {
	return &hwmodel.Model{
		Name:   "resilience-test",
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

func testStudy() Study {
	return Study{
		Seed: 7,
		// The test model's clean run is ~29 s over 12 iterations; the MTBF
		// is chosen to land a handful of failures spread across the run.
		Checkpoint: CheckpointSpec{
			IntervalIterations: 3,
			CheckpointSeconds:  0.05,
			RestartSeconds:     0.1,
		},
		Failure:    FailureSpec{MTBFSeconds: 8, Scenarios: 4, MaxFailures: 16},
		Noise:      &perturb.NoiseSpec{Kind: "uniform", Frac: 0.03},
		Intervals:  []int{1, 2, 3, 6},
		NoiseFracs: []float64{0.01, 0.05, 0.1, 0.2},
	}
}

func TestStudyValidation(t *testing.T) {
	iters := 12
	good := testStudy()
	if err := good.Validate(iters); err != nil {
		t.Fatalf("valid study rejected: %v", err)
	}
	bad := []Study{
		func() Study { s := testStudy(); s.Checkpoint.IntervalIterations = -1; return s }(),
		func() Study { s := testStudy(); s.Checkpoint.IntervalIterations = iters + 1; return s }(),
		func() Study { s := testStudy(); s.Checkpoint.CheckpointSeconds = math.NaN(); return s }(),
		func() Study { s := testStudy(); s.Checkpoint.RestartSeconds = -1; return s }(),
		func() Study { s := testStudy(); s.Failure.MTBFSeconds = 0; return s }(),
		func() Study { s := testStudy(); s.Failure.MTBFSeconds = math.Inf(1); return s }(),
		func() Study { s := testStudy(); s.Failure.Scenarios = MaxScenarios + 1; return s }(),
		func() Study { s := testStudy(); s.Failure.MaxFailures = MaxMaxFails + 1; return s }(),
		func() Study { s := testStudy(); s.Intervals = []int{0}; return s }(),
		func() Study { s := testStudy(); s.Intervals = make([]int, MaxIntervals+1); return s }(),
		func() Study { s := testStudy(); s.NoiseFracs = []float64{-0.1}; return s }(),
		func() Study { s := testStudy(); s.Noise = &perturb.NoiseSpec{Kind: "bogus", Frac: 0.1}; return s }(),
	}
	for i, s := range bad {
		if err := s.Validate(iters); err == nil {
			t.Errorf("bad study %d accepted", i)
		}
	}
}

// TestReportDeterminism: a fixed-seed study marshals byte-identically
// across runs — the acceptance bar for the whole resilience path.
func TestReportDeterminism(t *testing.T) {
	ev := testEvaluator(t, testModel())
	cfg := testConfig(4, 3)
	st := testStudy()
	r1, err := Run(ev, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(ev, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Fatalf("report not byte-identical across runs:\n%s\n%s", b1, b2)
	}
	// A fresh evaluator over the same model must agree too (trace cache
	// and pools must not leak state into the numbers).
	r3, err := Run(testEvaluator(t, testModel()), cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	b3, _ := json.Marshal(r3)
	if string(b1) != string(b3) {
		t.Fatalf("report differs across evaluators:\n%s\n%s", b1, b3)
	}
}

func TestReportShape(t *testing.T) {
	ev := testEvaluator(t, testModel())
	cfg := testConfig(4, 3)
	st := testStudy()
	rep, err := Run(ev, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ranks != 12 || rep.Iterations != 12 {
		t.Fatalf("ranks/iterations = %d/%d", rep.Ranks, rep.Iterations)
	}
	if !(rep.CleanSeconds > 0) {
		t.Fatalf("clean %v", rep.CleanSeconds)
	}
	if rep.CheckpointedSeconds <= rep.CleanSeconds {
		t.Fatalf("checkpointed %v not above clean %v", rep.CheckpointedSeconds, rep.CleanSeconds)
	}
	if rep.ExpectedSeconds < rep.CheckpointedSeconds {
		t.Fatalf("expected %v below checkpointed baseline %v", rep.ExpectedSeconds, rep.CheckpointedSeconds)
	}
	if got := rep.Waste.CheckpointOverheadSeconds; math.Abs(got-(rep.CheckpointedSeconds-rep.CleanSeconds)) > 1e-12 {
		t.Fatalf("checkpoint overhead %v", got)
	}
	if len(rep.Scenarios) != st.Failure.scenarios() {
		t.Fatalf("%d scenarios", len(rep.Scenarios))
	}
	anyFail := false
	for _, sc := range rep.Scenarios {
		if sc.Failures > 0 {
			anyFail = true
			if !(sc.ReworkSeconds > 0) {
				t.Fatalf("scenario %d: %d failures but rework %v", sc.Scenario, sc.Failures, sc.ReworkSeconds)
			}
		}
		if sc.MakespanSeconds < rep.CheckpointedSeconds-1e-12 {
			t.Fatalf("scenario %d makespan %v below baseline %v", sc.Scenario, sc.MakespanSeconds, rep.CheckpointedSeconds)
		}
	}
	if !anyFail {
		t.Fatal("no scenario sampled a failure; MTBF too large for the test to bite")
	}
	// Interval sweep covers the study interval plus the requested
	// candidates, ascending and deduplicated.
	want := []int{1, 2, 3, 6}
	if len(rep.Intervals) != len(want) {
		t.Fatalf("interval sweep %v", rep.Intervals)
	}
	for i, pt := range rep.Intervals {
		if pt.IntervalIterations != want[i] {
			t.Fatalf("interval sweep order %v", rep.Intervals)
		}
		if !(pt.ExpectedSeconds > 0) {
			t.Fatalf("interval %d expected %v", pt.IntervalIterations, pt.ExpectedSeconds)
		}
	}
	min := math.Inf(1)
	for _, pt := range rep.Intervals {
		if pt.ExpectedSeconds < min {
			min = pt.ExpectedSeconds
		}
	}
	if rep.SimulatedOptimal.ExpectedSeconds != min {
		t.Fatalf("simulated optimal %v, sweep min %v", rep.SimulatedOptimal.ExpectedSeconds, min)
	}
	// Young/Daly: tau_young = sqrt(2*delta*M), Daly's refinement is
	// tau_young*(1+...) - delta; both must convert to in-range iteration
	// counts.
	wantYoung := math.Sqrt(2 * st.Checkpoint.CheckpointSeconds * st.Failure.MTBFSeconds)
	if math.Abs(rep.Analytic.YoungIntervalSeconds-wantYoung) > 1e-12 {
		t.Fatalf("young %v want %v", rep.Analytic.YoungIntervalSeconds, wantYoung)
	}
	if !(rep.Analytic.DalyIntervalSeconds > 0) {
		t.Fatalf("daly %v", rep.Analytic.DalyIntervalSeconds)
	}
	for _, k := range []int{rep.Analytic.YoungIntervalIterations, rep.Analytic.DalyIntervalIterations} {
		if k < 1 || k > cfg.Iterations {
			t.Fatalf("analytic interval iterations %d out of range", k)
		}
	}
	// Noise curve: one point per requested frac, inflation increasing in
	// frac for the uniform model, tolerance within the swept range.
	if len(rep.NoiseCurve) != len(st.NoiseFracs) {
		t.Fatalf("noise curve %v", rep.NoiseCurve)
	}
	for i := 1; i < len(rep.NoiseCurve); i++ {
		if rep.NoiseCurve[i].InflationPct < rep.NoiseCurve[i-1].InflationPct {
			t.Fatalf("noise inflation not monotone: %v", rep.NoiseCurve)
		}
	}
	if rep.NoiseTolerance <= 0 || rep.NoiseTolerance > st.NoiseFracs[len(st.NoiseFracs)-1] {
		t.Fatalf("noise tolerance %v outside swept range", rep.NoiseTolerance)
	}
}

// TestUncheckpointedStudy: interval 0 must work (failures rewind to time
// zero) and cost more in expectation than the checkpointed study.
func TestUncheckpointedStudy(t *testing.T) {
	ev := testEvaluator(t, testModel())
	cfg := testConfig(4, 3)
	st := testStudy()
	st.NoiseFracs = nil
	withCkpt, err := Run(ev, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	st.Checkpoint.IntervalIterations = 0
	without, err := Run(ev, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if without.CheckpointedSeconds != without.CleanSeconds {
		t.Fatalf("interval 0 charged checkpoints: %v vs %v", without.CheckpointedSeconds, without.CleanSeconds)
	}
	// Same failure streams, but every failure rewinds to time zero:
	// rework (and hence the expectation) must dominate the checkpointed
	// study's despite the saved checkpoint charges.
	if without.Waste.MeanReworkSeconds <= withCkpt.Waste.MeanReworkSeconds {
		t.Fatalf("uncheckpointed rework %v not above checkpointed %v",
			without.Waste.MeanReworkSeconds, withCkpt.Waste.MeanReworkSeconds)
	}
	if len(without.NoiseCurve) != 0 || without.NoiseTolerance != 0 {
		t.Fatalf("noise block present without swept fracs: %+v", without)
	}
}

func TestToleranceInterpolation(t *testing.T) {
	curve := []NoisePoint{
		{Frac: 0.05, InflationPct: 5},
		{Frac: 0.1, InflationPct: 15},
	}
	tol, capped := toleranceFrom(curve)
	if capped {
		t.Fatal("crossing curve reported capped")
	}
	if math.Abs(tol-0.075) > 1e-12 {
		t.Fatalf("tolerance %v want 0.075", tol)
	}
	flat := []NoisePoint{{Frac: 0.01, InflationPct: 1}, {Frac: 0.02, InflationPct: 2}}
	tol, capped = toleranceFrom(flat)
	if !capped || tol != 0.02 {
		t.Fatalf("flat curve tolerance %v capped %v", tol, capped)
	}
}

func TestNoiseCurveStandalone(t *testing.T) {
	ev := testEvaluator(t, testModel())
	cfg := testConfig(2, 2)
	curve, tol, capped, err := NoiseCurve(ev, cfg, "", 11, []float64{0, 0.05, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 3 {
		t.Fatalf("curve %v", curve)
	}
	if curve[0].InflationPct != 0 {
		t.Fatalf("frac-0 inflation %v", curve[0].InflationPct)
	}
	if capped {
		if !(tol > 0) {
			t.Fatalf("capped tolerance %v", tol)
		}
	} else if !(tol > 0 && tol <= 0.3) {
		t.Fatalf("tolerance %v", tol)
	}
	if _, _, _, err := NoiseCurve(ev, cfg, "bogus", 11, []float64{0.1}); err == nil {
		t.Fatal("bogus noise kind accepted")
	}
}

// BenchmarkResilienceInterval times one evalInterval on an 8x8 array with
// 3% uniform noise and the default 8 failure scenarios (MTBF 8 s, about
// 29 s per run): a checkpointed baseline pass, then the scenarios sampled
// from its probe replayed as one 8-lane pass. The trace is compiled before
// the timer starts.
func BenchmarkResilienceInterval(b *testing.B) {
	ev := testEvaluator(b, testModel())
	cfg := testConfig(8, 8)
	st := testStudy()
	st.Failure.Scenarios = 0 // DefaultScenarios
	noise, err := st.Noise.Model()
	if err != nil {
		b.Fatal(err)
	}
	_, outcomes, err := evalInterval(ev, cfg, st, noise, st.Checkpoint.IntervalIterations)
	if err != nil {
		b.Fatal(err)
	}
	if len(outcomes) != DefaultScenarios {
		b.Fatalf("%d scenarios, want %d", len(outcomes), DefaultScenarios)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := evalInterval(ev, cfg, st, noise, st.Checkpoint.IntervalIterations); err != nil {
			b.Fatal(err)
		}
	}
}
