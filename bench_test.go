// Benchmark harness regenerating every table and figure of the paper's
// evaluation, plus micro-benchmarks of the substrates. Each experiment
// benchmark reports its headline numbers as custom metrics so that
// `go test -bench` output doubles as the reproduction record:
//
//	BenchmarkTable1 — P-III/Myrinet validation  (avg/max |error| %)
//	BenchmarkTable2 — Opteron/GigE validation
//	BenchmarkTable3 — Altix validation
//	BenchmarkFigure8 — 20M-cell speculation      (seconds at 1 and 8000 procs)
//	BenchmarkFigure9 — 1G-cell speculation
//	BenchmarkAblationOpcode — Section 4 opcode-vs-coarse comparison
//	BenchmarkBaselineComparison — LogGP/Hoisie agreement (Section 6)
//	BenchmarkBlockingAblation — mk blocking-factor design sweep
package pacesweep_test

import (
	"math"
	"testing"

	"strconv"

	"pacesweep/internal/bench"
	"pacesweep/internal/capp"
	"pacesweep/internal/clc"
	"pacesweep/internal/experiments"
	"pacesweep/internal/grid"
	"pacesweep/internal/hwmodel"
	"pacesweep/internal/mp"
	"pacesweep/internal/pace"
	"pacesweep/internal/platform"
	"pacesweep/internal/psl"
	"pacesweep/internal/sweep"
)

func reportValidation(b *testing.B, v *experiments.Validation) {
	b.ReportMetric(v.AvgAbsErr, "avg_abs_err_%")
	b.ReportMetric(v.MaxAbsErr, "max_abs_err_%")
	b.ReportMetric(v.VarErr, "err_variance")
	b.ReportMetric(float64(len(v.Rows)), "rows")
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		reportValidation(b, v)
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		reportValidation(b, v)
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		reportValidation(b, v)
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.Actual[0], "s_at_1proc")
		b.ReportMetric(s.Actual[len(s.Actual)-1], "s_at_8000procs")
		b.ReportMetric(s.Plus50[len(s.Plus50)-1], "s_at_8000_+50%")
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.Actual[0], "s_at_1proc")
		b.ReportMetric(s.Actual[len(s.Actual)-1], "s_at_8000procs")
		b.ReportMetric(s.Plus50[len(s.Plus50)-1], "s_at_8000_+50%")
	}
}

func BenchmarkAblationOpcode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.AblationOpcode()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.MaxNewAbsErr, "new_max_err_%")
		b.ReportMetric(a.MaxOldAbsErr, "old_max_err_%")
	}
}

func BenchmarkBaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		var maxLG, maxHO float64
		for j := range s.Procs {
			maxLG = math.Max(maxLG, math.Abs(s.LogGPTimes[j]-s.Actual[j])/s.Actual[j]*100)
			maxHO = math.Max(maxHO, math.Abs(s.HoisieTimes[j]-s.Actual[j])/s.Actual[j]*100)
		}
		b.ReportMetric(maxLG, "max_loggp_dev_%")
		b.ReportMetric(maxHO, "max_hoisie_dev_%")
	}
}

// BenchmarkBlockingAblation sweeps the k-plane blocking factor at 8x8
// processors, the design-choice study DESIGN.md calls out: fine blocking
// shortens the pipeline fill, coarse blocking cuts message count.
func BenchmarkBlockingAblation(b *testing.B) {
	pl := platform.PentiumIIIMyrinet()
	ev, _, err := experiments.BuildEvaluator(pl, grid.Global{NX: 50, NY: 50, NZ: 50}, 5)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, mk := range []int{1, 2, 5, 10, 25, 50} {
			cfg := pace.Config{
				Grid:   grid.Global{NX: 400, NY: 400, NZ: 50},
				Decomp: grid.Decomp{PX: 8, PY: 8},
				MK:     mk, MMI: 3, Angles: 6, Iterations: 12,
			}
			pred, err := ev.Predict(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(pred.Total, "s_mk"+itoa(mk))
		}
	}
}

func itoa(v int) string {
	if v >= 10 {
		return string(rune('0'+v/10)) + string(rune('0'+v%10))
	}
	return string(rune('0' + v))
}

// --- mp scheduler benchmarks ---

// schedulerPoints are the processor counts of the scheduler benchmarks;
// 512 is the old PredictAuto template ceiling.
var schedulerPoints = []int{64, 512, 4000}

// BenchmarkWorldRun times the event backend on the raw virtual-time
// skeleton workload (1 iteration of the Figure 8 per-processor problem).
func BenchmarkWorldRun(b *testing.B) {
	pl := platform.OpteronMyrinet()
	costs := sweep.CostsFromRate(340)
	for _, p := range schedulerPoints {
		d, err := grid.FactorNearSquare(p)
		if err != nil {
			b.Fatal(err)
		}
		prob := sweep.New(grid.Global{NX: 5 * d.PX, NY: 5 * d.PY, NZ: 100})
		prob.Iterations = 1
		b.Run("sched=event/P="+strconv.Itoa(p), func(b *testing.B) {
			opts := mp.Options{Net: pl.NetModel(false)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sweep.RunSkeleton(prob, d, costs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictTemplate times live event-backend evaluation of a full
// PACE template (12 iterations), the trace tier's reference path.
func BenchmarkPredictTemplate(b *testing.B) {
	ev, _, err := experiments.BuildEvaluator(platform.OpteronMyrinet(), grid.Global{NX: 5, NY: 5, NZ: 100}, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range schedulerPoints {
		d, err := grid.FactorNearSquare(p)
		if err != nil {
			b.Fatal(err)
		}
		cfg := pace.Config{
			Grid:   grid.Global{NX: 5 * d.PX, NY: 5 * d.PY, NZ: 100},
			Decomp: d,
			MK:     10, MMI: 3, Angles: 6, Iterations: 12,
		}
		b.Run("sched=event/P="+strconv.Itoa(p), func(b *testing.B) {
			evS := *ev
			evS.Scheduler = pace.SchedulerEvent
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := evS.Predict(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictTrace is BenchmarkPredictTemplate on the trace tier
// (the default scheduler): the shape's communication script is compiled
// once, outside the timed loop. Every op repeats the warm-up's exact
// configuration on a warmed replayer and replays it in full: a replay
// keeps no result of the ones before it, so every op pays the replay a
// configuration the replayer has not seen pays. P=64/512/4000 read about
// 3.3/16/163 ms/op at best (go1.24, -cpu 1, 2-vCPU Xeon VM; runs spread
// up to twice that). BenchmarkPredictTraceDistinct varies the
// configuration instead.
func BenchmarkPredictTrace(b *testing.B) {
	ev, _, err := experiments.BuildEvaluator(platform.OpteronMyrinet(), grid.Global{NX: 5, NY: 5, NZ: 100}, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range schedulerPoints {
		d, err := grid.FactorNearSquare(p)
		if err != nil {
			b.Fatal(err)
		}
		cfg := pace.Config{
			Grid:   grid.Global{NX: 5 * d.PX, NY: 5 * d.PY, NZ: 100},
			Decomp: d,
			MK:     10, MMI: 3, Angles: 6, Iterations: 12,
		}
		b.Run("sched=trace/P="+strconv.Itoa(p), func(b *testing.B) {
			evS := *ev
			evS.Scheduler = pace.SchedulerTrace
			// Compile the shape (and warm the replayer pool) outside the
			// measured loop, mirroring serving steady state.
			if _, err := evS.Predict(cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := evS.Predict(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Iteration axis at the largest array. Extrapolation replays about two
	// cycles per binade the horizon crosses, so the cost grows far slower
	// than the iteration count: iters=100/1000/10000 read about
	// 276/452/550 ms/op at best on the machine above.
	const itersP = 4000
	d, err := grid.FactorNearSquare(itersP)
	if err != nil {
		b.Fatal(err)
	}
	for _, iters := range []int{100, 1000, 10000} {
		cfg := pace.Config{
			Grid:   grid.Global{NX: 5 * d.PX, NY: 5 * d.PY, NZ: 100},
			Decomp: d,
			MK:     10, MMI: 3, Angles: 6, Iterations: iters,
		}
		b.Run("sched=trace/P="+strconv.Itoa(itersP)+"/iters="+strconv.Itoa(iters), func(b *testing.B) {
			evS := *ev
			evS.Scheduler = pace.SchedulerTrace
			p, err := evS.Predict(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(p.ExtrapolatedIterations), "extrapolated_iters")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := evS.Predict(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictTraceDistinct is BenchmarkPredictTrace's iteration axis
// on configurations that the kernel cache has not seen: every op predicts
// a 32x64 array with a new per-processor cell count (5-9 x 5-9 cells, NZ
// 101-110: 250 distinct configurations before the sequence repeats), so
// each one prices a fresh kernel and replays the shared canonical trace
// under its own cost tables. That is the cost of a long-horizon question the service has
// not answered before. replayed_cycles/op counts the steady cycles
// replayed op by op (pace.TraceExtrapolationStats.ReplayedCycles); the
// rest of the horizon is extrapolated.
func BenchmarkPredictTraceDistinct(b *testing.B) {
	ev, _, err := experiments.BuildEvaluator(platform.OpteronMyrinet(), grid.Global{NX: 5, NY: 5, NZ: 100}, 5)
	if err != nil {
		b.Fatal(err)
	}
	evS := *ev
	evS.Scheduler = pace.SchedulerTrace
	d := grid.Decomp{PX: 32, PY: 64}
	next := 0
	distinct := func(iters int) pace.Config {
		j := next
		next++
		return pace.Config{
			Grid:   grid.Global{NX: (5 + j%5) * d.PX, NY: (5 + j/5%5) * d.PY, NZ: 101 + j/25%10},
			Decomp: d,
			MK:     10, MMI: 3, Angles: 6, Iterations: iters,
		}
	}
	// Compile the canonical trace every horizon replays outside the timed
	// loops.
	if _, err := evS.Predict(distinct(12)); err != nil {
		b.Fatal(err)
	}
	for _, iters := range []int{12, 100, 1000, 10000} {
		b.Run("iters="+strconv.Itoa(iters), func(b *testing.B) {
			before := pace.TraceExtrapolation().ReplayedCycles
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := evS.Predict(distinct(iters)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			replayed := pace.TraceExtrapolation().ReplayedCycles - before
			b.ReportMetric(float64(replayed)/float64(b.N), "replayed_cycles/op")
		})
	}
}

// BenchmarkTraceCompileCold is the cold-shape cost the first request for
// a new processor array pays: every op empties the trace cache and
// compiles the array's communication script again (pace.TraceFor). The
// arrays are 16x16, 50x80 and 80x100 with 5x5 cells per processor, NZ 50,
// MK 10, MMI 3, 6 angles and 12 iterations, on the deterministic fitted
// model the perturbation tests use. The cost kernel is priced once,
// outside the timed loop, so ns/op is the compile alone.
func BenchmarkTraceCompileCold(b *testing.B) {
	analysis, err := capp.SweepKernelAnalysis()
	if err != nil {
		b.Fatal(err)
	}
	ev, err := pace.NewEvaluator(&hwmodel.Model{
		Name:   "perturb-test",
		MFLOPS: 110,
		OpcodeCosts: clc.CostTable{
			clc.MFDG: 10e-9, clc.AFDG: 9e-9, clc.DFDG: 28e-9,
			clc.IFBR: 1.5e-9, clc.LFOR: 2e-9,
		},
		Send:     platform.Piecewise{A: 512, B: 6, C: 0.008, D: 8, E: 0.0042},
		Recv:     platform.Piecewise{A: 512, B: 7, C: 0.008, D: 9, E: 0.0042},
		PingPong: platform.Piecewise{A: 512, B: 26, C: 0.02, D: 32, E: 0.0088},
	}, analysis)
	if err != nil {
		b.Fatal(err)
	}
	defer pace.FlushTraceCache()
	for _, a := range []grid.Decomp{{PX: 16, PY: 16}, {PX: 50, PY: 80}, {PX: 80, PY: 100}} {
		cfg := pace.Config{
			Grid:   grid.Global{NX: 5 * a.PX, NY: 5 * a.PY, NZ: 50},
			Decomp: a,
			MK:     10, MMI: 3, Angles: 6, Iterations: 12,
		}
		b.Run("P="+strconv.Itoa(a.Size()), func(b *testing.B) {
			if _, err := ev.TraceFor(cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pace.FlushTraceCache()
				if _, err := ev.TraceFor(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkSweepKernel measures the functional solver's cell-angle update
// rate (the real transport arithmetic).
func BenchmarkSweepKernel(b *testing.B) {
	p := sweep.New(grid.Global{NX: 32, NY: 32, NZ: 32})
	p.Iterations = 1
	b.ResetTimer()
	var updates int64
	for i := 0; i < b.N; i++ {
		res, err := sweep.SolveSerial(p)
		if err != nil {
			b.Fatal(err)
		}
		updates += res.Counters.CellAngleUpdates
	}
	b.ReportMetric(float64(updates)/b.Elapsed().Seconds()/1e6, "Mupdates/s")
}

// BenchmarkParallelSolve16 exercises the full message-passing solve.
func BenchmarkParallelSolve16(b *testing.B) {
	p := sweep.New(grid.Global{NX: 40, NY: 40, NZ: 20})
	p.Iterations = 2
	for i := 0; i < b.N; i++ {
		if _, err := sweep.SolveParallel(p, grid.Decomp{PX: 4, PY: 4}, mp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSkeleton112 times the cluster simulator at the largest
// validation configuration (112 ranks).
func BenchmarkSkeleton112(b *testing.B) {
	pl := platform.PentiumIIIMyrinet()
	p := sweep.New(grid.Global{NX: 400, NY: 700, NZ: 50})
	for i := 0; i < b.N; i++ {
		if _, err := bench.Measure(pl, p, grid.Decomp{PX: 8, PY: 14}, bench.MeasureOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTemplateEval times one PACE template evaluation at 10x10.
func BenchmarkTemplateEval(b *testing.B) {
	ev, _, err := experiments.BuildEvaluator(platform.PentiumIIIMyrinet(), grid.Global{NX: 50, NY: 50, NZ: 50}, 5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := pace.Config{
		Grid:   grid.Global{NX: 500, NY: 500, NZ: 50},
		Decomp: grid.Decomp{PX: 10, PY: 10},
		MK:     10, MMI: 3, Angles: 6, Iterations: 12,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Predict(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosedForm times the analytic fast path at 8000 processors.
func BenchmarkClosedForm(b *testing.B) {
	ev, _, err := experiments.BuildEvaluator(platform.OpteronMyrinet(), grid.Global{NX: 25, NY: 25, NZ: 200}, 5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := pace.Config{
		Grid:   grid.Global{NX: 2000, NY: 2500, NZ: 200},
		Decomp: grid.Decomp{PX: 80, PY: 100},
		MK:     10, MMI: 3, Angles: 6, Iterations: 12,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.PredictClosedForm(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMPPingPong measures the message-passing runtime's throughput.
func BenchmarkMPPingPong(b *testing.B) {
	w, err := mp.NewWorld(2, mp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err = w.Run(func(c *mp.Comm) error {
		buf := make([]float64, 128)
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, buf)
				c.Recv(1, 1)
			} else {
				c.Recv(0, 0)
				c.Send(0, 1, buf)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCappAnalysis times the static analysis of the kernel source.
func BenchmarkCappAnalysis(b *testing.B) {
	src := capp.SweepKernelSource()
	for i := 0; i < b.N; i++ {
		a, err := capp.Analyze(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Eval("sweep_block", clc.Params{"na": 3, "nk": 10, "ny": 50, "nx": 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPSLEvaluation times a full PSL model evaluation at 4x4.
func BenchmarkPSLEvaluation(b *testing.B) {
	lib, err := psl.LoadSweep3D()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := lib.Evaluate("sweep3d", psl.EvalOptions{
			Overrides: map[string]float64{"it": 200, "jt": 200, "npe_i": 4, "npe_j": 4},
		}); err != nil {
			b.Fatal(err)
		}
	}
}
