package pace

import (
	"runtime"
	"testing"

	"pacesweep/internal/grid"
	"pacesweep/internal/mp"
)

// parallelDelta runs f and returns how the trace tier's parallel replay
// counters moved.
func parallelDelta(f func()) TraceParallelStats {
	before := TraceParallelism()
	f()
	after := TraceParallelism()
	d := TraceParallelStats{Parallel: after.Parallel - before.Parallel, Serial: map[string]uint64{}}
	for reason, n := range after.Serial {
		if n != before.Serial[reason] {
			d.Serial[reason] = n - before.Serial[reason]
		}
	}
	return d
}

// TestParallelReplayCounters: a 32x32 prediction replays on two workers
// when a P is idle and on one when none is (no_idle_cpu), with the same
// bits at the paper's horizon and at an extrapolated one; the P <= 256
// shapes of predict_hot and sweep_perturb stay serial (small_trace); and a
// perturbed replay counts in neither column.
func TestParallelReplayCounters(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ev := testEvaluator(t)
	for _, iters := range []int{12, 1000} {
		cfg := paperConfig(32, 32)
		cfg.Iterations = iters
		var par, ser *Prediction
		d := parallelDelta(func() {
			var err error
			if par, err = ev.Predict(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if d.Parallel != 1 || len(d.Serial) != 0 {
			t.Fatalf("%d iterations, idle P: counters moved %+v, want one parallel replay", iters, d)
		}
		runtime.GOMAXPROCS(1)
		d = parallelDelta(func() {
			var err error
			if ser, err = ev.Predict(cfg); err != nil {
				t.Fatal(err)
			}
		})
		runtime.GOMAXPROCS(2)
		if d.Parallel != 0 || d.Serial[mp.SerialNoIdleCPU] != 1 {
			t.Fatalf("%d iterations, one P: counters moved %+v, want one no_idle_cpu replay", iters, d)
		}
		if par.Total != ser.Total || par.SweepPerIter != ser.SweepPerIter {
			t.Fatalf("%d iterations: parallel prediction %+v, serial %+v", iters, par, ser)
		}
	}
	for _, iters := range []int{12, 20} {
		cfg := paperConfig(16, 16)
		cfg.Iterations = iters
		d := parallelDelta(func() {
			if _, err := ev.Predict(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if d.Parallel != 0 || d.Serial[mp.SerialSmallTrace] != 1 {
			t.Fatalf("16x16, %d iterations: counters moved %+v, want one small_trace replay", iters, d)
		}
	}
	d := parallelDelta(func() {
		if _, err := ev.RunPerturbed(paperConfig(4, 4), []mp.Delay{{Rank: 1, Op: 3, Seconds: 1}}, nil, 0, nil); err != nil {
			t.Fatal(err)
		}
	})
	if d.Parallel != 0 || len(d.Serial) != 0 {
		t.Fatalf("perturbed replay: counters moved %+v", d)
	}
	// The largest predict_hot and sweep_perturb trace, 16x16 at 20
	// iterations, dispatches fewer fused ops than the admission bound.
	tr, err := compileTrace(grid.Decomp{PX: 16, PY: 16}, 2, 5, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := replayOnce(ev, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Serial != mp.SerialSmallTrace {
		t.Fatalf("16x16 at 20 iterations (%d fused ops): serial reason %q", tr.FusedOps(), st.Serial)
	}
}

// replayOnce replays tr under ev's network model with unit charges.
func replayOnce(ev *Evaluator, tr *mp.Trace) (mp.ReplayStats, error) {
	k, err := ev.kernelFor(paperConfig(16, 16))
	if err != nil {
		return mp.ReplayStats{}, err
	}
	rp := mp.NewReplayer()
	if err := rp.Replay(tr, mp.Options{Net: ev.HW.Net()}, mp.ReplayParams{Charges: k.charges, Sizes: k.sizes}); err != nil {
		return mp.ReplayStats{}, err
	}
	return rp.Stats(), nil
}
