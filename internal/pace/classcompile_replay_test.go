package pace_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"pacesweep/internal/capp"
	"pacesweep/internal/grid"
	"pacesweep/internal/hwmodel"
	"pacesweep/internal/pace"
	"pacesweep/internal/perturb"
)

func newEvaluator(t *testing.T, m *hwmodel.Model) *pace.Evaluator {
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

// TestClassCompileReplaysMatchRecorded replays a class-compiled trace and
// a recorded trace of the same shape through the serving entry points: a
// perturbed run with a delay and compute noise, and a prediction on a
// hierarchical platform. Both must come out bit-identical. Each run uses a
// fresh evaluator, so no prediction memo or kernel cache carries a result
// over from the other trace.
func TestClassCompileReplaysMatchRecorded(t *testing.T) {
	defer pace.FlushTraceCache()
	cfg := pace.Config{
		Grid:   grid.Global{NX: 50 * 6, NY: 50 * 4, NZ: 50},
		Decomp: grid.Decomp{PX: 6, PY: 4},
		MK:     10, MMI: 3, Angles: 6, Iterations: 12,
	}
	sc := perturb.Scenario{
		Seed:   7,
		Delays: []perturb.DelaySpec{{Rank: 9, Iteration: 2, Seconds: 3}},
		Noise:  &perturb.NoiseSpec{Kind: "uniform", Frac: 0.02},
	}
	perturbed := func(recorded bool) []byte {
		ev := newEvaluator(t, pace.TestModel())
		if recorded {
			if err := pace.InstallRecordedTrace(ev, cfg); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := perturb.Run(ev, cfg, sc, true)
		if err != nil {
			t.Fatal(err)
		}
		checkNoCompile(t, recorded)
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	pace.FlushTraceCache()
	if cls, rec := perturbed(false), perturbed(true); !bytes.Equal(cls, rec) {
		t.Fatalf("perturbed run differs:\nclass    %s\nrecorded %s", cls, rec)
	}

	hier := cfg
	hier.Decomp = grid.Decomp{PX: 4, PY: 3} // 12 ranks over 3 nodes of 4
	hier.Grid = grid.Global{NX: 50 * 4, NY: 50 * 3, NZ: 50}
	predict := func(recorded bool) pace.Prediction {
		ev := newEvaluator(t, pace.HierTestModel())
		if recorded {
			if err := pace.InstallRecordedTrace(ev, hier); err != nil {
				t.Fatal(err)
			}
		}
		p, err := ev.Predict(hier)
		if err != nil {
			t.Fatal(err)
		}
		checkNoCompile(t, recorded)
		return *p
	}
	pace.FlushTraceCache()
	if cls, rec := predict(false), predict(true); cls != rec {
		t.Fatalf("hierarchical prediction differs:\nclass    %+v\nrecorded %+v", cls, rec)
	}
}

// checkNoCompile fails the test if a run meant to replay the installed
// recorded trace compiled its own: the installation is the cache's only
// miss.
func checkNoCompile(t *testing.T, recorded bool) {
	t.Helper()
	if m := pace.TraceCacheStats().Misses; recorded && m != 1 {
		t.Fatalf("trace cache misses = %d, want only the installed trace", m)
	}
}
