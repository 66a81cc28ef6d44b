package pace

import "testing"

// TestTracePredictLongHorizonExtrapolates is the canonicalization
// acceptance: a long-horizon prediction on the (deterministic) fitted
// model must replay the canonical short trace with analytic cycle
// extrapolation — reporting the skipped iterations — while staying
// bit-identical to a full event-backend simulation of every iteration.
func TestTracePredictLongHorizonExtrapolates(t *testing.T) {
	FlushTraceCache()
	ev := testEvaluator(t)
	cfg := paperConfig(3, 2)
	cfg.Iterations = 500

	before := TraceExtrapolation()
	got, err := ev.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Iterations - steadyCanonIters; got.ExtrapolatedIterations != want {
		t.Fatalf("ExtrapolatedIterations = %d, want %d", got.ExtrapolatedIterations, want)
	}
	after := TraceExtrapolation()
	if after.CycleReplays == before.CycleReplays ||
		after.ExtrapolatedReplays == before.ExtrapolatedReplays ||
		after.ExtrapolatedIterations-before.ExtrapolatedIterations < uint64(got.ExtrapolatedIterations) {
		t.Fatalf("extrapolation counters did not advance: before %+v after %+v", before, after)
	}

	evE := *ev
	evE.Scheduler = SchedulerEvent
	want, err := evE.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.ExtrapolatedIterations != 0 {
		t.Fatalf("event backend reports extrapolation: %d", want.ExtrapolatedIterations)
	}
	ref := *want
	ref.ExtrapolatedIterations = got.ExtrapolatedIterations
	if *got != ref {
		t.Fatalf("extrapolated prediction differs from event backend:\n got %+v\nwant %+v", got, want)
	}
}

// TestTraceCanonSharesCompiledShape pins that different long horizons of
// one shape replay the same canonical compiled trace: the second horizon
// must not add a trace-cache miss (no recompilation).
func TestTraceCanonSharesCompiledShape(t *testing.T) {
	FlushTraceCache()
	ev := testEvaluator(t)
	cfg := paperConfig(2, 3)
	cfg.Iterations = 100
	if _, err := ev.Predict(cfg); err != nil {
		t.Fatal(err)
	}
	misses := TraceCacheStats().Misses
	long := cfg
	long.Iterations = 1000
	p, err := ev.Predict(long)
	if err != nil {
		t.Fatal(err)
	}
	if got := TraceCacheStats().Misses; got != misses {
		t.Fatalf("second horizon recompiled the trace (misses %d -> %d)", misses, got)
	}
	if p.ExtrapolatedIterations != long.Iterations-steadyCanonIters {
		t.Fatalf("ExtrapolatedIterations = %d, want %d",
			p.ExtrapolatedIterations, long.Iterations-steadyCanonIters)
	}
}
