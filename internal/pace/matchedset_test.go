package pace

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pacesweep/internal/mp"
)

// uniformTestNoise mirrors perturb.UniformNoise without importing
// internal/perturb (which imports this package).
type uniformTestNoise struct{ frac float64 }

func (u uniformTestNoise) Perturb(s float64, rng *rand.Rand) float64 {
	return s * (1 + u.frac*rng.Float64())
}

// runSet replays one run of a matched set of cfg under o.
func runSet(ev *Evaluator, cfg Config, o SetOptions, run SetRun) (PerturbedRun, error) {
	set, err := ev.OpenMatchedSet(cfg, o)
	if err != nil {
		return PerturbedRun{}, err
	}
	defer set.Close()
	return set.Run(run)
}

// TestMatchedSetBaselineAndDamage pins checkpointed matched sets to the
// perturbation tier: with no checkpoints and no failures a set's baseline
// reproduces RunPerturbed's bit for bit; checkpoints add exactly their
// charges; and a fail-stop failure slows the run by at least its rework.
func TestMatchedSetBaselineAndDamage(t *testing.T) {
	ev := testEvaluator(t)
	cfg := paperConfig(2, 2)
	base, err := ev.RunPerturbed(cfg, nil, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runSet(ev, cfg, SetOptions{}, SetRun{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Makespan != base.Makespan {
		t.Fatalf("uncheckpointed set baseline %v != perturbed baseline %v",
			plain.Makespan, base.Makespan)
	}
	const ckpt = 0.01
	set, err := ev.OpenMatchedSet(cfg, SetOptions{CkptEvery: 3, CkptSeconds: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	ckpted, err := set.Run(SetRun{})
	if err != nil {
		t.Fatal(err)
	}
	// 12 iterations, checkpoint after every 3rd except the last: 3 ops.
	want := base.Makespan + 3*ckpt
	if diff := ckpted.Makespan - want; diff < -1e-12 || diff > 1e-12 {
		t.Fatalf("checkpointed baseline %v, want %v", ckpted.Makespan, want)
	}
	op := set.Trace().OpIndexOfReduce(1, 5) + 1
	const restart = 0.02
	failed, err := set.Run(SetRun{Fails: []mp.FailStop{{Rank: 1, Op: op, Restart: restart}}})
	if err != nil {
		t.Fatal(err)
	}
	if failed.Makespan < ckpted.Makespan+restart {
		t.Fatalf("failure damage too small: %v < %v + %v",
			failed.Makespan, ckpted.Makespan, restart)
	}
}

// TestMatchedSetConcurrent hammers one shared evaluator with identical
// checkpointed, noisy, failing replays from many goroutines, each on its
// own matched set: every run must agree bit for bit on makespan and
// per-rank clocks (the checkpointed trace-cache entries and pooled
// replayers are shared), and the unperturbed memo must stay unpoisoned.
// Run under -race by the CI scheduler matrix.
func TestMatchedSetConcurrent(t *testing.T) {
	ev := testEvaluator(t)
	cfg := paperConfig(2, 3)
	o := SetOptions{CkptEvery: 2, CkptSeconds: 0.01, Noise: uniformTestNoise{frac: 0.02}, Seed: 11}
	set, err := ev.OpenMatchedSet(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	run := SetRun{Fails: []mp.FailStop{{Rank: 2, Op: set.Trace().OpIndexOfReduce(2, 3) + 1, Restart: 0.05}}}
	ref, err := set.Run(run)
	set.Close()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := ev.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const grinders = 8
	errs := make(chan error, grinders)
	for g := 0; g < grinders; g++ {
		go func() {
			for round := 0; round < 4; round++ {
				got, err := runSet(ev, cfg, o, run)
				if err != nil {
					errs <- err
					return
				}
				if got.Makespan != ref.Makespan {
					errs <- fmt.Errorf("makespan %v != reference %v", got.Makespan, ref.Makespan)
					return
				}
				for i := range got.Clocks {
					if got.Clocks[i] != ref.Clocks[i] {
						errs <- fmt.Errorf("rank %d clock %v != reference %v", i, got.Clocks[i], ref.Clocks[i])
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < grinders; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	p, err := ev.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Total != clean.Total {
		t.Fatalf("memo poisoned by checkpointed replays: %v != %v", p.Total, clean.Total)
	}
}

// laneTestRuns is a baseline and three perturbed runs of a set over trace
// tr: a delay, a fail-stop, and both, with fresh recorders.
func laneTestRuns(tr *mp.Trace) []SetRun {
	delay := []mp.Delay{{Rank: 1, Op: tr.OpIndexOfReduce(1, 2) + 1, Seconds: 0.3}}
	fail := []mp.FailStop{{Rank: 4, Op: tr.OpIndexOfReduce(4, 6) + 1, Restart: 0.05}}
	return []SetRun{
		{Probe: &mp.RunProbe{}},
		{Delays: delay, Probe: &mp.RunProbe{}},
		{Fails: fail, FailLog: &mp.FailLog{}},
		{Delays: delay, Fails: fail, Probe: &mp.RunProbe{}, FailLog: &mp.FailLog{}},
	}
}

// sameRun reports how two runs of a matched set differ, or "" when their
// makespans, clocks, probe rows and fail logs are bit-identical.
func sameRun(a, b PerturbedRun, ra, rb SetRun) string {
	if a.Makespan != b.Makespan {
		return fmt.Sprintf("makespan %v vs %v", a.Makespan, b.Makespan)
	}
	for i := range a.Clocks {
		if a.Clocks[i] != b.Clocks[i] {
			return fmt.Sprintf("rank %d clock %v vs %v", i, a.Clocks[i], b.Clocks[i])
		}
	}
	if ra.Probe != nil {
		if ra.Probe.Generations() != rb.Probe.Generations() {
			return fmt.Sprintf("probe generations %d vs %d", ra.Probe.Generations(), rb.Probe.Generations())
		}
		for g := 0; g < ra.Probe.Generations(); g++ {
			if !slices.Equal(ra.Probe.ClockRow(g), rb.Probe.ClockRow(g)) || !slices.Equal(ra.Probe.IdleRow(g), rb.Probe.IdleRow(g)) {
				return fmt.Sprintf("probe generation %d differs", g)
			}
		}
	}
	if ra.FailLog != nil && !slices.Equal(ra.FailLog.Events(), rb.FailLog.Events()) {
		return fmt.Sprintf("fail log %+v vs %+v", ra.FailLog.Events(), rb.FailLog.Events())
	}
	return ""
}

// TestMatchedSetRunAllMatchesRuns: a checkpointed, noisy matched set's
// runs made in one RunAll pass equal the same runs made one Run after
// another, on makespans, clocks, probe rows and fail logs, and each run
// counts as one trace replay. Concurrent sets on one evaluator (each its
// own pass, sharing cached traces and pooled replayers) agree with the
// sequential reference too; CI runs this under -race.
func TestMatchedSetRunAllMatchesRuns(t *testing.T) {
	ev := testEvaluator(t)
	cfg := paperConfig(2, 3)
	o := SetOptions{CkptEvery: 2, CkptSeconds: 0.01, Noise: uniformTestNoise{frac: 0.02}, Seed: 11}
	set, err := ev.OpenMatchedSet(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	tr := set.Trace()
	seq := laneTestRuns(tr)
	want := make([]PerturbedRun, len(seq))
	for i, run := range seq {
		if want[i], err = set.Run(run); err != nil {
			t.Fatal(err)
		}
	}
	runs := laneTestRuns(tr)
	before := TraceReplays()
	got, err := set.RunAll(runs)
	set.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := TraceReplays() - before; n != uint64(len(runs)) {
		t.Fatalf("one pass of %d runs counted %d trace replays", len(runs), n)
	}
	for i := range runs {
		if d := sameRun(got[i], want[i], runs[i], seq[i]); d != "" {
			t.Fatalf("run %d: pass vs sequential: %s", i, d)
		}
	}
	if want[1].Makespan <= want[0].Makespan || want[2].Makespan <= want[0].Makespan {
		t.Fatalf("perturbed runs no slower than the baseline: %v, %v vs %v",
			want[1].Makespan, want[2].Makespan, want[0].Makespan)
	}

	const grinders = 6
	errs := make(chan error, grinders)
	for g := 0; g < grinders; g++ {
		go func() {
			for round := 0; round < 3; round++ {
				set, err := ev.OpenMatchedSet(cfg, o)
				if err != nil {
					errs <- err
					return
				}
				runs := laneTestRuns(tr)
				got, err := set.RunAll(runs)
				set.Close()
				if err != nil {
					errs <- err
					return
				}
				for i := range runs {
					if d := sameRun(got[i], want[i], runs[i], seq[i]); d != "" {
						errs <- fmt.Errorf("concurrent run %d: %s", i, d)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < grinders; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
