package pace

import (
	"fmt"
	"math/rand"
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
