package experiments

import (
	"fmt"

	"pacesweep/internal/bench"
	"pacesweep/internal/grid"
	"pacesweep/internal/hwmodel"
	"pacesweep/internal/lru"
	"pacesweep/internal/pace"
	"pacesweep/internal/platform"
	"pacesweep/internal/sweep"
)

// This file is the memo layer the experiment drivers share. Figures and
// tables overlap heavily — Figure 8 is regenerated by the shape test, the
// baseline-comparison test and two benchmarks in one process; Table 1 is
// built twice per EXPERIMENTS.md run — and every row is deterministic
// given its explicit seed, so recomputing them is pure waste. Three caches
// remove it:
//
//   - sharedEvaluator: one fitted evaluator per (platform, profile grid,
//     seed), equipped with a pace.PredictionMemo so identical predictions
//     across drivers are evaluated once;
//   - measureOnce: simulated benchmark measurements keyed by the full
//     platform fingerprint, configuration and per-row seed;
//   - overlap rows (see overlap.go) through the same cache type.
//
// All three sit on the repo-wide sharded LRU (internal/lru): build-once
// per resident key under the worker pool, size-bounded so driving
// arbitrary workloads through the drivers cannot grow process memory
// without limit. Every value is a pure function of its key — the keys
// include the per-row seeds and the complete platform parameterisation
// (the health check measures a degraded copy of a platform under the same
// name) — so an evicted row rebuilds byte-identically and memoised
// outputs match the uncached drivers' exactly; a test enforces this.

type evalKey struct {
	platform string
	g        grid.Global
	seed     int64
}

type evalVal struct {
	ev    *pace.Evaluator
	model *hwmodel.Model
}

// Cache bounds: fitted evaluators are heavyweight (each carries its
// caches and idle replayers), so only a handful stay resident;
// measurement rows are a few words each.
var evalCache = lru.New[evalKey, evalVal](64, 4, func(k evalKey) uint64 {
	h := lru.NewHasher()
	h.String(k.platform)
	h.Int(k.g.NX)
	h.Int(k.g.NY)
	h.Int(k.g.NZ)
	h.Uint64(uint64(k.seed))
	return h.Sum()
})

// sharedEvaluator returns the process-wide fitted evaluator for the
// (platform, profile grid, seed) triple, building it once and attaching a
// prediction memo. All drivers go through this, so predictions for rows
// that recur across tables, figures and repeated driver invocations are
// computed exactly once per process. The key is the platform's full %+v
// fingerprint, not its name: a modified copy under an existing name (the
// health check's degraded-platform pattern) must never inherit the
// original's fitted model.
func sharedEvaluator(pl platform.Platform, profileGrid grid.Global, seed int64) (*pace.Evaluator, *hwmodel.Model, error) {
	v, err := evalCache.GetOrBuild(evalKey{platform: fmt.Sprintf("%+v", pl), g: profileGrid, seed: seed}, func() (evalVal, error) {
		ev, model, err := BuildEvaluator(pl, profileGrid, seed)
		if err != nil {
			return evalVal{}, err
		}
		ev.Memo = pace.NewPredictionMemo()
		return evalVal{ev: ev, model: model}, nil
	})
	return v.ev, v.model, err
}

type measureKey struct {
	platform string // full %+v fingerprint, not just the name
	problem  string
	d        grid.Decomp
	seed     int64
}

var measureCache = lru.New[measureKey, float64](1<<14, 8, func(k measureKey) uint64 {
	h := lru.NewHasher()
	h.String(k.platform)
	h.String(k.problem)
	h.Int(k.d.PX)
	h.Int(k.d.PY)
	h.Uint64(uint64(k.seed))
	return h.Sum()
})

// measureOnce is bench.Measure behind the shared memo: one simulated
// measurement per (full platform parameterisation, problem, decomposition,
// seed). The fingerprints make degraded-platform copies (health check) and
// problem variants distinct keys while keeping per-row seeds — and
// therefore every emitted number — byte-identical to the direct call.
func measureOnce(pl platform.Platform, p sweep.Problem, d grid.Decomp, seed int64) (float64, error) {
	// Problem's Stringer covers only the headline shape, so append every
	// physics/boundary field that could distinguish two problems; %+v of
	// the platform has no Stringer and prints the complete truth-side
	// parameterisation.
	key := measureKey{
		platform: fmt.Sprintf("%+v", pl),
		problem: fmt.Sprintf("%v|mat=%+v|sigs1=%g|delta=%v|epsi=%g|maxit=%d|alpha=%v|bsrc=%g|bc=%d,%d|fixup=%t",
			p, p.Mat, p.SigS1, p.Delta, p.Epsi, p.MaxIterations, p.Alpha,
			p.BoundarySource, p.BCLowZ, p.BCHighZ, p.FixupEnabled),
		d:    d,
		seed: seed,
	}
	return measureCache.GetOrBuild(key, func() (float64, error) {
		return bench.Measure(pl, p, d, bench.MeasureOptions{Seed: seed})
	})
}
