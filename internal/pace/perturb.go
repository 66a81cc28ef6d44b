package pace

// Fault-injection entry points of the evaluator: expose the compiled
// communication script of a configuration (so callers can convert
// iteration-structured injection points into exact per-rank op indices)
// and replay it under injected delays, compute noise and a run probe.
// Perturbed evaluations always run on the trace tier and bypass the
// prediction memo entirely — a perturbed makespan must never poison the
// unperturbed caches.

import (
	"fmt"
	"math"
	"slices"

	"pacesweep/internal/mp"
)

// PerturbedRun is the outcome of one perturbed (or baseline) replay.
type PerturbedRun struct {
	Makespan float64   // maximum final rank clock, seconds
	Clocks   []float64 // final per-rank clocks
}

// traceAndKernel resolves a template-path configuration to its cost
// kernel and compiled communication script (compiling and caching the
// script on first use). ckptEvery > 0 compiles the checkpointed variant
// of the shape (a distinct cache entry: checkpoints add ops).
func (e *Evaluator) traceAndKernel(cfg Config, ckptEvery int) (*mp.Trace, *costKernel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if !UsesTemplate(cfg) {
		return nil, nil, fmt.Errorf("pace: perturbation requires the template path (%d ranks > %d)",
			cfg.Decomp.Size(), TemplateMaxRanks)
	}
	if ckptEvery < 0 {
		return nil, nil, fmt.Errorf("pace: checkpoint interval %d negative", ckptEvery)
	}
	k, err := e.kernelFor(cfg)
	if err != nil {
		return nil, nil, err
	}
	d := cfg.Decomp
	key := traceKey{px: d.PX, py: d.PY, nab: k.nab, nkb: k.nkb, iterations: cfg.Iterations, ckptEvery: ckptEvery}
	t, err := cachedTrace(key)
	if err != nil {
		return nil, nil, err
	}
	return t, k, nil
}

// TraceFor returns the compiled communication script of a template-path
// configuration. The trace is immutable and shared; callers use it to map
// iteration-based injection points onto op indices (Trace.OpIndexOfReduce
// — the template ends every iteration with one collective).
func (e *Evaluator) TraceFor(cfg Config) (*mp.Trace, error) {
	t, _, err := e.traceAndKernel(cfg, 0)
	return t, err
}

// RunPerturbed replays the configuration's compiled script under injected
// delays and compute noise, recording per-generation timelines into probe
// when non-nil. A nil delays slice with the same noise and seed is the
// matched baseline: noise draws per rank are in program order on every
// backend, so baseline and perturbed runs see identical draw sequences
// and their clock difference is exactly the injected damage. A caller
// replaying both opens one MatchedSet instead, which replays them as lanes
// of one pass, drawing the noise once.
func (e *Evaluator) RunPerturbed(cfg Config, delays []mp.Delay, noise mp.ComputeNoise, seed int64, probe *mp.RunProbe) (PerturbedRun, error) {
	set, err := e.OpenMatchedSet(cfg, SetOptions{Noise: noise, Seed: seed})
	if err != nil {
		return PerturbedRun{}, err
	}
	defer set.Close()
	return set.Run(SetRun{Delays: delays, Probe: probe})
}

// SetOptions are what every replay of a matched set shares: the
// checkpointed shape, the noise model and the seed.
type SetOptions struct {
	CkptEvery   int     // checkpoint period in iterations (0: none)
	CkptSeconds float64 // charge per checkpoint op (exact, no noise)
	Noise       mp.ComputeNoise
	Seed        int64
}

// SetRun is one replay of a matched set, one lane of its replayer's pass:
// its own injected events and recorders. The zero SetRun is the set's
// baseline.
type SetRun = mp.Lane

// MatchedSet replays one configuration several times under one noise model
// and seed, as the idle-wave and resilience analyses need: a baseline plus
// perturbed runs whose clock differences are exactly the injected damage.
// The set holds one pooled replayer. Each replay seeds the per-rank noise
// streams afresh and drops them on return, so every run sees the same
// draws; RunAll replays several runs in one pass, drawing the noise once
// for all of them. Close returns the replayer. A MatchedSet is not safe
// for concurrent use.
type MatchedSet struct {
	t       *mp.Trace
	opts    mp.Options
	params  mp.ReplayParams
	rp      *mp.Replayer
	release func()
}

// OpenMatchedSet resolves the configuration's (checkpointed) trace and
// cost kernel. The checkpoint charge is appended to a copy of the
// kernel's charge table, so cached kernels and unperturbed replays are
// untouched.
func (e *Evaluator) OpenMatchedSet(cfg Config, o SetOptions) (*MatchedSet, error) {
	if o.CkptSeconds < 0 || math.IsNaN(o.CkptSeconds) || math.IsInf(o.CkptSeconds, 0) {
		return nil, fmt.Errorf("pace: checkpoint seconds %v invalid", o.CkptSeconds)
	}
	t, k, err := e.traceAndKernel(cfg, o.CkptEvery)
	if err != nil {
		return nil, err
	}
	charges := k.charges
	if o.CkptEvery > 0 {
		charges = append(slices.Clip(k.charges), o.CkptSeconds)
	}
	s := &MatchedSet{
		t:      t,
		opts:   mp.Options{Net: e.HW.Net(), Noise: o.Noise, Seed: o.Seed},
		params: mp.ReplayParams{Charges: charges, Sizes: k.sizes},
	}
	s.rp, s.release = e.acquireReplayer()
	return s, nil
}

// Trace returns the set's compiled script, for mapping iterations onto op
// indices (Trace.OpIndexOfReduce).
func (s *MatchedSet) Trace() *mp.Trace { return s.t }

// Run replays the set's configuration under one run's perturbations. It
// is the one-run case of RunAll.
func (s *MatchedSet) Run(run SetRun) (PerturbedRun, error) {
	out, err := s.RunAll([]SetRun{run})
	if err != nil {
		return PerturbedRun{}, err
	}
	return out[0], nil
}

// RunAll replays the set's configuration once per run, all runs in one
// pass of the replayer as clock lanes (mp.Replayer.ReplayLanes): the runs
// share the op dispatch, the message traffic, the schedule and every
// noise draw, and each run's clocks, probe and fail log equal what Run
// gives it alone. The results are in run order. Each run counts as one
// trace replay.
func (s *MatchedSet) RunAll(runs []SetRun) ([]PerturbedRun, error) {
	if err := s.rp.ReplayLanes(s.t, s.opts, s.params, runs); err != nil {
		return nil, err
	}
	st := s.rp.Stats()
	out := make([]PerturbedRun, len(runs))
	for i := range out {
		countReplay(st)
		clocks := make([]float64, s.t.Ranks())
		for r := range clocks {
			clocks[r] = s.rp.LaneClock(i, r)
		}
		out[i] = PerturbedRun{Makespan: s.rp.LaneMakespan(i), Clocks: clocks}
	}
	return out, nil
}

// Close returns the set's replayer to the pool.
func (s *MatchedSet) Close() {
	if s.release != nil {
		s.release()
	}
	s.rp, s.release = nil, nil
}
