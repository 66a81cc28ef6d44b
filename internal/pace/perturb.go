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
	t, err := traceCache.GetOrBuild(key, func() (*mp.Trace, error) {
		return loadOrCompileTrace(key, func() (*mp.Trace, error) {
			return compileTrace(d, k.nab, k.nkb, cfg.Iterations, ckptEvery)
		})
	})
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

// TraceForCkpt is TraceFor for the checkpointed variant of the shape:
// a checkpoint op follows every ckptEvery-th iteration's collective
// (except the last iteration's). Callers map failure instants onto op
// indices of *this* trace, since checkpoints shift later op indices.
func (e *Evaluator) TraceForCkpt(cfg Config, ckptEvery int) (*mp.Trace, error) {
	t, _, err := e.traceAndKernel(cfg, ckptEvery)
	return t, err
}

// RunPerturbed replays the configuration's compiled script under injected
// delays and compute noise, recording per-generation timelines into probe
// when non-nil. A nil delays slice with the same noise and seed is the
// matched baseline: noise draws per rank are in program order on every
// backend, so baseline and perturbed runs see identical draw sequences
// and their clock difference is exactly the injected damage.
func (e *Evaluator) RunPerturbed(cfg Config, delays []mp.Delay, noise mp.ComputeNoise, seed int64, probe *mp.RunProbe) (PerturbedRun, error) {
	t, k, err := e.traceAndKernel(cfg, 0)
	if err != nil {
		return PerturbedRun{}, err
	}
	rp, release := e.acquireReplayer()
	defer release()
	err = rp.Replay(t, mp.Options{
		Net:    e.HW.Net(),
		Noise:  noise,
		Seed:   seed,
		Delays: delays,
		Probe:  probe,
	}, mp.ReplayParams{Charges: k.charges, Sizes: k.sizes})
	if err != nil {
		return PerturbedRun{}, err
	}
	traceReplays.Add(1)
	clocks := make([]float64, t.Ranks())
	for i := range clocks {
		clocks[i] = rp.Clock(i)
	}
	return PerturbedRun{Makespan: rp.Makespan(), Clocks: clocks}, nil
}

// ResilientOptions parameterise a resilient replay: a checkpointed
// template shape plus injected fail-stop failures (and optionally delays,
// noise, a probe and a failure log). CkptEvery 0 disables checkpoint ops;
// failures then rewind to time zero.
type ResilientOptions struct {
	CkptEvery   int     // checkpoint period in iterations (0: none)
	CkptSeconds float64 // charge per checkpoint op (exact, no noise)
	Fails       []mp.FailStop
	Delays      []mp.Delay
	Noise       mp.ComputeNoise
	Seed        int64
	Probe       *mp.RunProbe
	FailLog     *mp.FailLog
}

// RunResilient replays the checkpointed variant of the configuration's
// compiled script under injected fail-stop failures. Like RunPerturbed it
// runs on the trace tier, bypasses the prediction memo, and keeps the
// matched-baseline property: identical options minus the failures give a
// baseline whose clock difference is exactly the failure damage. The
// checkpoint charge is appended to a copy of the kernel's charge table at
// replay time, so cached kernels and unperturbed replays are untouched.
func (e *Evaluator) RunResilient(cfg Config, o ResilientOptions) (PerturbedRun, error) {
	if o.CkptSeconds < 0 || math.IsNaN(o.CkptSeconds) || math.IsInf(o.CkptSeconds, 0) {
		return PerturbedRun{}, fmt.Errorf("pace: checkpoint seconds %v invalid", o.CkptSeconds)
	}
	t, k, err := e.traceAndKernel(cfg, o.CkptEvery)
	if err != nil {
		return PerturbedRun{}, err
	}
	charges := k.charges
	if o.CkptEvery > 0 {
		ext := make([]float64, len(k.charges)+1)
		copy(ext, k.charges)
		ext[len(k.charges)] = o.CkptSeconds
		charges = ext
	}
	rp, release := e.acquireReplayer()
	defer release()
	err = rp.Replay(t, mp.Options{
		Net:     e.HW.Net(),
		Noise:   o.Noise,
		Seed:    o.Seed,
		Delays:  o.Delays,
		Fails:   o.Fails,
		FailLog: o.FailLog,
		Probe:   o.Probe,
	}, mp.ReplayParams{Charges: charges, Sizes: k.sizes})
	if err != nil {
		return PerturbedRun{}, err
	}
	traceReplays.Add(1)
	clocks := make([]float64, t.Ranks())
	for i := range clocks {
		clocks[i] = rp.Clock(i)
	}
	return PerturbedRun{Makespan: rp.Makespan(), Clocks: clocks}, nil
}
