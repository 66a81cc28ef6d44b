// Package resilience turns the perturbation engine into a failure-aware
// analysis layer: given an MTBF and a checkpoint/restart cost model, it
// computes the expected makespan of a configuration under fail-stop rank
// failures via deterministic seeded failure-scenario sampling, compares
// the simulated-optimal checkpoint interval with the Young and Daly
// analytic optima, breaks down the wasted work (rework, checkpoint
// overhead, restart), and sweeps the compute-noise level itself into a
// damage-vs-noise-fraction curve with a scalar noise-tolerance score.
//
// Everything is deterministic for a fixed study seed: failure times are
// drawn from seeded exponential streams, every replay runs on the trace
// tier with program-order noise draws, and all aggregation is in fixed
// order — a report marshals byte-identically across runs.
package resilience

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pacesweep/internal/mp"
	"pacesweep/internal/pace"
	"pacesweep/internal/perturb"
)

// CheckpointSpec is the checkpoint/restart cost model of a study.
type CheckpointSpec struct {
	// IntervalIterations is the checkpoint period K: a checkpoint op is
	// charged after every K-th iteration's collective (never after the
	// final iteration). 0 disables checkpointing — failures then rewind to
	// the start of the run.
	IntervalIterations int `json:"interval_iterations"`
	// CheckpointSeconds is the per-checkpoint write cost charged to every
	// rank (exact: checkpoint I/O is not subject to compute noise).
	CheckpointSeconds float64 `json:"checkpoint_seconds"`
	// RestartSeconds is the per-failure rejoin cost (relaunch plus
	// checkpoint read) charged on top of the re-executed work.
	RestartSeconds float64 `json:"restart_seconds"`
}

// FailureSpec is the failure model of a study.
type FailureSpec struct {
	// MTBFSeconds is the system-level mean time between failures: failure
	// inter-arrival times are Exp(MTBF) draws, and each failure strikes a
	// uniformly drawn rank.
	MTBFSeconds float64 `json:"mtbf_seconds"`
	// Scenarios is the number of sampled failure scenarios the expectation
	// averages over (default 8, max 64). Every scenario is one replay.
	Scenarios int `json:"scenarios,omitempty"`
	// MaxFailures caps the failures sampled per scenario (default 32,
	// max 256), bounding the cost of a pathological MTBF.
	MaxFailures int `json:"max_failures,omitempty"`
}

// Study is a complete resilience experiment specification.
type Study struct {
	Seed       int64          `json:"seed"`
	Checkpoint CheckpointSpec `json:"checkpoint"`
	Failure    FailureSpec    `json:"failure"`
	// Noise, when set, applies the same stochastic compute noise to every
	// run of the study (baselines and failure scenarios alike), so the
	// expectation is under noise, not beside it.
	Noise *perturb.NoiseSpec `json:"noise,omitempty"`
	// Intervals are additional checkpoint periods to sweep for the
	// simulated-optimal interval. Empty: a geometric ladder 1, 2, 4, ...
	// up to the iteration count (at most 8 candidates) is used.
	Intervals []int `json:"intervals,omitempty"`
	// NoiseFracs sweeps the noise level itself into a damage-vs-fraction
	// curve and the noise-tolerance score (max 32 fractions). The noise
	// kind follows Noise.Kind, defaulting to "uniform".
	NoiseFracs []float64 `json:"noise_fracs,omitempty"`
}

// Study limits; validation rejects specs beyond them.
const (
	DefaultScenarios = 8
	MaxScenarios     = 64
	DefaultMaxFails  = 32
	MaxMaxFails      = 256
	MaxIntervals     = 16
	MaxNoiseFracs    = 32
)

// NoiseToleranceThresholdPct is the makespan inflation (percent over the
// noise-free baseline) at which the noise-tolerance score is read off the
// damage-vs-noise-fraction curve.
const NoiseToleranceThresholdPct = 10.0

// scenarios returns the effective scenario count.
func (f FailureSpec) scenarios() int {
	if f.Scenarios == 0 {
		return DefaultScenarios
	}
	return f.Scenarios
}

// maxFailures returns the effective per-scenario failure cap.
func (f FailureSpec) maxFailures() int {
	if f.MaxFailures == 0 {
		return DefaultMaxFails
	}
	return f.MaxFailures
}

// Validate checks the study against a configuration's iteration count.
func (st Study) Validate(iterations int) error {
	ck := st.Checkpoint
	if ck.IntervalIterations < 0 || ck.IntervalIterations > iterations {
		return fmt.Errorf("resilience: checkpoint interval %d out of range [0,%d]", ck.IntervalIterations, iterations)
	}
	if ck.CheckpointSeconds < 0 || math.IsNaN(ck.CheckpointSeconds) || math.IsInf(ck.CheckpointSeconds, 0) {
		return fmt.Errorf("resilience: checkpoint seconds %v must be finite and non-negative", ck.CheckpointSeconds)
	}
	if ck.RestartSeconds < 0 || math.IsNaN(ck.RestartSeconds) || math.IsInf(ck.RestartSeconds, 0) {
		return fmt.Errorf("resilience: restart seconds %v must be finite and non-negative", ck.RestartSeconds)
	}
	fl := st.Failure
	if !(fl.MTBFSeconds > 0) || math.IsInf(fl.MTBFSeconds, 0) {
		return fmt.Errorf("resilience: mtbf %v must be positive and finite", fl.MTBFSeconds)
	}
	if fl.Scenarios < 0 || fl.Scenarios > MaxScenarios {
		return fmt.Errorf("resilience: scenario count %d out of range [0,%d]", fl.Scenarios, MaxScenarios)
	}
	if fl.MaxFailures < 0 || fl.MaxFailures > MaxMaxFails {
		return fmt.Errorf("resilience: max failures %d out of range [0,%d]", fl.MaxFailures, MaxMaxFails)
	}
	if len(st.Intervals) > MaxIntervals {
		return fmt.Errorf("resilience: %d sweep intervals exceed the %d limit", len(st.Intervals), MaxIntervals)
	}
	for _, k := range st.Intervals {
		if k < 1 || k > iterations {
			return fmt.Errorf("resilience: sweep interval %d out of range [1,%d]", k, iterations)
		}
	}
	if len(st.NoiseFracs) > MaxNoiseFracs {
		return fmt.Errorf("resilience: %d noise fractions exceed the %d limit", len(st.NoiseFracs), MaxNoiseFracs)
	}
	for _, f := range st.NoiseFracs {
		if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("resilience: noise fraction %v must be finite and non-negative", f)
		}
	}
	if _, err := st.Noise.Model(); err != nil {
		return err
	}
	return nil
}

// ScenarioOutcome is one sampled failure scenario's result.
type ScenarioOutcome struct {
	Scenario        int     `json:"scenario"`
	Failures        int     `json:"failures"`
	MakespanSeconds float64 `json:"makespan_seconds"`
	ReworkSeconds   float64 `json:"rework_seconds"`
	RestartSeconds  float64 `json:"restart_seconds"`
}

// WasteBreakdown splits the expected cost of running under failures into
// its mechanisms, all relative to the clean (no-checkpoint, no-failure)
// run.
type WasteBreakdown struct {
	// CheckpointOverheadSeconds is the checkpointed baseline minus the
	// clean baseline: what checkpointing costs even when nothing fails.
	CheckpointOverheadSeconds float64 `json:"checkpoint_overhead_seconds"`
	// MeanReworkSeconds / MeanRestartSeconds are per-scenario means of the
	// re-executed work and rejoin charges across sampled scenarios.
	MeanReworkSeconds  float64 `json:"mean_rework_seconds"`
	MeanRestartSeconds float64 `json:"mean_restart_seconds"`
	MeanFailures       float64 `json:"mean_failures"`
}

// IntervalPoint is one checkpoint period of the interval sweep.
type IntervalPoint struct {
	IntervalIterations  int     `json:"interval_iterations"`
	CheckpointedSeconds float64 `json:"checkpointed_seconds"`
	ExpectedSeconds     float64 `json:"expected_seconds"`
}

// AnalyticOptimum is the Young / Daly optimal checkpoint interval for the
// study's cost model, converted to iterations via the clean per-iteration
// time for comparison with the simulated optimum.
type AnalyticOptimum struct {
	YoungIntervalSeconds    float64 `json:"young_interval_seconds"`
	DalyIntervalSeconds     float64 `json:"daly_interval_seconds"`
	YoungIntervalIterations int     `json:"young_interval_iterations"`
	DalyIntervalIterations  int     `json:"daly_interval_iterations"`
}

// NoisePoint is one level of the noise-sensitivity curve.
type NoisePoint struct {
	Frac            float64 `json:"frac"`
	MakespanSeconds float64 `json:"makespan_seconds"`
	InflationPct    float64 `json:"inflation_percent"`
}

// Report is the result of one resilience study.
type Report struct {
	Ranks      int   `json:"ranks"`
	Iterations int   `json:"iterations"`
	Seed       int64 `json:"seed"`

	// CleanSeconds is the no-checkpoint no-failure makespan (under the
	// study's noise, if any); CheckpointedSeconds adds the checkpoint
	// charges; ExpectedSeconds is the scenario-mean makespan under
	// failures.
	CleanSeconds        float64 `json:"clean_seconds"`
	CheckpointedSeconds float64 `json:"checkpointed_seconds"`
	ExpectedSeconds     float64 `json:"expected_seconds"`
	ExpectedSlowdownPct float64 `json:"expected_slowdown_percent"`

	Waste     WasteBreakdown    `json:"waste"`
	Scenarios []ScenarioOutcome `json:"scenarios"`

	// Intervals is the checkpoint-period sweep (always including the
	// study's own interval); SimulatedOptimal is its argmin.
	Intervals        []IntervalPoint `json:"intervals"`
	SimulatedOptimal IntervalPoint   `json:"simulated_optimal"`
	Analytic         AnalyticOptimum `json:"analytic"`

	// NoiseCurve and the tolerance score are present when the study swept
	// noise fractions. NoiseTolerance is the interpolated fraction at
	// which makespan inflation crosses NoiseToleranceThresholdPct;
	// NoiseToleranceCapped marks curves that never cross (the score is
	// then the largest swept fraction — a lower bound).
	NoiseCurve           []NoisePoint `json:"noise_curve,omitempty"`
	NoiseTolerance       float64      `json:"noise_tolerance,omitempty"`
	NoiseToleranceCapped bool         `json:"noise_tolerance_capped,omitempty"`
}

// scenarioSeed derives the failure-sampling stream of scenario s. The
// same streams are reused across the interval sweep (common random
// numbers), so interval comparisons are paired, not independent.
func scenarioSeed(seed int64, s int) int64 {
	return seed + int64(s+1)*0x9E3779B9
}

// iterationAt maps a failure instant on rank's baseline timeline to the
// iteration it falls in, by binary search over the probe's per-rank entry
// clocks (strictly increasing across generations; one generation per
// iteration plus the closing collective).
func iterationAt(probe *mp.RunProbe, iterations, rank int, t float64) int {
	lo, hi := 0, iterations-1
	for lo < hi {
		mid := (lo + hi) / 2
		if probe.ClockRow(mid)[rank] >= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// sampleFails draws one scenario's failure set on the checkpointed
// baseline timeline: exponential inter-arrival times over [0, span),
// uniform ranks, each instant mapped to the op index starting its
// iteration on the checkpointed trace. A failure mapped to iteration i
// lands at the op right after iteration i-1's collective — on checkpoint
// boundaries that is the checkpoint op itself, and the failure fires
// before it executes, rewinding to the previous checkpoint (the
// conservative reading: the checkpoint being written is lost).
func sampleFails(rng *rand.Rand, tr *mp.Trace, probe *mp.RunProbe, spec FailureSpec, restart float64, ranks, iterations int, span float64) []mp.FailStop {
	var fails []mp.FailStop
	t := 0.0
	for len(fails) < spec.maxFailures() {
		t += rng.ExpFloat64() * spec.MTBFSeconds
		if t >= span {
			break
		}
		rank := rng.Intn(ranks)
		iter := iterationAt(probe, iterations, rank, t)
		op := 0
		if iter > 0 {
			op = tr.OpIndexOfReduce(rank, iter-1) + 1
		}
		fails = append(fails, mp.FailStop{Rank: rank, Op: op, Restart: restart})
	}
	return fails
}

// evalInterval computes the expected makespan for one checkpoint period:
// a checkpointed baseline (probe attached, for the time→iteration map),
// then every sampled failure scenario in one lane pass, all one matched
// set that shares the trace and one replayer. The scenarios are sampled
// from the baseline's probe, so the baseline runs first: two passes per
// interval, each seeding and drawing the per-rank noise streams afresh.
func evalInterval(ev *pace.Evaluator, cfg pace.Config, st Study, noise mp.ComputeNoise, interval int) (ckpt float64, outcomes []ScenarioOutcome, err error) {
	ck := st.Checkpoint
	set, err := ev.OpenMatchedSet(cfg, pace.SetOptions{
		CkptEvery:   interval,
		CkptSeconds: ck.CheckpointSeconds,
		Noise:       noise,
		Seed:        st.Seed,
	})
	if err != nil {
		return 0, nil, err
	}
	defer set.Close()
	probe := &mp.RunProbe{}
	base, err := set.Run(pace.SetRun{Probe: probe})
	if err != nil {
		return 0, nil, err
	}
	tr := set.Trace()
	ranks := cfg.Decomp.Size()
	n := st.Failure.scenarios()
	runs := make([]pace.SetRun, n)
	for s := range runs {
		rng := rand.New(rand.NewSource(scenarioSeed(st.Seed, s)))
		fails := sampleFails(rng, tr, probe, st.Failure, ck.RestartSeconds, ranks, cfg.Iterations, base.Makespan)
		runs[s] = pace.SetRun{Fails: fails, FailLog: &mp.FailLog{}}
	}
	results, err := set.RunAll(runs)
	if err != nil {
		return 0, nil, err
	}
	outcomes = make([]ScenarioOutcome, n)
	for s, run := range results {
		flog := runs[s].FailLog
		outcomes[s] = ScenarioOutcome{
			Scenario:        s,
			Failures:        flog.Applied(),
			MakespanSeconds: run.Makespan,
			ReworkSeconds:   flog.ReworkSeconds(),
			RestartSeconds:  flog.RestartSeconds(),
		}
	}
	return base.Makespan, outcomes, nil
}

// meanMakespan averages scenario makespans in index order.
func meanMakespan(outcomes []ScenarioOutcome) float64 {
	if len(outcomes) == 0 {
		return 0
	}
	s := 0.0
	for _, o := range outcomes {
		s += o.MakespanSeconds
	}
	return s / float64(len(outcomes))
}

// defaultIntervals is the geometric candidate ladder used when the study
// names no sweep intervals: 1, 2, 4, ... capped at the iteration count
// and at 8 candidates.
func defaultIntervals(iterations int) []int {
	var out []int
	for k := 1; k <= iterations && len(out) < 8; k *= 2 {
		out = append(out, k)
	}
	return out
}

// youngDaly computes the analytic optimal checkpoint intervals for
// checkpoint cost delta and MTBF m: Young's first-order tau = sqrt(2
// delta M), and Daly's higher-order refinement (valid for delta < 2M;
// beyond it Daly prescribes tau = M).
func youngDaly(delta, m float64) (young, daly float64) {
	young = math.Sqrt(2 * delta * m)
	if delta < 2*m {
		x := delta / (2 * m)
		daly = math.Sqrt(2*delta*m)*(1+math.Sqrt(x)/3+x/9) - delta
	} else {
		daly = m
	}
	return young, daly
}

// toIterations converts an interval in seconds to whole iterations of the
// clean run, clamped to [1, iterations].
func toIterations(tau, iterSeconds float64, iterations int) int {
	if iterSeconds <= 0 {
		return 1
	}
	k := int(math.Round(tau / iterSeconds))
	if k < 1 {
		k = 1
	}
	if k > iterations {
		k = iterations
	}
	return k
}

// NoiseCurve sweeps the noise fraction of the given kind over a
// configuration: one trace replay per fraction plus one noise-free
// baseline. It returns the curve in the order given, the noise-tolerance
// score (the interpolated fraction at which makespan inflation crosses
// NoiseToleranceThresholdPct), and whether the curve never crossed (the
// score is then the largest swept fraction). Fractions must be finite and
// non-negative; kind "" defaults to uniform.
func NoiseCurve(ev *pace.Evaluator, cfg pace.Config, kind string, seed int64, fracs []float64) ([]NoisePoint, float64, bool, error) {
	if kind == "" {
		kind = "uniform"
	}
	base, err := ev.RunPerturbed(cfg, nil, nil, seed, nil)
	if err != nil {
		return nil, 0, false, err
	}
	curve := make([]NoisePoint, 0, len(fracs))
	for _, f := range fracs {
		model, err := (&perturb.NoiseSpec{Kind: kind, Frac: f}).Model()
		if err != nil {
			return nil, 0, false, err
		}
		run, err := ev.RunPerturbed(cfg, nil, model, seed, nil)
		if err != nil {
			return nil, 0, false, err
		}
		curve = append(curve, NoisePoint{
			Frac:            f,
			MakespanSeconds: run.Makespan,
			InflationPct:    (run.Makespan/base.Makespan - 1) * 100,
		})
	}
	tol, capped := toleranceFrom(curve)
	return curve, tol, capped, nil
}

// toleranceFrom reads the noise-tolerance score off a curve: the linearly
// interpolated fraction at which inflation crosses the threshold, walking
// the fractions in ascending order from the (0, 0) origin.
func toleranceFrom(curve []NoisePoint) (tol float64, capped bool) {
	if len(curve) == 0 {
		return 0, false
	}
	pts := make([]NoisePoint, len(curve))
	copy(pts, curve)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Frac < pts[j].Frac })
	prevF, prevI := 0.0, 0.0
	for _, p := range pts {
		if p.InflationPct >= NoiseToleranceThresholdPct {
			if p.InflationPct == prevI {
				return p.Frac, false
			}
			t := (NoiseToleranceThresholdPct - prevI) / (p.InflationPct - prevI)
			return prevF + t*(p.Frac-prevF), false
		}
		prevF, prevI = p.Frac, p.InflationPct
	}
	return pts[len(pts)-1].Frac, true
}

// Run executes the study against the configuration on ev's platform.
func Run(ev *pace.Evaluator, cfg pace.Config, st Study) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := st.Validate(cfg.Iterations); err != nil {
		return nil, err
	}
	noise, err := st.Noise.Model()
	if err != nil {
		return nil, err
	}

	clean, err := ev.RunPerturbed(cfg, nil, noise, st.Seed, nil)
	if err != nil {
		return nil, err
	}

	mainK := st.Checkpoint.IntervalIterations
	ckpt, outcomes, err := evalInterval(ev, cfg, st, noise, mainK)
	if err != nil {
		return nil, err
	}
	expected := meanMakespan(outcomes)

	var rework, restart, nfail float64
	for _, o := range outcomes {
		rework += o.ReworkSeconds
		restart += o.RestartSeconds
		nfail += float64(o.Failures)
	}
	ns := float64(len(outcomes))

	rep := &Report{
		Ranks:               cfg.Decomp.Size(),
		Iterations:          cfg.Iterations,
		Seed:                st.Seed,
		CleanSeconds:        clean.Makespan,
		CheckpointedSeconds: ckpt,
		ExpectedSeconds:     expected,
		ExpectedSlowdownPct: (expected/clean.Makespan - 1) * 100,
		Waste: WasteBreakdown{
			CheckpointOverheadSeconds: ckpt - clean.Makespan,
			MeanReworkSeconds:         rework / ns,
			MeanRestartSeconds:        restart / ns,
			MeanFailures:              nfail / ns,
		},
		Scenarios: outcomes,
	}

	// Interval sweep: the study's own interval plus the candidate ladder,
	// deduplicated, ascending. The same scenario seeds are reused for
	// every candidate (paired comparison).
	candidates := st.Intervals
	if len(candidates) == 0 {
		candidates = defaultIntervals(cfg.Iterations)
	}
	seen := map[int]bool{}
	var ks []int
	for _, k := range append([]int{mainK}, candidates...) {
		if k >= 1 && !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	sort.Ints(ks)
	for _, k := range ks {
		var pt IntervalPoint
		if k == mainK {
			pt = IntervalPoint{IntervalIterations: k, CheckpointedSeconds: ckpt, ExpectedSeconds: expected}
		} else {
			ck, out, err := evalInterval(ev, cfg, st, noise, k)
			if err != nil {
				return nil, err
			}
			pt = IntervalPoint{IntervalIterations: k, CheckpointedSeconds: ck, ExpectedSeconds: meanMakespan(out)}
		}
		rep.Intervals = append(rep.Intervals, pt)
	}
	best := rep.Intervals[0]
	for _, pt := range rep.Intervals[1:] {
		if pt.ExpectedSeconds < best.ExpectedSeconds {
			best = pt
		}
	}
	rep.SimulatedOptimal = best

	iterSeconds := clean.Makespan / float64(cfg.Iterations)
	young, daly := youngDaly(st.Checkpoint.CheckpointSeconds, st.Failure.MTBFSeconds)
	rep.Analytic = AnalyticOptimum{
		YoungIntervalSeconds:    young,
		DalyIntervalSeconds:     daly,
		YoungIntervalIterations: toIterations(young, iterSeconds, cfg.Iterations),
		DalyIntervalIterations:  toIterations(daly, iterSeconds, cfg.Iterations),
	}

	if len(st.NoiseFracs) > 0 {
		kind := "uniform"
		if st.Noise != nil {
			kind = st.Noise.Kind
		}
		curve, tol, capped, err := NoiseCurve(ev, cfg, kind, st.Seed, st.NoiseFracs)
		if err != nil {
			return nil, err
		}
		rep.NoiseCurve = curve
		rep.NoiseTolerance = tol
		rep.NoiseToleranceCapped = capped
	}
	return rep, nil
}
