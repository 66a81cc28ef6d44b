// Package perturb turns fault-injection scenarios into idle-wave reports.
//
// A Scenario names per-rank one-off delays by iteration (not op index — the
// package maps iterations onto the compiled communication script via the
// trace's collective structure) plus an optional stochastic compute-noise
// model. Run replays the configuration twice on the trace tier — once
// perturbed, once as a matched baseline with the identical seed and noise,
// both as lanes of one pace.MatchedSet pass that draws the noise once —
// and differences the per-generation collective-entry timelines. Because
// noise draws are consumed in program order on every backend and injected
// delays add constant seconds without consuming draws, the two runs see
// bit-identical random sequences: the per-rank clock difference at each
// generation is exactly the propagated damage, and undamaged ranks differ
// by exactly zero.
//
// The report follows the idle-wave analyses of Afzal, Hager and Wellein:
// the injected delay travels outward from its origin rank through the
// communication topology, is partially absorbed by waiting time (slack) at
// synchronisation points, and decays with distance. The analytic
// prediction compares the injected duration against the baseline slack of
// the delayed rank at its next collective.
package perturb

import (
	"fmt"
	"math"
	"math/rand"

	"pacesweep/internal/mp"
	"pacesweep/internal/pace"
)

// DelaySpec is one injected delay, addressed by iteration: the extra
// seconds are inserted immediately before the rank begins the named
// sweep iteration (iteration 0 is the very first op of the rank).
type DelaySpec struct {
	Rank      int     `json:"rank"`
	Iteration int     `json:"iteration"`
	Seconds   float64 `json:"seconds"`
}

// NoiseSpec selects a stochastic compute-noise generator applied to every
// compute charge on every rank, as a fraction of the charge.
type NoiseSpec struct {
	// Kind is "uniform", "gaussian" or "exponential".
	Kind string `json:"kind"`
	// Frac scales the perturbation: uniform draws stretch a charge by
	// [0, Frac), gaussian by Frac*|N(0,1)|, exponential by Frac*Exp(1).
	Frac float64 `json:"frac"`
}

// Scenario is a complete fault-injection experiment specification.
type Scenario struct {
	Seed   int64       `json:"seed"`
	Delays []DelaySpec `json:"delays"`
	Noise  *NoiseSpec  `json:"noise,omitempty"`
}

// UniformNoise stretches each charge by a uniform fraction of itself.
type UniformNoise struct{ Frac float64 }

// Perturb implements mp.ComputeNoise.
func (u UniformNoise) Perturb(s float64, rng *rand.Rand) float64 {
	return s * (1 + u.Frac*rng.Float64())
}

// GaussianNoise stretches each charge by Frac times a half-normal draw.
type GaussianNoise struct{ Frac float64 }

// Perturb implements mp.ComputeNoise.
func (g GaussianNoise) Perturb(s float64, rng *rand.Rand) float64 {
	return s * (1 + g.Frac*math.Abs(rng.NormFloat64()))
}

// ExponentialNoise stretches each charge by Frac times an Exp(1) draw,
// modelling rare long OS interruptions.
type ExponentialNoise struct{ Frac float64 }

// Perturb implements mp.ComputeNoise.
func (e ExponentialNoise) Perturb(s float64, rng *rand.Rand) float64 {
	return s * (1 + e.Frac*rng.ExpFloat64())
}

// Model resolves the spec to its noise generator (nil receiver: no
// noise). Exposed so other analysis layers (internal/resilience's
// noise-sensitivity curves) reuse exactly these generators.
func (n *NoiseSpec) Model() (mp.ComputeNoise, error) { return noiseModel(n) }

// noiseModel resolves a NoiseSpec to its generator.
func noiseModel(n *NoiseSpec) (mp.ComputeNoise, error) {
	if n == nil {
		return nil, nil
	}
	if n.Frac < 0 || math.IsNaN(n.Frac) || math.IsInf(n.Frac, 0) {
		return nil, fmt.Errorf("perturb: noise frac %v must be finite and non-negative", n.Frac)
	}
	switch n.Kind {
	case "uniform":
		return UniformNoise{Frac: n.Frac}, nil
	case "gaussian":
		return GaussianNoise{Frac: n.Frac}, nil
	case "exponential":
		return ExponentialNoise{Frac: n.Frac}, nil
	default:
		return nil, fmt.Errorf("perturb: unknown noise kind %q (want uniform, gaussian or exponential)", n.Kind)
	}
}

// Validate checks the scenario against a configuration's rank and
// iteration ranges. At least one delay is required — a pure-noise run has
// no wavefront to analyse.
func (sc Scenario) Validate(ranks, iterations int) error {
	if len(sc.Delays) == 0 {
		return fmt.Errorf("perturb: scenario needs at least one delay")
	}
	for i, d := range sc.Delays {
		if d.Rank < 0 || d.Rank >= ranks {
			return fmt.Errorf("perturb: delay %d rank %d out of range [0,%d)", i, d.Rank, ranks)
		}
		if d.Iteration < 0 || d.Iteration >= iterations {
			return fmt.Errorf("perturb: delay %d iteration %d out of range [0,%d)", i, d.Iteration, iterations)
		}
		if !(d.Seconds > 0) || math.IsInf(d.Seconds, 0) {
			return fmt.Errorf("perturb: delay %d seconds %v must be positive and finite", i, d.Seconds)
		}
	}
	if _, err := noiseModel(sc.Noise); err != nil {
		return err
	}
	return nil
}

// GenerationRow is the damage summary of one collective generation: the
// wavefront snapshot at the g-th synchronisation point of the run.
type GenerationRow struct {
	Generation   int     `json:"generation"`
	MaxDamage    float64 `json:"max_damage_seconds"`
	MeanDamage   float64 `json:"mean_damage_seconds"`
	DamagedRanks int     `json:"damaged_ranks"`
	// FrontRadius is the rank distance from the injection origin to the
	// farthest damaged rank at this generation.
	FrontRadius int `json:"front_radius"`
	// ClassDamage, on hierarchical platforms, is the maximum damage among
	// ranks in each interconnect cost class relative to the origin rank
	// (index 0 = closest class). Nil on flat platforms.
	ClassDamage []float64 `json:"class_damage_seconds,omitempty"`
}

// RankDamage is the end-of-run damage of one rank.
type RankDamage struct {
	Rank   int     `json:"rank"`
	Damage float64 `json:"damage_seconds"`
	// Idle is the extra cumulative waiting time the perturbed run spent on
	// this rank versus the baseline; negative values mean the delay was
	// absorbed by slack the baseline spent idling.
	Idle float64 `json:"idle_delta_seconds"`
}

// Report is the result of one fault-injection experiment.
type Report struct {
	Ranks      int   `json:"ranks"`
	Iterations int   `json:"iterations"`
	Seed       int64 `json:"seed"`

	InjectedSeconds  float64 `json:"injected_seconds"`
	BaselineSeconds  float64 `json:"baseline_seconds"`
	PerturbedSeconds float64 `json:"perturbed_seconds"`
	// DamageSeconds is the makespan growth caused by the injection;
	// AbsorbedSeconds is the part of the injected budget hidden by slack.
	DamageSeconds   float64 `json:"damage_seconds"`
	AbsorbedSeconds float64 `json:"absorbed_seconds"`
	// AnalyticDamageSeconds is the first-order idle-wave prediction: each
	// delay damages the run by what remains after the delayed rank's own
	// baseline slack at its next collective absorbs its share.
	AnalyticDamageSeconds float64 `json:"analytic_damage_seconds"`

	// PropagationRanksPerGen is the observed idle-wave speed: front radius
	// growth per collective generation after the first damaged one.
	PropagationRanksPerGen float64 `json:"propagation_ranks_per_gen"`
	// DecayGeneration is the first generation at which the peak damage
	// fell below 1/e of the injected budget; -1 if it never decayed.
	DecayGeneration int `json:"decay_generation"`

	Generations []GenerationRow `json:"generations"`
	PerRank     []RankDamage    `json:"per_rank,omitempty"`
}

// delaysFor maps iteration-addressed delays onto exact op indices of the
// compiled script. Iteration i starts at op 0 for i == 0 and otherwise at
// the op immediately after the collective closing iteration i-1 (the
// template ends every iteration with exactly one collective).
func delaysFor(t *mp.Trace, sc Scenario) ([]mp.Delay, float64, error) {
	out := make([]mp.Delay, 0, len(sc.Delays))
	var total float64
	for i, d := range sc.Delays {
		op := 0
		if d.Iteration > 0 {
			prev := t.OpIndexOfReduce(d.Rank, d.Iteration-1)
			if prev < 0 {
				return nil, 0, fmt.Errorf("perturb: delay %d iteration %d exceeds rank %d's recorded collectives",
					i, d.Iteration, d.Rank)
			}
			op = prev + 1
		}
		out = append(out, mp.Delay{Rank: d.Rank, Op: op, Seconds: d.Seconds})
		total += d.Seconds
	}
	return out, total, nil
}

// Run executes the scenario against the configuration on ev's platform and
// analyses the resulting idle wave. perRank additionally attaches the
// final per-rank damage vector (size = rank count) to the report.
func Run(ev *pace.Evaluator, cfg pace.Config, sc Scenario, perRank bool) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ranks := cfg.Decomp.Size()
	if err := sc.Validate(ranks, cfg.Iterations); err != nil {
		return nil, err
	}
	noise, err := noiseModel(sc.Noise)
	if err != nil {
		return nil, err
	}
	set, err := ev.OpenMatchedSet(cfg, pace.SetOptions{Noise: noise, Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	defer set.Close()
	delays, injected, err := delaysFor(set.Trace(), sc)
	if err != nil {
		return nil, err
	}

	baseProbe, pertProbe := &mp.RunProbe{}, &mp.RunProbe{}
	runs, err := set.RunAll([]pace.SetRun{{Probe: baseProbe}, {Delays: delays, Probe: pertProbe}})
	if err != nil {
		return nil, err
	}
	return analyze(ev, cfg, sc, injected, delays, runs[0], runs[1], baseProbe, pertProbe, perRank), nil
}

// analyze differences the baseline and perturbed runs into a Report.
func analyze(ev *pace.Evaluator, cfg pace.Config, sc Scenario, injected float64, delays []mp.Delay,
	base, pert pace.PerturbedRun, baseProbe, pertProbe *mp.RunProbe, perRank bool) *Report {
	ranks := baseProbe.Ranks()
	gens := baseProbe.Generations()
	origin := sc.Delays[0].Rank

	rep := &Report{
		Ranks:            ranks,
		Iterations:       cfg.Iterations,
		Seed:             sc.Seed,
		InjectedSeconds:  injected,
		BaselineSeconds:  base.Makespan,
		PerturbedSeconds: pert.Makespan,
		DamageSeconds:    pert.Makespan - base.Makespan,
		DecayGeneration:  -1,
	}
	rep.AbsorbedSeconds = injected - rep.DamageSeconds

	// Hierarchical platforms get per-interconnect-class damage tracking.
	var cnet mp.ClassNetworkModel
	nclasses := 1
	if cn, ok := mp.NetworkModel(ev.HW.Net()).(mp.ClassNetworkModel); ok && cn.NetClasses() > 1 {
		cnet, nclasses = cn, cn.NetClasses()
	}

	rep.Generations = make([]GenerationRow, gens)
	firstDamaged := -1
	for g := 0; g < gens; g++ {
		bc, pc := baseProbe.ClockRow(g), pertProbe.ClockRow(g)
		row := GenerationRow{Generation: g}
		if cnet != nil {
			row.ClassDamage = make([]float64, nclasses)
		}
		var sum float64
		for r := 0; r < ranks; r++ {
			// Exact comparison is sound: undamaged ranks execute
			// bit-identical arithmetic in both runs.
			d := pc[r] - bc[r]
			if d <= 0 {
				continue
			}
			sum += d
			row.DamagedRanks++
			if d > row.MaxDamage {
				row.MaxDamage = d
			}
			if rad := absI(r - origin); rad > row.FrontRadius {
				row.FrontRadius = rad
			}
			if cnet != nil {
				cls := 0
				if r != origin {
					cls = cnet.ClassOf(origin, r)
				}
				if cls < nclasses && d > row.ClassDamage[cls] {
					row.ClassDamage[cls] = d
				}
			}
		}
		if ranks > 0 {
			row.MeanDamage = sum / float64(ranks)
		}
		if row.DamagedRanks > 0 && firstDamaged < 0 {
			firstDamaged = g
		}
		if firstDamaged >= 0 && g >= firstDamaged && rep.DecayGeneration < 0 &&
			row.MaxDamage < injected/math.E {
			rep.DecayGeneration = g
		}
		rep.Generations[g] = row
	}

	// Observed propagation speed: front growth per generation from the
	// first damaged collective to the last recorded one.
	if firstDamaged >= 0 && gens-1 > firstDamaged {
		rep.PropagationRanksPerGen = float64(rep.Generations[gens-1].FrontRadius) /
			float64(gens-1-firstDamaged)
	}

	// Analytic idle-wave prediction: at the delayed rank's next collective
	// the baseline slack (gap to the latest arriver) absorbs the delay;
	// only the remainder escapes the synchronisation point.
	// Iteration i's delay lands at the iteration's first op, so the next
	// collective the delayed rank reaches is generation i.
	for i, d := range delays {
		g := sc.Delays[i].Iteration
		if g >= gens {
			continue
		}
		bc := baseProbe.ClockRow(g)
		maxEntry := bc[0]
		for _, c := range bc[1:] {
			if c > maxEntry {
				maxEntry = c
			}
		}
		slack := maxEntry - bc[d.Rank]
		if esc := d.Seconds - slack; esc > 0 {
			rep.AnalyticDamageSeconds += esc
		}
	}

	if perRank {
		rep.PerRank = make([]RankDamage, ranks)
		lastB, lastP := baseProbe.IdleRow(gens-1), pertProbe.IdleRow(gens-1)
		for r := 0; r < ranks; r++ {
			rep.PerRank[r] = RankDamage{
				Rank:   r,
				Damage: pert.Clocks[r] - base.Clocks[r],
				Idle:   lastP[r] - lastB[r],
			}
		}
	}
	return rep
}

func absI(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
