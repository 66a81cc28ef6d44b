// Package pace reproduces the paper's contribution: the PACE layered
// performance model of SWEEP3D for commodity processor clusters.
//
// The layering follows Figure 3 of the paper:
//
//	application (sweep3d)  — control flow: 12 iterations over the subtasks
//	subtasks               — source, sweep, flux_err, last: serial work
//	                         characterised by clc flows from the capp
//	                         static analyser combined with run-time
//	                         profiling (the achieved-flop-rate hardware
//	                         layer)
//	parallel templates     — pipeline (the wavefront), globalsum,
//	                         globalmax, async
//	hardware               — the fitted hwmodel.Model (achieved MFLOPS +
//	                         Eq. 3 communication curves)
//
// Two evaluation paths are provided: the template evaluation engine, which
// simulates the parallel template's per-processor virtual clocks on the mp
// runtime (PACE's evaluation engine), and an analytic closed form for
// cluster sizes where simulating every processor is unnecessary (the
// Section 6 speculative studies at 8000 processors). The two agree to
// within a few percent; a test enforces it.
//
// The package deliberately does not import internal/sweep or
// internal/platform: the model sees only fitted hardware parameters and its
// own structural description of the application.
package pace

import (
	"fmt"

	"pacesweep/internal/clc"
	"pacesweep/internal/grid"
	"pacesweep/internal/hwmodel"
)

// Config is the SWEEP3D model configuration: the paper's it/jt/kt grid,
// npe_i x npe_j processor array, blocking factors, angle count and
// iteration count (Figure 4's variable block).
type Config struct {
	Grid       grid.Global
	Decomp     grid.Decomp
	MK, MMI    int
	Angles     int // discrete angles per octant (mm), 6 for the benchmark
	Iterations int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Grid.Validate(); err != nil {
		return err
	}
	if err := c.Decomp.Validate(); err != nil {
		return err
	}
	if c.MK <= 0 || c.MMI <= 0 {
		return fmt.Errorf("pace: blocking factors must be positive (mk=%d mmi=%d)", c.MK, c.MMI)
	}
	if c.Angles <= 0 {
		return fmt.Errorf("pace: angle count must be positive")
	}
	if c.Iterations <= 0 {
		return fmt.Errorf("pace: iteration count must be positive")
	}
	return nil
}

// Local extents of the model's per-processor subgrid. The model uses the
// uniform decomposition of the paper; the experiments use exactly divisible
// configurations.
func (c Config) localNX() int { return (c.Grid.NX + c.Decomp.PX - 1) / c.Decomp.PX }
func (c Config) localNY() int { return (c.Grid.NY + c.Decomp.PY - 1) / c.Decomp.PY }

// AngleBlocks returns ceil(mm/mmi).
func (c Config) AngleBlocks() int { return (c.Angles + c.MMI - 1) / c.MMI }

// KBlocks returns ceil(kt/mk).
func (c Config) KBlocks() int { return (c.Grid.NZ + c.MK - 1) / c.MK }

// CellsPerProc returns the model's per-processor working set.
func (c Config) CellsPerProc() int { return c.localNX() * c.localNY() * c.Grid.NZ }

// Prediction is a model evaluation result with its per-phase breakdown.
type Prediction struct {
	Total float64 // predicted execution time, seconds

	SweepPerIter   float64 // pipeline template evaluation of one sweep call
	SourcePerIter  float64 // async template: serial source subtask
	FluxErrPerIter float64 // serial flux_err subtask
	ReducePerIter  float64 // globalmax template cost
	Last           float64 // closing globalsum template cost

	BlockSeconds float64 // cost of one full work block (Tx_work)
	FillStages   int     // pipeline fill length (closed form)
	Method       string  // "template" or "closed-form"

	// ExtrapolatedIterations counts the sweep iterations the trace tier
	// skipped analytically via steady-state cycle extrapolation (0 when
	// the prediction replayed or simulated every iteration).
	ExtrapolatedIterations int
}

// The template evaluation tiers of Evaluator.Scheduler.
const (
	// SchedulerTrace compiles each configuration shape's communication
	// script once and replays it per prediction (the default).
	SchedulerTrace = "trace"
	// SchedulerEvent evaluates every prediction live on the mp event
	// backend.
	SchedulerEvent = "event"
)

// Evaluator binds the application model to a fitted hardware model.
type Evaluator struct {
	HW *hwmodel.Model

	// Subtask characterisations (clc flows from capp). WorkFlow is
	// evaluated with parameters na, nk, ny, nx per block; SourceFlow and
	// FluxErrFlow with ncells.
	WorkFlow    *clc.Flow
	SourceFlow  *clc.Flow
	FluxErrFlow *clc.Flow

	// UseOpcodeCosts switches the hardware layer to the old per-opcode
	// summation (the pre-paper PACE method) for the ablation study.
	UseOpcodeCosts bool

	// Scheduler selects the mp backend for template evaluation; empty (or
	// SchedulerTrace) uses the trace tier: the configuration shape's
	// communication script is compiled once and replayed per prediction
	// under this evaluator's cost tables, bit-identical to the event
	// backend. SchedulerEvent runs every prediction live on a fresh event
	// world, the trace tier's reference in the cross-backend equivalence
	// tests.
	Scheduler string

	// Memo, when non-nil, caches whole Prediction results keyed by the
	// canonical configuration (plus the hardware-layer parameters). It is
	// nil by default so benchmarks and one-shot callers measure real
	// evaluation; the experiment drivers share one memo so overlapping
	// rows across figures are computed once. See PredictionMemo.
	Memo *PredictionMemo

	// shared holds the cost-kernel cache and idle replayers. It is
	// created by NewEvaluator and deliberately survives the shallow
	// evaluator copies the drivers make for ablation/boost variants; nil
	// on zero-value evaluators, which then take the uncached paths.
	shared *evalShared
}

// FlowProvider yields named subtask flows; *capp.Analysis satisfies it.
type FlowProvider interface {
	Flow(name string) (*clc.Flow, error)
}

// NewEvaluator wires the standard SWEEP3D subtask flows (sweep_block,
// source, flux_err) from a capp analysis to a fitted hardware model.
func NewEvaluator(hw *hwmodel.Model, flows FlowProvider) (*Evaluator, error) {
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	work, err := flows.Flow("sweep_block")
	if err != nil {
		return nil, err
	}
	src, err := flows.Flow("source")
	if err != nil {
		return nil, err
	}
	ferr, err := flows.Flow("flux_err")
	if err != nil {
		return nil, err
	}
	return &Evaluator{
		HW: hw, WorkFlow: work, SourceFlow: src, FluxErrFlow: ferr,
		shared: newEvalShared(),
	}, nil
}

// cost prices an operation vector under the configured hardware layer.
func (e *Evaluator) cost(v clc.Vector) float64 {
	if e.UseOpcodeCosts {
		return e.HW.OpcodeCostOf(v)
	}
	return e.HW.CostOf(v)
}

// blockCost evaluates Tx_work for one (na, nk) block on the local subgrid.
func (e *Evaluator) blockCost(cfg Config, na, nk int) (float64, error) {
	params := clc.Params{
		"na": float64(na), "nk": float64(nk),
		"ny": float64(cfg.localNY()), "nx": float64(cfg.localNX()),
	}
	v, err := e.WorkFlow.Eval(params)
	if err != nil {
		return 0, fmt.Errorf("pace: sweep_block flow: %w", err)
	}
	return e.cost(v), nil
}

// serialCosts evaluates the per-iteration serial subtasks.
func (e *Evaluator) serialCosts(cfg Config) (source, fluxErr float64, err error) {
	params := clc.Params{"ncells": float64(cfg.CellsPerProc())}
	sv, err := e.SourceFlow.Eval(params)
	if err != nil {
		return 0, 0, fmt.Errorf("pace: source flow: %w", err)
	}
	fv, err := e.FluxErrFlow.Eval(params)
	if err != nil {
		return 0, 0, fmt.Errorf("pace: flux_err flow: %w", err)
	}
	return e.cost(sv), e.cost(fv), nil
}

// messageBytes returns the model's full-block message sizes: the
// benchmark's jt*mk*mmi and it*mk*mmi double arrays.
func (c Config) messageBytes() (ew, ns int) {
	return 8 * c.localNY() * c.MK * c.MMI, 8 * c.localNX() * c.MK * c.MMI
}
