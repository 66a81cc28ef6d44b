package pace

import (
	"fmt"

	"pacesweep/internal/grid"
	"pacesweep/internal/mp"
	"pacesweep/internal/sn"
)

// templateBody builds the pipeline template's rank function over the cost
// kernel's parameter-table layout (see costKernel): every compute charge
// and wire size is referenced by table index through ChargeParam/
// SendParam, never by value. The same body therefore runs live on the event
// backend and compiles into a trace whose ops carry only the indices (a
// class compile, templateClass), which is what makes a compiled shape
// replayable under any platform's tables (internal/pace trace tier).
// Marks 0 and 1 bracket the first iteration's sweep on rank 0 (the
// SweepPerIter breakdown).
//
// ckptEvery > 0 inserts a checkpoint op (charge index base+2, the rewind
// target of fail-stop failures) after every ckptEvery-th iteration's
// collective — skipping the final iteration, where a checkpoint protects
// nothing. The shape of the recorded script depends on it, so it is part
// of traceKey.
func templateBody(d grid.Decomp, nab, nkb, iterations, ckptEvery int) func(c *mp.Comm) error {
	base := nab * nkb // charges[base]=source, charges[base+1]=flux_err; sizes base offset = north/south
	return func(c *mp.Comm) error {
		ix, iy := d.Coords(c.Rank())
		first := c.Rank() == 0
		for it := 0; it < iterations; it++ {
			c.ChargeParam(base) // source subtask
			if first && it == 0 {
				c.Mark(0)
			}
			for _, o := range sn.Octants() {
				upX, downX, upY, downY := d.UpstreamDownstream(ix, iy, o.SX, o.SY)
				for ab := 0; ab < nab; ab++ {
					off := ab * nkb
					for step := 0; step < nkb; step++ {
						kb := step
						if o.SZ < 0 {
							kb = nkb - 1 - step
						}
						if upX >= 0 {
							c.RecvN(upX, 1)
						}
						if upY >= 0 {
							c.RecvN(upY, 2)
						}
						c.ChargeParam(off + kb)
						if downX >= 0 {
							c.SendParam(downX, 1, off+kb)
						}
						if downY >= 0 {
							c.SendParam(downY, 2, base+off+kb)
						}
					}
				}
			}
			if first && it == 0 {
				c.Mark(1)
			}
			c.ChargeParam(base + 1) // flux_err subtask
			c.AllreduceMax(0)
			if ckptEvery > 0 && (it+1)%ckptEvery == 0 && it != iterations-1 {
				c.Checkpoint(base + 2)
			}
		}
		c.AllreduceSum(0) // the closing "last" subtask reduction
		return nil
	}
}

// templateClass is the boundary class rule templateBody's op stream
// follows: whether a rank is first, interior or last in x, and the same in
// y. A rank's upstream and downstream neighbours in every octant, and with
// them its receives and sends, depend only on which array edges it lies
// on, and its partners are the offsets ±1 and ±PX wherever it lies. So two
// ranks of one class record the same delta-encoded op stream. Rank 0, the
// only rank that writes marks, is alone in its corner class.
func templateClass(d grid.Decomp) func(rank int) int {
	edge := func(i, n int) int {
		switch {
		case i == 0:
			return 0
		case i == n-1:
			return 2
		}
		return 1
	}
	return func(rank int) int {
		ix, iy := d.Coords(rank)
		return 3*edge(iy, d.PY) + edge(ix, d.PX)
	}
}

// Predict evaluates the model with the template evaluation engine: every
// processor of the template is simulated with a virtual clock on the mp
// runtime, communication priced by the fitted Eq. 3 curves, computation by
// the subtask flows under the hardware layer. This is the reproduction of
// PACE's evaluation engine ("predictions of execution time within seconds",
// Section 4).
//
// The default backend (Scheduler "") is the trace tier: the configuration
// shape's communication script is compiled once (from its rank classes)
// and replayed under this evaluator's cost tables — bit-identical clocks
// to the event backend, no goroutines or channels on the replay.
// SchedulerEvent evaluates live on a fresh event world instead.
func (e *Evaluator) Predict(cfg Config) (*Prediction, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var key predKey
	if e.Memo != nil {
		key = e.memoKey(cfg)
		if p, ok := e.Memo.lookup(key); ok {
			return &p, nil // p is a value copy; mutation cannot reach the cache
		}
	}
	// The cost kernel prices every (angle block, k block) shape once per
	// configuration shape, including ragged tails, and is cached across
	// Predict calls.
	k, err := e.kernelFor(cfg)
	if err != nil {
		return nil, err
	}
	d := cfg.Decomp
	var total, sweepOnly float64
	var extrapolated int
	switch sched := e.Scheduler; sched {
	case "", SchedulerTrace:
		total, sweepOnly, extrapolated, err = e.evalTrace(cfg, k)
	case SchedulerEvent:
		total, sweepOnly, err = e.evalWorld(cfg, k)
	default:
		return nil, fmt.Errorf("pace: unknown scheduler %q", sched)
	}
	if err != nil {
		return nil, err
	}

	reduce := e.HW.Net().ReduceCost(d.Size(), 8+16, nil)
	pred := &Prediction{
		Total:                  total,
		SweepPerIter:           sweepOnly,
		SourcePerIter:          k.src,
		FluxErrPerIter:         k.ferr,
		ReducePerIter:          reduce,
		Last:                   reduce,
		BlockSeconds:           k.fullBlock,
		FillStages:             fillStages(d),
		Method:                 "template",
		ExtrapolatedIterations: extrapolated,
	}
	if e.Memo != nil {
		e.Memo.store(key, *pred)
	}
	return pred, nil
}

// evalWorld runs the template body live on a fresh event world,
// returning the makespan and the first iteration's rank-0 sweep span.
func (e *Evaluator) evalWorld(cfg Config, k *costKernel) (total, sweepOnly float64, err error) {
	d := cfg.Decomp
	w, err := mp.NewWorld(d.Size(), mp.Options{Net: e.HW.Net()})
	if err != nil {
		return 0, 0, err
	}
	w.SetParams(k.charges, k.sizes)
	if err := w.Run(templateBody(d, k.nab, k.nkb, cfg.Iterations, 0)); err != nil {
		return 0, 0, err
	}
	marks := w.Marks()
	return w.Makespan(), marks[1] - marks[0], nil
}

// blockLen returns the length of block i under blocking factor f over total
// n (the last block may be ragged).
func blockLen(i, f, n int) int {
	lo := i * f
	hi := lo + f
	if hi > n {
		hi = n
	}
	return hi - lo
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// fillStages is the pipeline fill length of the 4-corner-group octant
// schedule: the x direction reverses three times across the groups and the
// y direction twice, giving 3(PX-1) + 2(PY-1) stages of fill per iteration
// (see the closed-form derivation in closedform.go).
func fillStages(d grid.Decomp) int {
	return 3*(d.PX-1) + 2*(d.PY-1)
}

// TemplateMaxRanks is the processor-array size up to which PredictAuto
// uses full template evaluation. The event-driven mp scheduler simulates
// every processor of the paper's largest speculative studies (Figures 8-9,
// 8000 processors) in seconds — and the trace tier replays them faster
// still — so the closed form is only a fallback for configurations beyond
// anything the paper evaluates.
const TemplateMaxRanks = 8000

// UsesTemplate reports whether PredictAuto evaluates cfg with the
// template engine (as opposed to the analytic closed form). Exposed so
// serving layers can route memo fast paths by the same rule instead of
// re-deriving it.
func UsesTemplate(cfg Config) bool { return cfg.Decomp.Size() <= TemplateMaxRanks }

// PredictAuto picks the evaluation path by array size: template evaluation
// through the paper's speculative 8000-processor studies, the analytic
// closed form beyond.
func (e *Evaluator) PredictAuto(cfg Config) (*Prediction, error) {
	if UsesTemplate(cfg) {
		return e.Predict(cfg)
	}
	return e.PredictClosedForm(cfg)
}

// String renders a prediction breakdown.
func (p *Prediction) String() string {
	return fmt.Sprintf(
		"total %.4gs [%s: sweep/iter %.4gs, source/iter %.4gs, flux_err/iter %.4gs, reduce/iter %.4gs, block %.4gs, fill %d]",
		p.Total, p.Method, p.SweepPerIter, p.SourcePerIter, p.FluxErrPerIter,
		p.ReducePerIter, p.BlockSeconds, p.FillStages)
}
