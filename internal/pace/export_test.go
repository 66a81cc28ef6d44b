package pace

import "pacesweep/internal/mp"

// Test hooks for the external pace_test package, whose tests drive
// packages that import pace (and so cannot live inside it).

// TestModel and HierTestModel are the package tests' fitted models.
var (
	TestModel     = testModel
	HierTestModel = hierTestModel
)

// InstallRecordedTrace empties the trace cache and fills cfg's entry with
// the trace a recording run of every rank produces on the event backend,
// so later predictions and perturbed runs of cfg replay that trace in
// place of the class compile.
func InstallRecordedTrace(ev *Evaluator, cfg Config) error {
	k, err := ev.kernelFor(cfg)
	if err != nil {
		return err
	}
	d := cfg.Decomp
	t, err := recordTemplateTrace(ev.HW.Net(), d, k.nab, k.nkb, cfg.Iterations, 0, k.charges, k.sizes)
	if err != nil {
		return err
	}
	FlushTraceCache()
	key := traceKey{px: d.PX, py: d.PY, nab: k.nab, nkb: k.nkb, iterations: cfg.Iterations}
	_, err = traceCache.GetOrBuild(key, func() (*mp.Trace, error) { return t, nil })
	return err
}
