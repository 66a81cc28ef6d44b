package pace

import (
	"sync"
	"testing"

	"pacesweep/internal/grid"
)

// traceMatrix is the cross-backend equivalence matrix: serial, asymmetric,
// ragged-blocking (mk and mmi not dividing their extents), single-row and
// near-square shapes.
func traceMatrix() []Config {
	cfgs := []Config{
		paperConfig(1, 1),
		paperConfig(1, 4),
		paperConfig(3, 2),
		paperConfig(4, 4),
	}
	ragged := paperConfig(3, 3)
	ragged.MK = 7  // 50/7 -> ragged tail k block
	ragged.MMI = 4 // 6/4  -> ragged tail angle block
	cfgs = append(cfgs, ragged)
	short := paperConfig(2, 3)
	short.Iterations = 3
	short.Grid = grid.Global{NX: 120, NY: 90, NZ: 25}
	cfgs = append(cfgs, short)
	return cfgs
}

// TestTraceBackendBitIdentical is the trace-tier acceptance: for every
// configuration of the matrix, the trace tier (the default scheduler) must
// produce a Prediction bit-identical — every field — to the event backend.
func TestTraceBackendBitIdentical(t *testing.T) {
	ev := testEvaluator(t)
	for _, cfg := range traceMatrix() {
		evE := *ev
		evE.Scheduler = SchedulerEvent
		want, err := evE.Predict(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sched := range []string{"", SchedulerTrace} {
			evS := *ev
			evS.Scheduler = sched
			got, err := evS.Predict(cfg)
			if err != nil {
				t.Fatalf("sched=%q cfg=%+v: %v", sched, cfg.Decomp, err)
			}
			if *got != *want {
				t.Errorf("sched=%q cfg=%dx%d mk=%d mmi=%d: prediction %+v != event %+v",
					sched, cfg.Decomp.PX, cfg.Decomp.PY, cfg.MK, cfg.MMI, got, want)
			}
		}
	}
}

// TestTraceTierRepeatStable replays the same shape many times (warmed
// trace cache and replayer pool) and across kernel variants of one shape:
// results must never drift, and distinct kernels of the same shape must
// reuse the compiled script yet price differently.
func TestTraceTierRepeatStable(t *testing.T) {
	ev := testEvaluator(t)
	cfg := paperConfig(3, 4)
	first, err := ev.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p, err := ev.Predict(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if *p != *first {
			t.Fatalf("replay %d drifted: %+v != %+v", i, p, first)
		}
	}
	// Same shape (same nab/nkb/array/iterations), different grid -> same
	// compiled trace, different kernel tables, different prediction.
	big := cfg
	big.Grid = grid.Global{NX: 300, NY: 400, NZ: 50}
	misses := TraceCacheStats().Misses
	bp, err := ev.Predict(big)
	if err != nil {
		t.Fatal(err)
	}
	if TraceCacheStats().Misses != misses {
		t.Errorf("same-shape prediction recompiled the trace")
	}
	if bp.Total == first.Total {
		t.Errorf("different kernels priced identically: %v", bp.Total)
	}
	// And it must match the event backend bit for bit too.
	evE := *ev
	evE.Scheduler = SchedulerEvent
	want, err := evE.Predict(big)
	if err != nil {
		t.Fatal(err)
	}
	if *bp != *want {
		t.Errorf("re-priced replay %+v != event %+v", bp, want)
	}
}

// TestTraceTierConcurrent hammers one evaluator's trace tier from many
// goroutines over a mixed shape set; run under -race in CI. Every result
// must equal the single-threaded reference.
func TestTraceTierConcurrent(t *testing.T) {
	ev := testEvaluator(t)
	cfgs := traceMatrix()
	want := make([]Prediction, len(cfgs))
	for i, cfg := range cfgs {
		p, err := ev.Predict(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = *p
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 6; rep++ {
				i := (g + rep) % len(cfgs)
				p, err := ev.Predict(cfgs[i])
				if err != nil {
					errs <- err
					return
				}
				if *p != want[i] {
					t.Errorf("goroutine %d: cfg %d drifted", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
