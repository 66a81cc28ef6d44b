package pace

import (
	"sync"
	"testing"
)

// TestPredictionMemoHitsAndCopies covers the memo contract: a hit returns
// a copy deep enough that mutating it cannot poison the cache, and the
// hit/miss counters record each outcome.
func TestPredictionMemoHitsAndCopies(t *testing.T) {
	ev := testEvaluator(t)
	ev.Memo = NewPredictionMemo()
	cfg := paperConfig(2, 2)

	first, err := ev.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := ev.Memo.Stats(); h != 0 || m != 1 {
		t.Fatalf("after first call: hits=%d misses=%d", h, m)
	}
	second, err := ev.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *second != *first {
		t.Fatalf("memo hit differs: %+v vs %+v", second, first)
	}
	if h, m := ev.Memo.Stats(); h != 1 || m != 1 {
		t.Fatalf("after second call: hits=%d misses=%d", h, m)
	}

	// Mutate everything on the returned prediction; the cache must be
	// unaffected.
	second.Total = -1
	second.SweepPerIter = -1
	second.Method = "poisoned"
	third, err := ev.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *third != *first {
		t.Fatalf("cache poisoned: %+v vs %+v", third, first)
	}

	// Distinct configurations and distinct hardware layers are distinct
	// keys.
	if _, err := ev.Predict(paperConfig(2, 3)); err != nil {
		t.Fatal(err)
	}
	evOld := *ev
	evOld.UseOpcodeCosts = true
	oldPred, err := evOld.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if oldPred.Total == first.Total {
		t.Fatal("opcode-mode prediction served from achieved-rate cache entry")
	}
	if ev.Memo.Len() != 3 {
		t.Fatalf("memo entries = %d, want 3", ev.Memo.Len())
	}
}

// TestCachedPredictZeroAllocs is the serving acceptance check: answering
// a memoised prediction must not allocate on the evaluator hot path — the
// key build, the sharded-LRU lookup and the value copy are all
// stack-resident.
func TestCachedPredictZeroAllocs(t *testing.T) {
	ev := testEvaluator(t)
	ev.Memo = NewPredictionMemo()
	cfg := paperConfig(2, 2)
	want, err := ev.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		p, ok := ev.CachedPredict(cfg)
		if !ok || p.Total != want.Total {
			t.Fatal("cached predict missed or drifted")
		}
	})
	if avg != 0 {
		t.Errorf("CachedPredict hit allocates %v per op, want 0", avg)
	}

	// Misses and memo-less evaluators degrade to ok=false, never to
	// evaluation.
	if _, ok := ev.CachedPredict(paperConfig(5, 7)); ok {
		t.Error("unevaluated configuration reported as cached")
	}
	bare := testEvaluator(t)
	if _, ok := bare.CachedPredict(cfg); ok {
		t.Error("memo-less evaluator reported a cached prediction")
	}
}

// TestPredictionMemoEviction bounds the memo and drives more distinct
// configurations through it than it can hold: the LRU must stay within
// its cap, count evictions, and re-deliver identical values for evicted
// keys by re-evaluating.
func TestPredictionMemoEviction(t *testing.T) {
	ev := testEvaluator(t)
	ev.Memo = NewPredictionMemoSize(4, 1)
	cfgs := make([]Config, 8)
	want := make([]float64, 8)
	for i := range cfgs {
		cfgs[i] = paperConfig(1, i+1)
		p, err := ev.Predict(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p.Total
	}
	if n := ev.Memo.Len(); n > 4 {
		t.Errorf("memo holds %d entries, cap 4", n)
	}
	st := ev.Memo.CacheStats()
	if st.Evictions < 4 {
		t.Errorf("evictions = %d, want >= 4", st.Evictions)
	}
	// The earliest configuration was evicted; re-predicting must rebuild
	// the exact same value (deterministic evaluation is what makes
	// eviction safe).
	if _, ok := ev.CachedPredict(cfgs[0]); ok {
		t.Error("cfgs[0] still cached past the LRU bound")
	}
	p, err := ev.Predict(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Total != want[0] {
		t.Errorf("re-evaluated prediction %v != original %v", p.Total, want[0])
	}
}

// TestPooledWorldReuseMatchesFresh checks that trace-tier predictions
// through the pooled replayers — alternating configurations of the same
// array size — are bit-identical to a fresh evaluator's.
func TestPooledWorldReuseMatchesFresh(t *testing.T) {
	pooled := testEvaluator(t)
	cfgA := paperConfig(3, 4)
	cfgB := paperConfig(3, 4)
	cfgB.MK = 5 // same array size, different kernel
	var got [4]float64
	for i, cfg := range []Config{cfgA, cfgB, cfgA, cfgB} {
		p, err := pooled.Predict(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = p.Total
	}
	if got[0] != got[2] || got[1] != got[3] {
		t.Fatalf("pooled reuse drifted: %v", got)
	}
	fresh := testEvaluator(t)
	fa, err := fresh.Predict(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fresh.Predict(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if fa.Total != got[0] || fb.Total != got[1] {
		t.Fatalf("pooled %v/%v vs fresh %v/%v", got[0], got[1], fa.Total, fb.Total)
	}
}

// TestConcurrentSharedEvaluator hammers one evaluator (and its rate-boost
// copy, sharing the same pools) from many goroutines; run under -race in
// CI. Every result must equal the single-threaded reference.
func TestConcurrentSharedEvaluator(t *testing.T) {
	ev := testEvaluator(t)
	ev.Memo = NewPredictionMemo()
	boosted := *testModel()
	boosted.MFLOPS *= 1.5
	evBoost := *ev
	evBoost.HW = &boosted

	cfgs := []Config{paperConfig(2, 2), paperConfig(2, 3), paperConfig(4, 4)}
	ref := make(map[int]float64)
	refBoost := make(map[int]float64)
	for i, cfg := range cfgs {
		p, err := testEvaluator(t).Predict(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = p.Total
		evB := *testEvaluator(t)
		evB.HW = &boosted
		pb, err := evB.Predict(cfg)
		if err != nil {
			t.Fatal(err)
		}
		refBoost[i] = pb.Total
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				i := (worker + rep) % len(cfgs)
				p, err := ev.Predict(cfgs[i])
				if err != nil {
					errs <- err
					return
				}
				if p.Total != ref[i] {
					t.Errorf("worker %d: cfg %d total %v, want %v", worker, i, p.Total, ref[i])
				}
				pb, err := evBoost.Predict(cfgs[i])
				if err != nil {
					errs <- err
					return
				}
				if pb.Total != refBoost[i] {
					t.Errorf("worker %d: boosted cfg %d total %v, want %v", worker, i, pb.Total, refBoost[i])
				}
			}
		}(worker)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
