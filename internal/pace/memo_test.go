package pace

import (
	"sync"
	"testing"

	"pacesweep/internal/mp"
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

// TestWorldPoolEviction drives a long-tailed sweep over many array sizes
// through a capped pool: idle worlds beyond the cap must be evicted
// (least recently released first), the counters must record it, and an
// evicted size must still predict identically when it comes back.
func TestWorldPoolEviction(t *testing.T) {
	ev := testEvaluator(t)
	// Pin the event backend: it acquires one world per Predict, which is
	// the traffic pattern this test pins down. (The trace default touches
	// the world pool only on shape compilation, and the global trace cache
	// would make that dependent on test order.)
	ev.Scheduler = mp.SchedulerEvent
	ev.SetWorldPoolCap(2)
	sizes := [][2]int{{1, 1}, {1, 2}, {1, 3}, {2, 2}, {1, 5}}
	want := make([]float64, len(sizes))
	for i, d := range sizes {
		p, err := ev.Predict(paperConfig(d[0], d[1]))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p.Total
	}
	ps := ev.PoolStats()
	if ps.IdleWorlds != 2 {
		t.Errorf("idle worlds = %d, want 2 (cap)", ps.IdleWorlds)
	}
	if ps.WorldEvictions != uint64(len(sizes)-2) {
		t.Errorf("world evictions = %d, want %d", ps.WorldEvictions, len(sizes)-2)
	}
	// Eviction must prune emptied pool keys, not just their worlds: a
	// long-tailed sweep may see thousands of distinct sizes.
	if got := len(ev.shared.worlds); got != 2 {
		t.Errorf("pool map holds %d keys after eviction, want 2", got)
	}
	// The first size was evicted long ago; predicting it again builds a
	// fresh world and must reproduce the value bit for bit.
	p, err := ev.Predict(paperConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Total != want[0] {
		t.Errorf("post-eviction prediction %v != original %v", p.Total, want[0])
	}

	// Raising the cap stops eviction; dropping it evicts immediately.
	ev.SetWorldPoolCap(0)
	for _, d := range sizes {
		if _, err := ev.Predict(paperConfig(d[0], d[1])); err != nil {
			t.Fatal(err)
		}
	}
	if got := ev.PoolStats().IdleWorlds; got != len(sizes) {
		t.Errorf("uncapped idle worlds = %d, want %d", got, len(sizes))
	}
	before := ev.PoolStats().WorldEvictions
	ev.SetWorldPoolCap(1)
	after := ev.PoolStats()
	if after.IdleWorlds != 1 {
		t.Errorf("idle worlds after cap shrink = %d, want 1", after.IdleWorlds)
	}
	if after.WorldEvictions != before+uint64(len(sizes)-1) {
		t.Errorf("shrink evicted %d, want %d", after.WorldEvictions-before, len(sizes)-1)
	}
}

// TestPooledWorldReuseMatchesFresh checks that predictions through the
// world pool — including alternating configurations of the same array
// size and both backends — are bit-identical to a fresh evaluator's.
func TestPooledWorldReuseMatchesFresh(t *testing.T) {
	for _, sched := range []string{"", mp.SchedulerEvent} {
		pooled := testEvaluator(t)
		pooled.Scheduler = sched
		cfgA := paperConfig(3, 4)
		cfgB := paperConfig(3, 4)
		cfgB.MK = 5 // same world size, different kernel
		var got [4]float64
		for i, cfg := range []Config{cfgA, cfgB, cfgA, cfgB} {
			p, err := pooled.Predict(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = p.Total
		}
		if got[0] != got[2] || got[1] != got[3] {
			t.Fatalf("sched=%q: pooled reuse drifted: %v", sched, got)
		}
		fresh := testEvaluator(t)
		fresh.Scheduler = sched
		fa, err := fresh.Predict(cfgA)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := fresh.Predict(cfgB)
		if err != nil {
			t.Fatal(err)
		}
		if fa.Total != got[0] || fb.Total != got[1] {
			t.Fatalf("sched=%q: pooled %v/%v vs fresh %v/%v", sched, got[0], got[1], fa.Total, fb.Total)
		}
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
