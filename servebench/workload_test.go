package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"pacesweep/internal/serve"
)

// planBytes serialises everything a plan sends or compiles.
func planBytes(t *testing.T, p *Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, v := range []any{p.Shapes, p.Warm, p.Keys, p.Timed, p.Sample} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func generate(t *testing.T, workload string, seed int64, n int) *Plan {
	t.Helper()
	p, err := Generate(workload, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGenerateIsSeeded(t *testing.T) {
	for _, w := range Workloads {
		n := requestCount(w, 25)
		a, b := planBytes(t, generate(t, w, 7, n)), planBytes(t, generate(t, w, 7, n))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different request lists", w)
		}
		if c := planBytes(t, generate(t, w, 8, n)); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", w)
		}
	}
}

func TestReplayNeverRepeatsAConfiguration(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := generate(t, PredictReplay, seed, requestCount(PredictReplay, 25))
		seen := map[serve.PredictRequest]bool{}
		for i, q := range p.Predicts {
			if seen[q] {
				t.Fatalf("seed %d: request %d repeats %+v", seed, i, q)
			}
			seen[q] = true
			var got serve.PredictRequest
			if err := json.Unmarshal(p.Timed[i], &got); err != nil || got != q {
				t.Fatalf("seed %d: body %d = %s, want %+v (%v)", seed, i, p.Timed[i], q, err)
			}
		}
	}
}

func TestReplayCompositionIsFixed(t *testing.T) {
	count := func(p *Plan) map[[3]int]int {
		out := map[[3]int]int{}
		for _, q := range p.Predicts {
			long := 0
			if q.Iterations > canonIters {
				long = 1
			}
			out[[3]int{q.Array.PX, q.Array.PY, long}]++
		}
		return out
	}
	n := requestCount(PredictReplay, 25)
	want := count(generate(t, PredictReplay, 1, n))
	for seed := int64(2); seed <= 5; seed++ {
		got := count(generate(t, PredictReplay, seed, n))
		for k, v := range want {
			if got[k] != v {
				t.Errorf("seed %d: %d requests of array %dx%d long=%d, seed 1 has %d", seed, got[k], k[0], k[1], k[2], v)
			}
		}
	}
}

func TestReplayScheduleRepeatsEveryPeriod(t *testing.T) {
	class := func(q serve.PredictRequest) [3]int {
		long := 0
		if q.Iterations > canonIters {
			long = 1
		}
		return [3]int{q.Array.PX, q.Array.PY, long}
	}
	for _, n := range []int{requestCount(PredictReplay, 25), 60, 37} {
		p := generate(t, PredictReplay, 3, n)
		if p.Period < 1 || p.Period > n {
			t.Fatalf("n=%d: period %d", n, p.Period)
		}
		for i := p.Period; i < n; i++ {
			if class(p.Predicts[i]) != class(p.Predicts[i-p.Period]) {
				t.Fatalf("n=%d: request %d is %v, request %d is %v, period %d",
					n, i, class(p.Predicts[i]), i-p.Period, class(p.Predicts[i-p.Period]), p.Period)
			}
		}
	}
	if p := generate(t, PredictReplay, 3, 100); p.Period != 20 {
		t.Errorf("100 requests repeat every %d, want 20", p.Period)
	}
}

func TestHotKeysAreInTheWarmSet(t *testing.T) {
	p := generate(t, PredictHot, 3, 5000)
	warm := map[string]bool{}
	for _, b := range p.Warm {
		if warm[string(b)] {
			t.Fatalf("warm set repeats %s", b)
		}
		warm[string(b)] = true
	}
	if len(warm) != hotWarmSize {
		t.Fatalf("warm set has %d keys, want %d", len(warm), hotWarmSize)
	}
	for i, b := range p.Timed {
		if !warm[string(b)] || !bytes.Equal(b, p.Warm[p.Keys[i]]) {
			t.Fatalf("timed request %d (%s) is not warm key %d", i, b, p.Keys[i])
		}
	}
	for _, q := range p.WarmRequests {
		if q.Array.PX*q.Array.PY > 256 {
			t.Fatalf("warm key %+v has more than 256 ranks", q)
		}
	}
}

func TestTimedRequestsNeedNoNewTraceShape(t *testing.T) {
	for _, w := range []string{PredictReplay, SweepPerturb, PredictHot} {
		for seed := int64(1); seed <= 5; seed++ {
			p := generate(t, w, seed, requestCount(w, 25))
			compiled := map[shapeKey]bool{}
			for _, cfg := range p.Shapes {
				compiled[shapeOf(cfg, w == SweepPerturb)] = true
			}
			if len(compiled) != len(p.Shapes) {
				t.Fatalf("%s: %d shapes listed but %d distinct", w, len(p.Shapes), len(compiled))
			}
			for i, q := range p.Predicts {
				if k := shapeOf(predictConfig(q), false); !compiled[k] {
					t.Fatalf("%s seed %d: request %d needs shape %+v", w, seed, i, k)
				}
			}
			for _, q := range p.WarmRequests {
				if k := shapeOf(predictConfig(q), false); !compiled[k] {
					t.Fatalf("%s seed %d: warm key needs shape %+v", w, seed, k)
				}
			}
			for i := range p.Sweeps {
				for _, cfg := range sweepPoints(&p.Sweeps[i]) {
					if k := shapeOf(cfg, true); !compiled[k] {
						t.Fatalf("%s seed %d: sweep %d needs shape %+v", w, seed, i, k)
					}
				}
			}
		}
	}
}

func TestReplaySampleFitsTheReferenceBudget(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := generate(t, PredictReplay, seed, requestCount(PredictReplay, 25))
		long := 0
		for _, i := range p.Sample {
			q := p.Predicts[i]
			if q.Array.PX*q.Array.PY*q.Iterations > refBudget {
				t.Fatalf("seed %d: sampled request %+v exceeds the reference budget", seed, q)
			}
			if q.Iterations > canonIters {
				long++
			}
		}
		if len(p.Sample) != 3 || long != 1 {
			t.Fatalf("seed %d: sample %v has %d long horizons, want 3 requests with 1 long", seed, p.Sample, long)
		}
	}
}
