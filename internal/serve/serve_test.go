package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pacesweep/internal/capp"
	"pacesweep/internal/hwmodel"
	"pacesweep/internal/pace"
	"pacesweep/internal/platform"
)

// testBuilder injects cheap deterministic evaluators (no simulated
// benchmarking pipeline): a fixed fitted model whose achieved rate varies
// by platform name, wired to the real capp-derived SWEEP3D flows.
func testBuilder(tb testing.TB) func(name string) (*pace.Evaluator, error) {
	tb.Helper()
	analysis, err := capp.SweepKernelAnalysis()
	if err != nil {
		tb.Fatal(err)
	}
	return func(name string) (*pace.Evaluator, error) {
		m := &hwmodel.Model{
			Name:     name + "-test",
			MFLOPS:   100 + float64(10*len(name)),
			Send:     platform.Piecewise{A: 512, B: 6, C: 0.008, D: 8, E: 0.0042},
			Recv:     platform.Piecewise{A: 512, B: 7, C: 0.008, D: 9, E: 0.0042},
			PingPong: platform.Piecewise{A: 512, B: 26, C: 0.02, D: 32, E: 0.0088},
		}
		return pace.NewEvaluator(m, analysis)
	}
}

// newTestServer builds a Server on the injected evaluators; mutate extras
// to tighten caches per test.
func newTestServer(tb testing.TB, mutate func(*Config)) *Server {
	tb.Helper()
	cfg := Config{
		Platforms:      []string{"alpha", "beta"},
		BuildEvaluator: testBuilder(tb),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func postJSON(tb testing.TB, h http.Handler, path, body string) *httptest.ResponseRecorder {
	tb.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// expectedPredictBody computes the reference response bytes for a request
// by running the same canonical pipeline on a fresh sequential evaluator.
func expectedPredictBody(tb testing.TB, build func(string) (*pace.Evaluator, error), q PredictRequest, defPlatform string) []byte {
	tb.Helper()
	q.normalize(defPlatform)
	ev, err := build(q.Platform)
	if err != nil {
		tb.Fatal(err)
	}
	var pred *pace.Prediction
	switch q.Method {
	case MethodTemplate:
		pred, err = ev.Predict(q.toConfig())
	case MethodClosedForm:
		pred, err = ev.PredictClosedForm(q.toConfig())
	default:
		pred, err = ev.PredictAuto(q.toConfig())
	}
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(buildPredictResponse(&q, pred))
	if err != nil {
		tb.Fatal(err)
	}
	return append(body, '\n')
}

func TestPredictEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	body := `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2}}`

	rec := postJSON(t, s, "/v1/predict", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Paceserve-Cache"); got != "miss" {
		t.Errorf("first call cache disposition = %q, want miss", got)
	}
	var resp PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.PredictedSeconds <= 0 || resp.Method != "template" {
		t.Errorf("response = %+v", resp)
	}
	if resp.MK != 10 || resp.MMI != 3 || resp.Angles != 6 || resp.Iterations != 12 {
		t.Errorf("defaults not echoed canonically: %+v", resp)
	}
	if resp.Breakdown.FillStages != 3*(2-1)+2*(2-1) {
		t.Errorf("fill stages = %d", resp.Breakdown.FillStages)
	}

	// Repeat: served from the response cache, byte-identical.
	rec2 := postJSON(t, s, "/v1/predict", body)
	if got := rec2.Header().Get("X-Paceserve-Cache"); got != "hit" {
		t.Errorf("second call cache disposition = %q, want hit", got)
	}
	if !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
		t.Error("cached response differs from fresh response")
	}

	// And matches the sequential pace.Predict reference bytes exactly.
	want := expectedPredictBody(t, testBuilder(t),
		PredictRequest{Platform: "alpha", Grid: GridSpec{100, 100, 50}, Array: ArraySpec{2, 2}}, "alpha")
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("served bytes differ from sequential reference:\n got %s\nwant %s", rec.Body.Bytes(), want)
	}

	// Spelled-out defaults share the cache entry with omitted ones.
	rec3 := postJSON(t, s, "/v1/predict",
		`{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},"mk":10,"mmi":3,"angles":6,"iterations":12,"method":"auto"}`)
	if got := rec3.Header().Get("X-Paceserve-Cache"); got != "hit" {
		t.Errorf("canonicalised request missed the cache: %q", got)
	}
}

func TestPredictValidation(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"get rejected", http.MethodGet, "/v1/predict", "", http.StatusMethodNotAllowed},
		{"bad json", http.MethodPost, "/v1/predict", "{", http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/predict", `{"gridd":{}}`, http.StatusBadRequest},
		{"trailing garbage", http.MethodPost, "/v1/predict",
			`{"grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2}} {}`, http.StatusBadRequest},
		{"unknown platform", http.MethodPost, "/v1/predict",
			`{"platform":"cray","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2}}`, http.StatusBadRequest},
		{"bad method value", http.MethodPost, "/v1/predict",
			`{"grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},"method":"psychic"}`, http.StatusBadRequest},
		{"invalid config", http.MethodPost, "/v1/predict",
			`{"grid":{"nx":0,"ny":100,"nz":50},"array":{"px":2,"py":2}}`, http.StatusBadRequest},
		{"template beyond rank ceiling", http.MethodPost, "/v1/predict",
			`{"grid":{"nx":1000,"ny":1000,"nz":50},"array":{"px":100,"py":100},"method":"template"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.wantStatus, rec.Body.String())
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error envelope missing: %s", tc.name, rec.Body.String())
		}
	}

	// Auto degrades to the closed form instead of rejecting big arrays.
	rec := postJSON(t, s, "/v1/predict",
		`{"grid":{"nx":1000,"ny":1000,"nz":50},"array":{"px":100,"py":100}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("auto at 10000 ranks: %d %s", rec.Code, rec.Body.String())
	}
	var resp PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Method != "closed-form" {
		t.Errorf("method = %q, want closed-form", resp.Method)
	}
}

// TestConcurrentServingByteIdentical is the ISSUE's concurrency
// acceptance: many goroutines hammering /v1/predict and /v1/sweep must
// each receive responses byte-identical to the sequential pace.Predict
// reference. Run under -race in CI.
func TestConcurrentServingByteIdentical(t *testing.T) {
	s := newTestServer(t, nil)
	reqs := []PredictRequest{
		{Platform: "alpha", Grid: GridSpec{100, 100, 50}, Array: ArraySpec{2, 2}},
		{Platform: "alpha", Grid: GridSpec{100, 150, 50}, Array: ArraySpec{2, 3}},
		{Platform: "beta", Grid: GridSpec{100, 100, 50}, Array: ArraySpec{2, 2}},
		{Platform: "beta", Grid: GridSpec{150, 150, 50}, Array: ArraySpec{3, 3}, MK: 5},
	}
	build := testBuilder(t)
	bodies := make([]string, len(reqs))
	want := make([][]byte, len(reqs))
	for i, q := range reqs {
		raw, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = string(raw)
		want[i] = expectedPredictBody(t, build, q, "alpha")
	}
	sweepBody := `{"platform":"alpha","arrays":[{"px":2,"py":2},{"px":2,"py":3}],"grid":{"nx":100,"ny":100,"nz":50},"mk":[10,5]}`
	var wantSweep SweepResponse
	{
		rec := postJSON(t, s, "/v1/sweep", sweepBody)
		if rec.Code != http.StatusOK {
			t.Fatalf("sweep: %d %s", rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &wantSweep); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 12; rep++ {
				i := (g + rep) % len(reqs)
				rec := postJSON(t, s, "/v1/predict", bodies[i])
				if rec.Code != http.StatusOK {
					t.Errorf("worker %d: status %d: %s", g, rec.Code, rec.Body.String())
					return
				}
				if !bytes.Equal(rec.Body.Bytes(), want[i]) {
					t.Errorf("worker %d: request %d response drifted from sequential reference", g, i)
					return
				}
				if rep%6 == 5 { // interleave sweeps with predicts
					srec := postJSON(t, s, "/v1/sweep", sweepBody)
					if srec.Code != http.StatusOK {
						t.Errorf("worker %d: sweep status %d", g, srec.Code)
						return
					}
					var got SweepResponse
					if err := json.Unmarshal(srec.Body.Bytes(), &got); err != nil {
						t.Error(err)
						return
					}
					for j := range got.Points {
						if got.Points[j] != wantSweep.Points[j] {
							t.Errorf("worker %d: sweep point %d drifted: %+v vs %+v",
								g, j, got.Points[j], wantSweep.Points[j])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEvaluatorBuildRetry pins the failure-handling convention: a
// transient BuildEvaluator error is returned to that request but never
// cached — the next request retries and succeeds.
func TestEvaluatorBuildRetry(t *testing.T) {
	good := testBuilder(t)
	failures := 1
	s := newTestServer(t, func(c *Config) {
		c.BuildEvaluator = func(name string) (*pace.Evaluator, error) {
			if failures > 0 {
				failures--
				return nil, fmt.Errorf("transient fitting failure")
			}
			return good(name)
		}
	})
	body := `{"grid":{"nx":50,"ny":50,"nz":50},"array":{"px":1,"py":1}}`
	if rec := postJSON(t, s, "/v1/predict", body); rec.Code != http.StatusInternalServerError {
		t.Fatalf("first request: status %d, want 500", rec.Code)
	}
	rec := postJSON(t, s, "/v1/predict", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("retry after transient failure: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestMemoFastPathWithoutResponseCache pins the semaphore-bypass design:
// with the response cache disabled, a repeated request is still answered
// from the evaluator memo (header reports a cache hit, bytes identical)
// rather than re-evaluated.
func TestMemoFastPathWithoutResponseCache(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.ResponseCacheEntries = -1 })
	body := `{"grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2}}`
	rec1 := postJSON(t, s, "/v1/predict", body)
	if rec1.Code != http.StatusOK || rec1.Header().Get("X-Paceserve-Cache") != "miss" {
		t.Fatalf("first: %d %q", rec1.Code, rec1.Header().Get("X-Paceserve-Cache"))
	}
	rec2 := postJSON(t, s, "/v1/predict", body)
	if rec2.Header().Get("X-Paceserve-Cache") != "hit" {
		t.Errorf("second call not served from the evaluator memo: %q", rec2.Header().Get("X-Paceserve-Cache"))
	}
	if !bytes.Equal(rec1.Body.Bytes(), rec2.Body.Bytes()) {
		t.Error("memo-served response differs from evaluated response")
	}
	// The memo recorded exactly one evaluation: one counted miss, and a
	// counted hit from the fast path.
	ev, err := s.evaluator("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if h, m := ev.Memo.Stats(); h != 1 || m != 1 {
		t.Errorf("memo hits/misses = %d/%d, want 1/1", h, m)
	}
}

func TestSweepAggregate(t *testing.T) {
	s := newTestServer(t, nil)
	rec := postJSON(t, s, "/v1/sweep",
		`{"arrays":[{"px":2,"py":2},{"px":2,"py":3}],"mk":[5,10]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 4 || len(resp.Points) != 4 || resp.Errors != 0 {
		t.Fatalf("response shape: %+v", resp)
	}
	// Expansion order is documented: arrays outer, mk inner; weak scaling
	// fills the grid from 50^3 cells per processor.
	wantOrder := []SweepPoint{
		{Index: 0, Array: ArraySpec{2, 2}, MK: 5, Grid: GridSpec{100, 100, 50}},
		{Index: 1, Array: ArraySpec{2, 2}, MK: 10, Grid: GridSpec{100, 100, 50}},
		{Index: 2, Array: ArraySpec{2, 3}, MK: 5, Grid: GridSpec{100, 150, 50}},
		{Index: 3, Array: ArraySpec{2, 3}, MK: 10, Grid: GridSpec{100, 150, 50}},
	}
	build := testBuilder(t)
	best := -1
	for i, pt := range resp.Points {
		w := wantOrder[i]
		if pt.Index != w.Index || pt.Array != w.Array || pt.MK != w.MK || pt.Grid != w.Grid {
			t.Errorf("point %d = %+v, want shape %+v", i, pt, w)
		}
		if pt.Platform != "alpha" || pt.MMI != 3 || pt.Error != "" {
			t.Errorf("point %d defaults: %+v", i, pt)
		}
		// Every point must equal its individual sequential prediction.
		q := PredictRequest{Platform: pt.Platform, Grid: pt.Grid, Array: pt.Array, MK: pt.MK, MMI: pt.MMI}
		var ref PredictResponse
		if err := json.Unmarshal(expectedPredictBody(t, build, q, "alpha"), &ref); err != nil {
			t.Fatal(err)
		}
		if pt.PredictedSeconds != ref.PredictedSeconds {
			t.Errorf("point %d predicted %v, sequential reference %v", i, pt.PredictedSeconds, ref.PredictedSeconds)
		}
		if best == -1 || pt.PredictedSeconds < resp.Points[best].PredictedSeconds {
			best = i
		}
	}
	if resp.Best == nil || *resp.Best != resp.Points[best] {
		t.Errorf("best = %+v, want point %d", resp.Best, best)
	}
}

func TestSweepStreamNDJSON(t *testing.T) {
	s := newTestServer(t, nil)
	rec := postJSON(t, s, "/v1/sweep",
		`{"arrays":[{"px":1,"py":1},{"px":1,"py":2},{"px":1,"py":3}],"stream":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	sc := bufio.NewScanner(rec.Body)
	n := 0
	for sc.Scan() {
		var pt SweepPoint
		if err := json.Unmarshal(sc.Bytes(), &pt); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if pt.Index != n {
			t.Errorf("line %d carries index %d; streaming must preserve expansion order", n, pt.Index)
		}
		if pt.Error != "" || pt.PredictedSeconds <= 0 {
			t.Errorf("line %d: %+v", n, pt)
		}
		n++
	}
	if n != 3 {
		t.Errorf("streamed %d lines, want 3", n)
	}
}

func TestSweepValidation(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxSweepPoints = 4 })
	cases := []struct {
		name, body string
	}{
		{"no arrays", `{"mk":[10]}`},
		{"both platform spellings", `{"platform":"alpha","platforms":["beta"],"arrays":[{"px":1,"py":1}]}`},
		{"unknown platform", `{"platforms":["cray"],"arrays":[{"px":1,"py":1}]}`},
		{"too many points", `{"arrays":[{"px":1,"py":1}],"mk":[1,2,3,4,5]}`},
		{"grid and cells_per_proc", `{"arrays":[{"px":1,"py":1}],"grid":{"nx":50,"ny":50,"nz":50},"cells_per_proc":{"nx":50,"ny":50,"nz":50}}`},
		{"method typo fails whole request", `{"arrays":[{"px":1,"py":1}],"method":"templat"}`},
		{"explicit zero mk", `{"arrays":[{"px":1,"py":1}],"mk":[0,10]}`},
		{"negative mmi", `{"arrays":[{"px":1,"py":1}],"mmi":[-3]}`},
		{"bad fixed grid", `{"arrays":[{"px":1,"py":1}],"grid":{"nx":0,"ny":50,"nz":50}}`},
		{"bad cells_per_proc", `{"arrays":[{"px":1,"py":1}],"cells_per_proc":{"nx":-1,"ny":50,"nz":50}}`},
	}
	for _, tc := range cases {
		if rec := postJSON(t, s, "/v1/sweep", tc.body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, rec.Code, rec.Body.String())
		}
	}

	// A degenerate point reports per-point error without failing the grid.
	rec := postJSON(t, s, "/v1/sweep", `{"arrays":[{"px":0,"py":1},{"px":1,"py":1}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("mixed-validity sweep: %d %s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Errors != 1 || resp.Points[0].Error == "" || resp.Points[1].Error != "" {
		t.Errorf("per-point validity: %+v", resp)
	}
	if resp.Best == nil || resp.Best.Index != 1 {
		t.Errorf("best must skip errored points: %+v", resp.Best)
	}
}

// TestSweepBoundedMemoryAndEvictionStats is the serving acceptance for
// bounded caches: a 1000-point sweep over many array sizes on tightly
// capped caches must complete, stay within the bounds, and surface LRU
// evictions through /v1/stats.
func TestSweepBoundedMemoryAndEvictionStats(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MemoEntries = 16
		c.MemoShards = 1
		c.ResponseCacheEntries = 4
		c.ResponseCacheShards = 1
		c.MaxSweepPoints = 1000
		// Every point runs on its own fresh event world, so the bounds
		// hold without any shape's trace in the process-global cache.
		c.Scheduler = "event"
	})
	// 10 array sizes x 10 mk x 10 mmi = 1000 points over 10 world sizes.
	arrays := make([]string, 10)
	for i := range arrays {
		arrays[i] = fmt.Sprintf(`{"px":1,"py":%d}`, i+1)
	}
	mks := make([]string, 10)
	mmis := make([]string, 10)
	for i := range mks {
		mks[i] = fmt.Sprint(i + 1)
		mmis[i] = fmt.Sprint(i + 1)
	}
	body := fmt.Sprintf(`{"arrays":[%s],"mk":[%s],"mmi":[%s],"iterations":2}`,
		strings.Join(arrays, ","), strings.Join(mks, ","), strings.Join(mmis, ","))
	rec := postJSON(t, s, "/v1/sweep", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 1000 || resp.Errors != 0 {
		t.Fatalf("sweep shape: count %d errors %d", resp.Count, resp.Errors)
	}

	// Churn the response cache past its 4-entry bound too.
	for py := 1; py <= 6; py++ {
		b := fmt.Sprintf(`{"grid":{"nx":50,"ny":%d,"nz":50},"array":{"px":1,"py":%d}}`, 50*py, py)
		if rec := postJSON(t, s, "/v1/predict", b); rec.Code != http.StatusOK {
			t.Fatalf("predict churn %d: %d", py, rec.Code)
		}
	}

	sreq := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	srec := httptest.NewRecorder()
	s.ServeHTTP(srec, sreq)
	if srec.Code != http.StatusOK {
		t.Fatalf("stats: %d", srec.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(srec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	ev, ok := st.Evaluators["alpha"]
	if !ok {
		t.Fatalf("stats carry no alpha evaluator: %s", srec.Body.String())
	}
	// 1000 distinct configurations through a 16-entry single-shard memo:
	// the bound must hold and evictions must be visible.
	if ev.Memo.Entries > 16 {
		t.Errorf("memo entries = %d, bound 16", ev.Memo.Entries)
	}
	if ev.Memo.Evictions == 0 {
		t.Error("memo evictions = 0; LRU bound never engaged")
	}
	if ev.Memo.Misses < 1000 {
		t.Errorf("memo misses = %d, want >= 1000 distinct evaluations", ev.Memo.Misses)
	}
	// 6 distinct predict responses through a 4-entry response cache.
	if st.ResponseCache == nil {
		t.Fatal("response cache stats missing")
	}
	if st.ResponseCache.Entries > 4 {
		t.Errorf("response cache entries = %d, bound 4", st.ResponseCache.Entries)
	}
	if st.ResponseCache.Evictions == 0 {
		t.Error("response cache evictions = 0")
	}
	if st.Endpoints["sweep"].Requests == 0 || st.Endpoints["predict"].Requests != 6 {
		t.Errorf("endpoint counters: %+v", st.Endpoints)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	// The repeat is a response-cache hit: /v1/stats counts it under
	// endpoints.predict.cache_hits and /metrics must render the same count.
	for i := 0; i < 2; i++ {
		postJSON(t, s, "/v1/predict", `{"grid":{"nx":50,"ny":50,"nz":50},"array":{"px":1,"py":1}}`)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	out := rec.Body.String()
	for _, want := range []string{
		`paceserve_requests_total{endpoint="predict"} 2`,
		`paceserve_request_seconds_bucket{endpoint="predict",le="+Inf"} 2`,
		`paceserve_cache_hits_total{endpoint="predict"} 1`,
		`paceserve_cache_hits_total{endpoint="sweep"} 0`,
		`paceserve_memo_misses_total{platform="alpha"} 1`,
		// The replayer pool is deterministically warmed by the trace-tier
		// predict.
		`paceserve_pool_idle_replayers{platform="alpha"} 1`,
		"paceserve_trace_cache_entries ",
		"paceserve_trace_replays_total ",
		"paceserve_trace_cycle_replays_total ",
		"paceserve_trace_extrapolated_replays_total ",
		"paceserve_trace_extrapolated_iterations_total ",
		"paceserve_trace_replayed_cycles_total ",
		"paceserve_trace_scalar_unique_ops_total ",
		"paceserve_trace_fused_unique_ops_total ",
		"paceserve_trace_macro_unique_ops_total ",
		"paceserve_response_cache_entries 1",
		"paceserve_inflight_requests 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	hreq := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	hrec := httptest.NewRecorder()
	s.ServeHTTP(hrec, hreq)
	if hrec.Code != http.StatusOK || !strings.Contains(hrec.Body.String(), "ok") {
		t.Errorf("healthz: %d %s", hrec.Code, hrec.Body.String())
	}
}

// TestPredictExtrapolationReported pins the serving contract of the trace
// tier's steady-state extrapolation: a long-horizon predict reports the
// analytically skipped iterations in its response, a short-horizon one
// reports zero, and the /v1/stats extrapolation counters advance.
func TestPredictExtrapolationReported(t *testing.T) {
	s := newTestServer(t, nil)

	rec := postJSON(t, s, "/v1/predict",
		`{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},"iterations":5000}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ExtrapolatedIterations <= 0 || resp.ExtrapolatedIterations >= 5000 {
		t.Fatalf("extrapolated_iterations = %d, want in (0, 5000)", resp.ExtrapolatedIterations)
	}

	rec2 := postJSON(t, s, "/v1/predict",
		`{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},"iterations":5}`)
	if rec2.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec2.Code, rec2.Body.String())
	}
	var short PredictResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &short); err != nil {
		t.Fatal(err)
	}
	if short.ExtrapolatedIterations != 0 {
		t.Fatalf("short-horizon extrapolated_iterations = %d, want 0", short.ExtrapolatedIterations)
	}

	sreq := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	srec := httptest.NewRecorder()
	s.ServeHTTP(srec, sreq)
	if srec.Code != http.StatusOK {
		t.Fatalf("stats: %d", srec.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(srec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	// Counters are process-global, so assert floors, not exact values.
	if st.TraceExtrapolation.ExtrapolatedReplays < 1 ||
		st.TraceExtrapolation.ExtrapolatedIterations < uint64(resp.ExtrapolatedIterations) ||
		st.TraceExtrapolation.CycleReplays < st.TraceExtrapolation.ExtrapolatedReplays ||
		st.TraceExtrapolation.ReplayedCycles < 1 {
		t.Fatalf("stats extrapolation block = %+v", st.TraceExtrapolation)
	}
	// The compiled shapes behind these predicts fused macro ops, and the
	// op-composition invariants hold: macro ⊆ fused, fused < scalar
	// (fusion only ever shrinks the dispatched program).
	ops := st.TraceOps
	if ops.MacroUniqueOps < 1 || ops.MacroUniqueOps > ops.FusedUniqueOps ||
		ops.FusedUniqueOps >= ops.ScalarUniqueOps {
		t.Fatalf("stats trace_ops block = %+v", ops)
	}
}

// BenchmarkServePredict measures the full handler path, cached (response
// LRU hit) versus uncached (response cache and evaluator memo miss on
// every request); wired into the benchjson record by CI. The uncached
// case alternates two configurations, so each request times the handler
// plus a full trace replay of its 2x2 array.
func BenchmarkServePredict(b *testing.B) {
	bodyA := `{"grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2}}`
	bodyB := `{"grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},"mk":25}`
	run := func(b *testing.B, s *Server, bodies ...string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body := bodies[i%len(bodies)]
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
	}
	b.Run("cached", func(b *testing.B) {
		s := newTestServer(b, nil)
		postJSON(b, s, "/v1/predict", bodyA) // warm every cache layer
		b.ResetTimer()
		run(b, s, bodyA)
	})
	b.Run("uncached", func(b *testing.B) {
		// Single-entry single-shard caches + two alternating requests:
		// every request misses response cache and memo, and replays.
		s := newTestServer(b, func(c *Config) {
			c.ResponseCacheEntries = 1
			c.ResponseCacheShards = 1
			c.MemoEntries = 1
			c.MemoShards = 1
		})
		postJSON(b, s, "/v1/predict", bodyA)
		b.ResetTimer()
		run(b, s, bodyA, bodyB)
	})
}
