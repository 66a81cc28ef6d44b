package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestPredictETag pins the fingerprint-derived validator contract: every
// 200 carries an ETag; resending it in If-None-Match yields an empty 304
// (even across response-cache eviction, since the validator derives from
// the fingerprint, not the cached bytes); a different configuration's
// validator does not match.
func TestPredictETag(t *testing.T) {
	s := newTestServer(t, nil)
	body := `{"grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2}}`

	rec := postJSON(t, s, "/v1/predict", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	etag := rec.Header().Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"pace-`) {
		t.Fatalf("ETag = %q, want fingerprint-derived validator", etag)
	}

	// Conditional revalidation: 304, empty body, validator echoed.
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	req.Header.Set("If-None-Match", etag)
	cond := httptest.NewRecorder()
	s.ServeHTTP(cond, req)
	if cond.Code != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", cond.Code)
	}
	if cond.Body.Len() != 0 {
		t.Errorf("304 carried a body: %q", cond.Body.String())
	}
	if got := cond.Header().Get("ETag"); got != etag {
		t.Errorf("304 ETag = %q, want %q", got, etag)
	}

	// Weak form and list membership match too; a wrong validator does not.
	req = httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	req.Header.Set("If-None-Match", `"bogus", W/`+etag)
	cond = httptest.NewRecorder()
	s.ServeHTTP(cond, req)
	if cond.Code != http.StatusNotModified {
		t.Errorf("list/weak revalidation status = %d, want 304", cond.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	req.Header.Set("If-None-Match", `"pace-0000000000000000"`)
	cond = httptest.NewRecorder()
	s.ServeHTTP(cond, req)
	if cond.Code != http.StatusOK {
		t.Errorf("mismatched validator status = %d, want 200", cond.Code)
	}

	// A different configuration must carry a different validator.
	other := postJSON(t, s, "/v1/predict", `{"grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},"mk":25}`)
	if got := other.Header().Get("ETag"); got == etag || got == "" {
		t.Errorf("distinct config ETag = %q vs %q", got, etag)
	}

	// Stats surface the 304s.
	var st StatsResponse
	srec := httptest.NewRecorder()
	s.ServeHTTP(srec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if err := json.Unmarshal(srec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Endpoints["predict"].NotModified != 2 {
		t.Errorf("not_modified = %d, want 2", st.Endpoints["predict"].NotModified)
	}
}

// TestSweepWarmsResponseCache pins the sweep/predict cache-reuse loop in
// both directions: a sweep point's result lands in the response-byte LRU
// (so the same /v1/predict query is a byte-cache hit), and a memoised
// /v1/predict result is served to sweep points without re-marshalling
// divergence — the sweep's number equals the predict body's bit for bit.
func TestSweepWarmsResponseCache(t *testing.T) {
	s := newTestServer(t, nil)
	sweepBody := `{"platform":"alpha","arrays":[{"px":2,"py":2}],"mk":[10,25]}`
	rec := postJSON(t, s, "/v1/sweep", sweepBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", rec.Code, rec.Body.String())
	}
	var sweep SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sweep); err != nil {
		t.Fatal(err)
	}

	// The matching predict must be a response-cache hit with the same value.
	predictBody := `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2}}`
	prec := postJSON(t, s, "/v1/predict", predictBody)
	if got := prec.Header().Get("X-Paceserve-Cache"); got != "hit" {
		t.Errorf("predict after sweep cache disposition = %q, want hit", got)
	}
	var presp PredictResponse
	if err := json.Unmarshal(prec.Body.Bytes(), &presp); err != nil {
		t.Fatal(err)
	}
	if presp.PredictedSeconds != sweep.Points[0].PredictedSeconds {
		t.Errorf("sweep point %v != predict %v", sweep.Points[0].PredictedSeconds, presp.PredictedSeconds)
	}

	// Repeating the sweep is now pure response-cache traffic.
	var st StatsResponse
	statsOf := func() StatsResponse {
		srec := httptest.NewRecorder()
		s.ServeHTTP(srec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var out StatsResponse
		if err := json.Unmarshal(srec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := statsOf().Endpoints["sweep"].CacheHits
	rec2 := postJSON(t, s, "/v1/sweep", sweepBody)
	if !jsonEqual(t, rec.Body.Bytes(), rec2.Body.Bytes()) {
		t.Errorf("repeated sweep diverged")
	}
	st = statsOf()
	if got := st.Endpoints["sweep"].CacheHits; got != before+2 {
		t.Errorf("sweep cache hits = %d, want %d (both points from response cache)", got, before+2)
	}
	if st.SweepBatching.GroupsTotal == 0 || st.SweepBatching.PointsTotal < 4 {
		t.Errorf("sweep batching counters not recorded: %+v", st.SweepBatching)
	}
}

func jsonEqual(t *testing.T, a, b []byte) bool {
	t.Helper()
	return string(a) == string(b)
}

// TestBatchedSweepByteIdentical is the batched-sweep correctness hammer
// (run under -race in CI): many concurrent identical multi-shape sweeps —
// batched by (platform, shape) onto different workers each time — must
// produce byte-identical response documents, and every per-point value
// must match an unbatched sequential reference server.
func TestBatchedSweepByteIdentical(t *testing.T) {
	body := `{"platforms":["alpha","beta"],` +
		`"arrays":[{"px":1,"py":1},{"px":2,"py":2},{"px":2,"py":3}],` +
		`"mk":[5,10,50],"mmi":[3,6]}`

	// Sequential reference: one worker, no concurrency inside the sweep.
	seq := newTestServer(t, func(c *Config) { c.SweepWorkers = 1; c.MaxConcurrent = 1 })
	want := postJSON(t, seq, "/v1/sweep", body)
	if want.Code != http.StatusOK {
		t.Fatalf("reference sweep: %d %s", want.Code, want.Body.String())
	}

	s := newTestServer(t, func(c *Config) { c.SweepWorkers = 4 })
	const clients = 6
	got := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := postJSON(t, s, "/v1/sweep", body)
			if rec.Code == http.StatusOK {
				got[i] = rec.Body.Bytes()
			}
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g == nil {
			t.Fatalf("client %d failed", i)
		}
		if string(g) != string(want.Body.Bytes()) {
			t.Fatalf("client %d sweep diverged from sequential reference", i)
		}
	}

	// Streaming mode through the batched dispatcher keeps index order.
	srec := postJSON(t, s, "/v1/sweep", strings.TrimSuffix(body, "}")+`,"stream":true}`)
	if srec.Code != http.StatusOK {
		t.Fatalf("stream sweep: %d", srec.Code)
	}
	lines := strings.Split(strings.TrimSpace(srec.Body.String()), "\n")
	if len(lines) != 36 {
		t.Fatalf("stream lines = %d, want 36", len(lines))
	}
	for i, line := range lines {
		var pt SweepPoint
		if err := json.Unmarshal([]byte(line), &pt); err != nil {
			t.Fatal(err)
		}
		if pt.Index != i {
			t.Fatalf("stream out of order: line %d has index %d", i, pt.Index)
		}
		if pt.Error != "" {
			t.Fatalf("point %d error: %s", i, pt.Error)
		}
	}
}

// TestBatchSweepGrouping unit-tests the shape grouping: points of one
// (platform, shape) stay contiguous, spans never cross shape boundaries,
// and a single-shape sweep still splits into multiple spans for the pool.
func TestBatchSweepGrouping(t *testing.T) {
	s := newTestServer(t, nil)
	mk := func(platform string, px, mk int) PredictRequest {
		q := PredictRequest{Platform: platform,
			Grid:  GridSpec{NX: 50 * px, NY: 50, NZ: 50},
			Array: ArraySpec{PX: px, PY: 1}, MK: mk}
		q.normalize("alpha")
		return q
	}
	points := []PredictRequest{
		mk("alpha", 2, 10), mk("beta", 2, 10), mk("alpha", 2, 10),
		mk("alpha", 3, 10), mk("alpha", 2, 25), mk("beta", 2, 10),
	}
	spans := s.batchSweep(points, 2)
	var order []int
	for _, sp := range spans {
		for _, i := range sp {
			if sweepGroupOf(&points[i]) != sweepGroupOf(&points[sp[0]]) {
				t.Fatalf("span %v crosses shape boundary at point %d", sp, i)
			}
		}
		order = append(order, sp...)
	}
	if len(order) != len(points) {
		t.Fatalf("spans hold %d of %d points", len(order), len(points))
	}
	// mk=10 vs mk=25 at nz=50: different nkb -> different groups; the two
	// platforms split too. Expect 4 groups: alpha/2x1/mk10 (x2), beta (x2),
	// alpha/3x1, alpha/mk25.
	seen := map[sweepGroupKey]bool{}
	for _, i := range order {
		seen[sweepGroupOf(&points[i])] = true
	}
	if len(seen) != 4 {
		t.Fatalf("grouping produced %d shapes, want 4", len(seen))
	}

	// One giant single-shape sweep must split into >= workers spans.
	big := make([]PredictRequest, 64)
	for i := range big {
		big[i] = mk("alpha", 2, 10)
	}
	spans = s.batchSweep(big, 4)
	if len(spans) < 4 {
		t.Fatalf("single-shape sweep produced %d spans, want >= 4 for the pool", len(spans))
	}
}

// BenchmarkSweepBatch times one 120-point multi-shape /v1/sweep through
// the batched worker pool; one op is one sweep. Each op builds a fresh
// server outside the timer, so its response cache and prediction memo are
// cold and every point pays an evaluation, and the timer also covers the
// lazy build of the two platforms' evaluators (hand-set models, no
// fitting) and their cost kernels. The shape traces are cached
// process-wide and warm after the first op, so the points replay without
// compiling.
func BenchmarkSweepBatch(b *testing.B) {
	body := `{"platforms":["alpha","beta"],` +
		`"arrays":[{"px":2,"py":2},{"px":2,"py":3},{"px":3,"py":3}],` +
		`"mk":[2,5,10,25,50],"mmi":[1,2,3,6]}` // 2x3x5x4 = 120 points
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Fresh server: cold memo and response caches; warm shape traces.
		s := newTestServer(b, func(c *Config) { c.SweepWorkers = 4 })
		b.StartTimer()
		rec := postJSON(b, s, "/v1/sweep", body)
		if rec.Code != http.StatusOK {
			b.Fatalf("sweep: %d %s", rec.Code, rec.Body.String())
		}
	}
	b.ReportMetric(120, "points/op")
}
