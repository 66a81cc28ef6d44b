package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
)

const resilienceBody = `{
	"platform": "alpha",
	"grid": {"nx": 100, "ny": 100, "nz": 50},
	"array": {"px": 2, "py": 2},
	"study": {
		"seed": 5,
		"checkpoint": {"interval_iterations": 3, "checkpoint_seconds": 0.01, "restart_seconds": 0.02},
		"failure": {"mtbf_seconds": 2.0, "scenarios": 3},
		"intervals": [1, 3, 6],
		"noise_fracs": [0.02, 0.1]
	}
}`

func TestResilienceEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	rec := postJSON(t, s, "/v1/resilience", resilienceBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp ResilienceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Platform != "alpha" || resp.Iterations != 12 || resp.MK != 10 {
		t.Errorf("header not canonical: %+v", resp)
	}
	rep := resp.Report
	if rep == nil {
		t.Fatal("no report")
	}
	if rep.Ranks != 4 || rep.Seed != 5 {
		t.Errorf("report header %+v", rep)
	}
	if !(rep.CleanSeconds > 0) || rep.CheckpointedSeconds <= rep.CleanSeconds {
		t.Errorf("baselines: clean %v checkpointed %v", rep.CleanSeconds, rep.CheckpointedSeconds)
	}
	if rep.ExpectedSeconds < rep.CheckpointedSeconds {
		t.Errorf("expected %v below checkpointed %v", rep.ExpectedSeconds, rep.CheckpointedSeconds)
	}
	if len(rep.Scenarios) != 3 {
		t.Errorf("scenarios = %d", len(rep.Scenarios))
	}
	if len(rep.Intervals) != 3 || rep.SimulatedOptimal.IntervalIterations == 0 {
		t.Errorf("interval sweep %+v optimal %+v", rep.Intervals, rep.SimulatedOptimal)
	}
	if !(rep.Analytic.YoungIntervalSeconds > 0) || !(rep.Analytic.DalyIntervalSeconds > 0) {
		t.Errorf("analytic block %+v", rep.Analytic)
	}
	if len(rep.NoiseCurve) != 2 || rep.NoiseTolerance <= 0 {
		t.Errorf("noise block: curve %v tolerance %v", rep.NoiseCurve, rep.NoiseTolerance)
	}

	var st StatsResponse
	if rec := getPath(t, s, "/v1/stats"); json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		t.Fatal("stats unmarshal")
	} else if st.Endpoints["resilience"].Requests != 1 {
		t.Fatalf("resilience request counter = %d, want 1", st.Endpoints["resilience"].Requests)
	}
	if rec := getPath(t, s, "/metrics"); !strings.Contains(rec.Body.String(), `paceserve_requests_total{endpoint="resilience"}`) {
		t.Fatal("resilience endpoint missing from /metrics")
	}
}

// TestResilienceDeterministicUnderRace hammers /v1/resilience with
// identical concurrent requests: every response must be byte-identical
// (reports are deterministic functions of the study seed and are never
// cached). Run under -race in CI.
func TestResilienceDeterministicUnderRace(t *testing.T) {
	s := newTestServer(t, nil)
	ref := postJSON(t, s, "/v1/resilience", resilienceBody)
	if ref.Code != http.StatusOK {
		t.Fatalf("status %d: %s", ref.Code, ref.Body.String())
	}
	const grinders = 4
	const rounds = 2
	var wg sync.WaitGroup
	errs := make(chan string, grinders*rounds)
	for g := 0; g < grinders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rec := postJSON(t, s, "/v1/resilience", resilienceBody)
				if rec.Code != http.StatusOK {
					errs <- rec.Body.String()
					return
				}
				if !bytes.Equal(rec.Body.Bytes(), ref.Body.Bytes()) {
					errs <- "response bytes diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestResilienceCrossProductNDJSON streams a configuration-grid × study-
// grid cross product: index order is arrays-outermost row-major, and each
// line names its array and study.
func TestResilienceCrossProductNDJSON(t *testing.T) {
	s := newTestServer(t, nil)
	body := `{
		"platform": "alpha",
		"grid": {"nx": 100, "ny": 100, "nz": 50},
		"arrays": [{"px": 2, "py": 2}, {"px": 2, "py": 3}],
		"studies": [
			{"seed": 1, "checkpoint": {"interval_iterations": 2, "checkpoint_seconds": 0.01, "restart_seconds": 0.01},
				"failure": {"mtbf_seconds": 2.0, "scenarios": 2}, "intervals": [2]},
			{"seed": 2, "checkpoint": {"interval_iterations": 4, "checkpoint_seconds": 0.02, "restart_seconds": 0.01},
				"failure": {"mtbf_seconds": 1.0, "scenarios": 2}, "intervals": [4]},
			{"seed": 3, "checkpoint": {"interval_iterations": 6, "checkpoint_seconds": 0.01, "restart_seconds": 0.05},
				"failure": {"mtbf_seconds": 4.0, "scenarios": 2}, "intervals": [6]}
		]
	}`
	rec := postJSON(t, s, "/v1/resilience", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	wantRanks := []int{4, 4, 4, 6, 6, 6}
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var idx int
	for sc.Scan() {
		var pt ResiliencePoint
		if err := json.Unmarshal(sc.Bytes(), &pt); err != nil {
			t.Fatalf("line %d: %v", idx, err)
		}
		if pt.Index != idx {
			t.Fatalf("line %d has index %d (must stream in order)", idx, pt.Index)
		}
		if pt.Error != "" || pt.Report == nil {
			t.Fatalf("line %d: %+v", idx, pt)
		}
		if pt.Study != idx%3 {
			t.Fatalf("line %d: study %d, want %d", idx, pt.Study, idx%3)
		}
		if pt.Report.Ranks != wantRanks[idx] {
			t.Fatalf("line %d: ranks %d, want %d", idx, pt.Report.Ranks, wantRanks[idx])
		}
		idx++
	}
	if idx != 6 {
		t.Fatalf("streamed %d lines, want 6", idx)
	}
	// Cleanly completed stream: trailer announced but not set.
	if res := rec.Result(); res.Trailer.Get("Retry-After") != "" {
		t.Fatalf("uncancelled stream set Retry-After trailer: %v", res.Trailer)
	}
}

func TestResilienceRejectsMalformed(t *testing.T) {
	s := newTestServer(t, nil)
	study := `{"seed":1,"checkpoint":{"interval_iterations":3,"checkpoint_seconds":0.01,"restart_seconds":0.01},"failure":{"mtbf_seconds":2.0}}`
	cases := []struct {
		name, body string
	}{
		{"no study", `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2}}`},
		{"both forms", `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"study":` + study + `,"studies":[` + study + `]}`},
		{"array and arrays", `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"arrays":[{"px":2,"py":2}],"study":` + study + `}`},
		{"zero mtbf", `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"study":{"seed":1,"checkpoint":{"interval_iterations":3,"checkpoint_seconds":0.01,"restart_seconds":0.01},
			"failure":{"mtbf_seconds":0}}}`},
		{"negative interval", `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"study":{"seed":1,"checkpoint":{"interval_iterations":-1,"checkpoint_seconds":0.01,"restart_seconds":0.01},
			"failure":{"mtbf_seconds":2}}}`},
		{"interval beyond iterations", `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"study":{"seed":1,"checkpoint":{"interval_iterations":13,"checkpoint_seconds":0.01,"restart_seconds":0.01},
			"failure":{"mtbf_seconds":2}}}`},
		{"negative restart", `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"study":{"seed":1,"checkpoint":{"interval_iterations":3,"checkpoint_seconds":0.01,"restart_seconds":-1},
			"failure":{"mtbf_seconds":2}}}`},
		{"bad sweep interval", `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"study":{"seed":1,"checkpoint":{"interval_iterations":3,"checkpoint_seconds":0.01,"restart_seconds":0.01},
			"failure":{"mtbf_seconds":2},"intervals":[0]}}`},
		{"bad noise frac", `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"study":{"seed":1,"checkpoint":{"interval_iterations":3,"checkpoint_seconds":0.01,"restart_seconds":0.01},
			"failure":{"mtbf_seconds":2},"noise_fracs":[-0.1]}}`},
		{"bad grid study", `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"studies":[` + study + `,{"seed":1,"checkpoint":{"interval_iterations":3,"checkpoint_seconds":0.01,
			"restart_seconds":0.01},"failure":{"mtbf_seconds":-1}}]}`},
		{"unknown platform", `{"platform":"gamma","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"study":` + study + `}`},
		{"unknown field", `{"platform":"alpha","wat":1,"grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},
			"study":` + study + `}`},
		{"not json", `{{{`},
	}
	for _, tc := range cases {
		rec := postJSON(t, s, "/v1/resilience", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, rec.Code, rec.Body.String())
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: not a structured error envelope: %s", tc.name, rec.Body.String())
		}
	}
	if rec := postJSON(t, s, "/v1/resilience", resilienceBody); rec.Code != http.StatusOK {
		t.Fatalf("valid request after rejects: %d", rec.Code)
	}
}

// TestSweepNoiseTolerance: noise_fracs attaches the winning point's
// noise-sensitivity verdict beside best in aggregated sweeps, and the
// whole response stays deterministic.
func TestSweepNoiseTolerance(t *testing.T) {
	s := newTestServer(t, nil)
	body := `{
		"platform": "alpha",
		"arrays": [{"px": 1, "py": 1}, {"px": 2, "py": 2}],
		"noise_fracs": [0.02, 0.1, 0.3],
		"noise_kind": "uniform",
		"noise_seed": 9
	}`
	rec := postJSON(t, s, "/v1/sweep", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Best == nil {
		t.Fatal("no best point")
	}
	nt := resp.NoiseTolerance
	if nt == nil {
		t.Fatal("no noise_tolerance block")
	}
	if nt.Error != "" {
		t.Fatalf("noise tolerance error: %s", nt.Error)
	}
	if nt.Platform != "alpha" || nt.Array != resp.Best.Array {
		t.Fatalf("block identity %+v vs best %+v", nt, resp.Best)
	}
	if len(nt.Curve) != 3 || nt.Tolerance <= 0 {
		t.Fatalf("curve %v tolerance %v", nt.Curve, nt.Tolerance)
	}
	for i := 1; i < len(nt.Curve); i++ {
		if nt.Curve[i].InflationPct < nt.Curve[i-1].InflationPct {
			t.Fatalf("inflation not monotone in frac: %v", nt.Curve)
		}
	}
	again := postJSON(t, s, "/v1/sweep", body)
	if !bytes.Equal(rec.Body.Bytes(), again.Body.Bytes()) {
		t.Fatal("noise-tolerance sweep not deterministic")
	}

	// Bad noise knobs are request-level 400s; streaming has no best point
	// and must omit the block.
	if rec := postJSON(t, s, "/v1/sweep",
		`{"platform":"alpha","arrays":[{"px":1,"py":1}],"noise_fracs":[-1]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("negative frac: %d", rec.Code)
	}
	if rec := postJSON(t, s, "/v1/sweep",
		`{"platform":"alpha","arrays":[{"px":1,"py":1}],"noise_fracs":[0.1],"noise_kind":"pink"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad kind: %d", rec.Code)
	}
	stream := postJSON(t, s, "/v1/sweep",
		`{"platform":"alpha","arrays":[{"px":1,"py":1}],"noise_fracs":[0.1],"stream":true}`)
	if stream.Code != http.StatusOK {
		t.Fatalf("streamed sweep: %d", stream.Code)
	}
	if strings.Contains(stream.Body.String(), "noise_tolerance") {
		t.Fatal("streamed sweep carried a noise_tolerance block")
	}
}
