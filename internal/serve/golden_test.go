package serve

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// goldenRequests are fixed requests to the evaluation endpoints. Their
// response bodies are checked into testdata: ETags, the response cache and
// the shard router all key on these bytes, so a replay change that moves
// one bit of a perturbed, baseline or failure makespan shows up here.
var goldenRequests = []struct {
	file, path, body string
}{
	{"perturb_per_rank.json", "/v1/perturb", `{
		"platform": "alpha",
		"grid": {"nx": 120, "ny": 90, "nz": 50},
		"array": {"px": 4, "py": 3},
		"iterations": 6,
		"scenario": {
			"seed": 7,
			"delays": [{"rank": 5, "iteration": 1, "seconds": 2.5}, {"rank": 10, "iteration": 3, "seconds": 1.25}],
			"noise": {"kind": "gaussian", "frac": 0.03}
		},
		"per_rank": true
	}`},
	{"sweep_scenario.json", "/v1/sweep", `{
		"platform": "alpha",
		"arrays": [{"px": 3, "py": 3}, {"px": 4, "py": 2}],
		"mk": [10, 25],
		"cells_per_proc": {"nx": 30, "ny": 30, "nz": 40},
		"iterations": 5,
		"scenario": {
			"seed": 11,
			"delays": [{"rank": 1, "iteration": 2, "seconds": 3.0}],
			"noise": {"kind": "uniform", "frac": 0.02}
		}
	}`},
	{"resilience_noise.json", "/v1/resilience", `{
		"platform": "alpha",
		"grid": {"nx": 90, "ny": 60, "nz": 50},
		"array": {"px": 3, "py": 2},
		"study": {
			"seed": 9,
			"checkpoint": {"interval_iterations": 3, "checkpoint_seconds": 0.01, "restart_seconds": 0.02},
			"failure": {"mtbf_seconds": 2.0, "scenarios": 4},
			"intervals": [1, 3, 6],
			"noise": {"kind": "exponential", "frac": 0.05},
			"noise_fracs": [0.02, 0.1]
		}
	}`},
	// Streamed grids: NDJSON, one line per point in index order.
	{"sweep_stream.ndjson", "/v1/sweep", `{
		"platforms": ["alpha", "beta"],
		"arrays": [{"px": 2, "py": 2}, {"px": 3, "py": 2}],
		"mk": [10, 25],
		"cells_per_proc": {"nx": 30, "ny": 30, "nz": 40},
		"iterations": 4,
		"stream": true
	}`},
	{"perturb_grid.ndjson", "/v1/perturb", `{
		"platform": "alpha",
		"grid": {"nx": 90, "ny": 60, "nz": 40},
		"array": {"px": 3, "py": 2},
		"iterations": 5,
		"scenarios": [
			{"seed": 3, "delays": [{"rank": 4, "iteration": 1, "seconds": 2.5}]},
			{"seed": 4, "delays": [{"rank": 2, "iteration": 2, "seconds": 3.0}], "noise": {"kind": "uniform", "frac": 0.04}},
			{"seed": 5, "delays": [{"rank": 0, "iteration": 3, "seconds": 1.5}], "noise": {"kind": "gaussian", "frac": 0.02}}
		]
	}`},
	{"resilience_grid.ndjson", "/v1/resilience", `{
		"platform": "alpha",
		"grid": {"nx": 90, "ny": 60, "nz": 40},
		"arrays": [{"px": 3, "py": 2}, {"px": 2, "py": 2}],
		"iterations": 6,
		"studies": [
			{"seed": 1, "checkpoint": {"interval_iterations": 2, "checkpoint_seconds": 0.01, "restart_seconds": 0.01},
				"failure": {"mtbf_seconds": 2.0, "scenarios": 2}},
			{"seed": 2, "checkpoint": {"interval_iterations": 3, "checkpoint_seconds": 0.01, "restart_seconds": 0.02},
				"failure": {"mtbf_seconds": 3.0, "scenarios": 3}, "intervals": [1, 3]}
		]
	}`},
}

// TestPerturbedResponsesGolden compares the perturbed endpoints' response
// bodies with the recorded bytes in testdata.
func TestPerturbedResponsesGolden(t *testing.T) {
	s := newTestServer(t, nil)
	for _, g := range goldenRequests {
		t.Run(g.file, func(t *testing.T) {
			rec := postJSON(t, s, g.path, g.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("%s response differs from testdata/%s:\ngot  %s\nwant %s", g.path, g.file, got, want)
			}
		})
	}
}
