package serve

import (
	"fmt"
	"net/http"

	"pacesweep/internal/perturb"
	"pacesweep/internal/platform"
)

// PerturbRequest is the /v1/perturb body: one configuration plus either a
// single fault-injection scenario (one JSON report) or a scenario grid
// (NDJSON, one PerturbPoint per line in index order). Perturbation always
// runs on the template path — the scenario injects into the compiled
// communication script — so the rank count is bounded by the template
// ceiling, like method "template" on /v1/predict.
type PerturbRequest struct {
	Platform     string         `json:"platform,omitempty"`
	PlatformSpec *platform.Spec `json:"platform_spec,omitempty"`
	Grid         GridSpec       `json:"grid"`
	Array        ArraySpec      `json:"array"`
	MK           int            `json:"mk,omitempty"`
	MMI          int            `json:"mmi,omitempty"`
	Angles       int            `json:"angles,omitempty"`
	Iterations   int            `json:"iterations,omitempty"`

	// Scenario is the single-shot form; Scenarios streams a grid. Exactly
	// one of the two must be set.
	Scenario  *perturb.Scenario  `json:"scenario,omitempty"`
	Scenarios []perturb.Scenario `json:"scenarios,omitempty"`

	// PerRank attaches the final per-rank damage vector to each report.
	PerRank bool `json:"per_rank,omitempty"`
}

// predictRequest lowers the perturb request onto the canonical predict
// request so platform resolution, normalisation and configuration
// validation are shared with /v1/predict.
func (q *PerturbRequest) predictRequest() PredictRequest {
	return PredictRequest{
		Platform: q.Platform, PlatformSpec: q.PlatformSpec,
		Grid: q.Grid, Array: q.Array,
		MK: q.MK, MMI: q.MMI,
		Angles: q.Angles, Iterations: q.Iterations,
		Method: MethodTemplate,
	}
}

// PerturbResponse is the single-scenario /v1/perturb body.
type PerturbResponse struct {
	ReportHeader
	Report *perturb.Report `json:"report"`
}

// ReportHeader echoes the canonical configuration a single-shot
// /v1/perturb or /v1/resilience report was computed on.
type ReportHeader struct {
	Platform            string    `json:"platform"`
	PlatformFingerprint string    `json:"platform_fingerprint,omitempty"`
	Grid                GridSpec  `json:"grid"`
	Array               ArraySpec `json:"array"`
	MK                  int       `json:"mk"`
	MMI                 int       `json:"mmi"`
	Angles              int       `json:"angles"`
	Iterations          int       `json:"iterations"`
}

// reportHeader fills the header from a canonical predict request.
func reportHeader(q *PredictRequest) ReportHeader {
	h := ReportHeader{
		Platform: platformName(q), Grid: q.Grid, Array: q.Array,
		MK: q.MK, MMI: q.MMI, Angles: q.Angles, Iterations: q.Iterations,
	}
	if q.PlatformSpec != nil {
		h.PlatformFingerprint = q.PlatformSpec.FingerprintHex()
	}
	return h
}

// PerturbPoint is one line of a streamed scenario grid. Error is set (and
// Report nil) for scenarios whose run failed; one bad scenario never
// aborts the grid.
type PerturbPoint struct {
	Index  int             `json:"index"`
	Report *perturb.Report `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// handlePerturb is POST /v1/perturb. Reports are recomputed per request —
// never served from the response caches — so a report is always the
// product of one live pair of replays under the scenario's seed; the
// determinism tests rely on that.
func (s *Server) handlePerturb(w http.ResponseWriter, r *http.Request) (ok bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	var q PerturbRequest
	if err := decodeJSON(r, &q); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	if (q.Scenario == nil) == (len(q.Scenarios) == 0) {
		writeError(w, http.StatusBadRequest, "set exactly one of scenario or scenarios")
		return false
	}
	pq := q.predictRequest()
	pq.normalize(s.cfg.Platforms[0])
	if err := pq.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	if err := s.acceptPlatform(&pq); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	// Every scenario must be well-formed before any evaluation: a typo in
	// scenario 40 of a grid is a 400, not 39 reports and one error line.
	ranks := pq.Array.PX * pq.Array.PY
	scenarios := q.Scenarios
	if q.Scenario != nil {
		scenarios = []perturb.Scenario{*q.Scenario}
	}
	for i, sc := range scenarios {
		if err := sc.Validate(ranks, pq.Iterations); err != nil {
			writeError(w, http.StatusBadRequest, "scenario %d: %v", i, err)
			return false
		}
	}
	if !s.admit(w, &s.st.perturb) {
		return false
	}
	ev, err := s.evaluatorFor(&pq)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "evaluator for %q: %v", platformLabel(&pq), err)
		return false
	}

	// run executes one scenario under an evaluation slot, honouring the
	// request deadline while queued.
	run := func(sc perturb.Scenario) (*perturb.Report, error) {
		if err := s.acquire(r); err != nil {
			return nil, fmt.Errorf("cancelled while queued: %w", err)
		}
		defer s.release()
		return perturb.Run(ev, pq.toConfig(), sc, q.PerRank)
	}

	if q.Scenario != nil {
		rep, err := run(*q.Scenario)
		if err != nil {
			writeEvalError(w, r, err)
			return false
		}
		return writeJSON(w, http.StatusOK, &PerturbResponse{ReportHeader: reportHeader(&pq), Report: rep}) == nil
	}

	// Scenario grid: fan out in index order, stream NDJSON as each report
	// lands.
	results, ready, finished := fanOut(r.Context(), s.cfg.SweepWorkers, indexSpans(len(scenarios)),
		func(i int) PerturbPoint {
			pt := PerturbPoint{Index: i}
			if rep, err := run(scenarios[i]); err != nil {
				pt.Error = err.Error()
			} else {
				pt.Report = rep
			}
			return pt
		},
		func(i int, err error) PerturbPoint { return PerturbPoint{Index: i, Error: "cancelled: " + err.Error()} })
	return streamNDJSON(w, r, results, ready, finished)
}

// platformName names the request's platform for response bodies.
func platformName(q *PredictRequest) string {
	if q.PlatformSpec != nil {
		return q.PlatformSpec.Name
	}
	return q.Platform
}
