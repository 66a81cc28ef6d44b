package serve

import (
	"fmt"
	"net/http"

	"pacesweep/internal/platform"
	"pacesweep/internal/resilience"
)

// ResilienceRequest is the /v1/resilience body: one configuration plus
// either a single resilience study (one JSON report) or a study grid
// (NDJSON, one ResiliencePoint per line in index order). Studies run on
// the template path — failures inject into the checkpointed compiled
// communication script — so the rank count is bounded by the template
// ceiling, like /v1/perturb.
type ResilienceRequest struct {
	Platform     string         `json:"platform,omitempty"`
	PlatformSpec *platform.Spec `json:"platform_spec,omitempty"`
	Grid         GridSpec       `json:"grid"`
	Array        ArraySpec      `json:"array,omitempty"`
	// Arrays crosses the studies with a configuration grid (mutually
	// exclusive with Array): the stream carries one line per
	// (array, study) pair in row-major order, arrays outermost —
	// index = array_index*len(studies) + study_index. Every array shares
	// the request's Grid (strong scaling; use /v1/sweep for weak-scaling
	// expansion).
	Arrays     []ArraySpec `json:"arrays,omitempty"`
	MK         int         `json:"mk,omitempty"`
	MMI        int         `json:"mmi,omitempty"`
	Angles     int         `json:"angles,omitempty"`
	Iterations int         `json:"iterations,omitempty"`

	// Study is the single-shot form; Studies streams a grid. Exactly one
	// of the two must be set. A single Study combined with Arrays also
	// streams (one line per array).
	Study   *resilience.Study  `json:"study,omitempty"`
	Studies []resilience.Study `json:"studies,omitempty"`
}

// predictRequest lowers the resilience request onto the canonical predict
// request so platform resolution, normalisation and configuration
// validation are shared with /v1/predict.
func (q *ResilienceRequest) predictRequest() PredictRequest {
	return PredictRequest{
		Platform: q.Platform, PlatformSpec: q.PlatformSpec,
		Grid: q.Grid, Array: q.Array,
		MK: q.MK, MMI: q.MMI,
		Angles: q.Angles, Iterations: q.Iterations,
		Method: MethodTemplate,
	}
}

// ResilienceResponse is the single-study /v1/resilience body.
type ResilienceResponse struct {
	ReportHeader
	Report *resilience.Report `json:"report"`
}

// ResiliencePoint is one line of a streamed study grid: the report of
// study Study run on configuration Array. Error is set (and Report nil)
// for points whose run failed; one bad point never aborts the grid.
type ResiliencePoint struct {
	Index  int                `json:"index"`
	Array  ArraySpec          `json:"array"`
	Study  int                `json:"study"`
	Report *resilience.Report `json:"report,omitempty"`
	Error  string             `json:"error,omitempty"`
}

// handleResilience is POST /v1/resilience. Reports are recomputed per
// request — never served from the response caches — so a report is always
// the product of live replays under the study's seed; the determinism
// tests rely on that.
func (s *Server) handleResilience(w http.ResponseWriter, r *http.Request) (ok bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	var q ResilienceRequest
	if err := decodeJSON(r, &q); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	if (q.Study == nil) == (len(q.Studies) == 0) {
		writeError(w, http.StatusBadRequest, "set exactly one of study or studies")
		return false
	}
	arrays := q.Arrays
	if len(arrays) == 0 {
		arrays = []ArraySpec{q.Array}
	} else if q.Array != (ArraySpec{}) {
		writeError(w, http.StatusBadRequest, "set either array or arrays, not both")
		return false
	}
	// One canonical predict request per array; every configuration of the
	// cross product must be valid before any evaluation, like the studies
	// below.
	pqs := make([]PredictRequest, len(arrays))
	for i, arr := range arrays {
		pq := q.predictRequest()
		pq.Array = arr
		pq.normalize(s.cfg.Platforms[0])
		if err := pq.validate(); err != nil {
			writeError(w, http.StatusBadRequest, "array %d: %v", i, err)
			return false
		}
		pqs[i] = pq
	}
	pq0 := &pqs[0]
	if err := s.acceptPlatform(pq0); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	// Every study must be well-formed before any evaluation: a malformed
	// MTBF in study 40 of a grid is a 400, not 39 reports and one error
	// line. Studies are rank-independent (failures sample ranks at run
	// time), so one validation pass covers every array of the cross
	// product.
	studies := q.Studies
	if q.Study != nil {
		studies = []resilience.Study{*q.Study}
	}
	for i, st := range studies {
		if err := st.Validate(pq0.Iterations); err != nil {
			writeError(w, http.StatusBadRequest, "study %d: %v", i, err)
			return false
		}
	}
	if !s.admit(w, &s.st.resilience) {
		return false
	}
	ev, err := s.evaluatorFor(pq0)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "evaluator for %q: %v", platformLabel(pq0), err)
		return false
	}

	// run executes one (configuration, study) pair under an evaluation
	// slot, honouring the request deadline while queued.
	run := func(pq *PredictRequest, st resilience.Study) (*resilience.Report, error) {
		if err := s.acquire(r); err != nil {
			return nil, fmt.Errorf("cancelled while queued: %w", err)
		}
		defer s.release()
		return resilience.Run(ev, pq.toConfig(), st)
	}

	if q.Study != nil && len(q.Arrays) == 0 {
		rep, err := run(pq0, *q.Study)
		if err != nil {
			writeEvalError(w, r, err)
			return false
		}
		return writeJSON(w, http.StatusOK, &ResilienceResponse{ReportHeader: reportHeader(pq0), Report: rep}) == nil
	}

	// Cross product: fan out in index order (arrays outermost), stream
	// NDJSON as each report lands.
	point := func(i int) ResiliencePoint {
		return ResiliencePoint{Index: i, Array: arrays[i/len(studies)], Study: i % len(studies)}
	}
	results, ready, finished := fanOut(r.Context(), s.cfg.SweepWorkers, indexSpans(len(arrays)*len(studies)),
		func(i int) ResiliencePoint {
			pt := point(i)
			if rep, err := run(&pqs[i/len(studies)], studies[pt.Study]); err != nil {
				pt.Error = err.Error()
			} else {
				pt.Report = rep
			}
			return pt
		},
		func(i int, err error) ResiliencePoint {
			pt := point(i)
			pt.Error = "cancelled: " + err.Error()
			return pt
		})
	return streamNDJSON(w, r, results, ready, finished)
}
