package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"pacesweep/internal/pace"
	"pacesweep/internal/perturb"
	"pacesweep/internal/platform"
	"pacesweep/internal/resilience"
)

// SweepRequest is the /v1/sweep body: the cross product of platforms ×
// processor arrays × mk × mmi is expanded into prediction points in a
// fixed, documented order (platform outermost, mmi innermost). Arrays is
// required; platforms defaults to the server default, mk to [10] and mmi
// to [3]. Each point's data size is either the fixed Grid or — the
// paper's weak-scaling convention, the default — CellsPerProc (50x50x50
// when omitted) scaled by the point's processor array.
type SweepRequest struct {
	Platforms []string `json:"platforms,omitempty"`
	Platform  string   `json:"platform,omitempty"` // single-platform convenience
	// PlatformSpec sweeps an inline custom platform (mutually exclusive
	// with the name fields): every point evaluates on the evaluator fitted
	// once for the spec's fingerprint.
	PlatformSpec *platform.Spec `json:"platform_spec,omitempty"`
	Arrays       []ArraySpec    `json:"arrays"`
	MK           []int          `json:"mk,omitempty"`
	MMI          []int          `json:"mmi,omitempty"`
	Grid         *GridSpec      `json:"grid,omitempty"`
	CellsPerProc *GridSpec      `json:"cells_per_proc,omitempty"`
	Angles       int            `json:"angles,omitempty"`
	Iterations   int            `json:"iterations,omitempty"`
	Method       string         `json:"method,omitempty"`
	// Scenario makes robustness a sweep axis: every point additionally
	// runs this fault-injection scenario (template method only) and
	// reports a perturbation digest beside its clean prediction, so a
	// procurement sweep can rank platforms by noise tolerance. Points
	// whose array cannot host the scenario's ranks error individually.
	// Perturbed points always evaluate live — never from the response
	// cache.
	Scenario *perturb.Scenario `json:"scenario,omitempty"`
	// NoiseFracs attaches a noise-sensitivity verdict to the aggregated
	// response: after the sweep picks its best clean point, the compute-
	// noise fraction is swept over that configuration and the response
	// carries the damage-vs-noise curve plus the noise_tolerance score
	// beside best (template method only; streaming responses have no best
	// point and skip it). NoiseKind picks the noise model (default
	// "uniform"), NoiseSeed the draw stream.
	NoiseFracs []float64 `json:"noise_fracs,omitempty"`
	NoiseKind  string    `json:"noise_kind,omitempty"`
	NoiseSeed  int64     `json:"noise_seed,omitempty"`
	// Stream selects NDJSON streaming: one SweepPoint per line in index
	// order, flushed as each becomes available. Default: one aggregated
	// SweepResponse document.
	Stream bool `json:"stream,omitempty"`
}

// SweepPoint is one evaluated point of a sweep. Error is set (and the
// prediction fields zero) for points whose configuration is invalid or
// whose evaluation failed; one bad point never aborts the sweep.
type SweepPoint struct {
	Index            int       `json:"index"`
	Platform         string    `json:"platform"`
	Grid             GridSpec  `json:"grid"`
	Array            ArraySpec `json:"array"`
	MK               int       `json:"mk"`
	MMI              int       `json:"mmi"`
	PredictedSeconds float64   `json:"predicted_seconds,omitempty"`
	Method           string    `json:"method,omitempty"`
	// Perturbation digests the point's fault-injection run when the sweep
	// carries a scenario; PredictedSeconds is then the matched baseline.
	Perturbation *PerturbSummary `json:"perturbation,omitempty"`
	Error        string          `json:"error,omitempty"`
}

// PerturbSummary is the per-point digest of a perturbation report: the
// headline damage numbers without the per-generation wavefront detail
// (use /v1/perturb for the full report on a single configuration).
type PerturbSummary struct {
	PerturbedSeconds      float64 `json:"perturbed_seconds"`
	DamageSeconds         float64 `json:"damage_seconds"`
	AbsorbedSeconds       float64 `json:"absorbed_seconds"`
	AnalyticDamageSeconds float64 `json:"analytic_damage_seconds"`
	DecayGeneration       int     `json:"decay_generation"`
}

// SweepResponse is the aggregated (non-streaming) sweep document.
type SweepResponse struct {
	Count  int         `json:"count"`
	Errors int         `json:"errors"`
	Best   *SweepPoint `json:"best,omitempty"` // minimum predicted time among clean points
	// NoiseTolerance is the best point's noise-sensitivity verdict when
	// the request swept noise_fracs.
	NoiseTolerance *NoiseToleranceBlock `json:"noise_tolerance,omitempty"`
	Points         []SweepPoint         `json:"points"`
}

// NoiseToleranceBlock is the noise-sensitivity verdict attached beside
// best: the damage-vs-noise-fraction curve of the winning configuration
// and the interpolated fraction at which its makespan inflation crosses
// resilience.NoiseToleranceThresholdPct. Capped marks curves that never
// cross (the score is then the largest swept fraction — a lower bound).
type NoiseToleranceBlock struct {
	Platform  string                  `json:"platform"`
	Array     ArraySpec               `json:"array"`
	Tolerance float64                 `json:"tolerance"`
	Capped    bool                    `json:"capped,omitempty"`
	Curve     []resilience.NoisePoint `json:"curve,omitempty"`
	Error     string                  `json:"error,omitempty"`
}

// noiseToleranceFor computes the aggregated sweep's noise-tolerance block
// on the best point's configuration. Failure modes land in the block's
// Error field — a noise-curve problem must not retract an already
// computed sweep.
func (s *Server) noiseToleranceFor(r *http.Request, q *PredictRequest, sw *SweepRequest) *NoiseToleranceBlock {
	blk := &NoiseToleranceBlock{Platform: platformName(q), Array: q.Array}
	if !pace.UsesTemplate(q.toConfig()) {
		blk.Error = fmt.Sprintf("noise curve requires the template path (%d ranks > %d)",
			q.Array.PX*q.Array.PY, pace.TemplateMaxRanks)
		return blk
	}
	ev, err := s.evaluatorFor(q)
	if err != nil {
		blk.Error = err.Error()
		return blk
	}
	if err := s.acquire(r); err != nil {
		blk.Error = "cancelled while queued: " + err.Error()
		return blk
	}
	defer s.release()
	curve, tol, capped, err := resilience.NoiseCurve(ev, q.toConfig(), sw.NoiseKind, sw.NoiseSeed, sw.NoiseFracs)
	if err != nil {
		blk.Error = err.Error()
		return blk
	}
	blk.Curve, blk.Tolerance, blk.Capped = curve, tol, capped
	return blk
}

// expand builds the canonical per-point predict requests. Structural
// problems (nothing to sweep, unknown platform, too many points) are
// request-level errors; per-point configuration validity is checked at
// evaluation time so one degenerate point doesn't reject the grid.
func (s *Server) expand(q *SweepRequest) ([]PredictRequest, error) {
	platforms := q.Platforms
	if q.PlatformSpec != nil {
		if len(platforms) > 0 || q.Platform != "" {
			return nil, errRequest("set either platform_spec or platform name(s), not both")
		}
		if s.customEvals == nil {
			return nil, errRequest("inline platform specs are disabled on this server")
		}
		if err := q.PlatformSpec.Validate(); err != nil {
			return nil, errRequest("%v", err)
		}
		platforms = []string{""} // the spec rides on every point below
	} else if len(platforms) == 0 {
		name := q.Platform
		if name == "" {
			name = s.cfg.Platforms[0]
		}
		platforms = []string{name}
	} else if q.Platform != "" {
		return nil, errRequest("set either platform or platforms, not both")
	}
	if q.PlatformSpec == nil {
		for _, name := range platforms {
			if !s.servesPlatform(name) {
				return nil, errRequest("unknown platform %q (serving %v)", name, s.cfg.Platforms)
			}
		}
	}
	if len(q.Arrays) == 0 {
		return nil, errRequest("arrays is required and must be non-empty")
	}
	// Explicit list entries must be valid — normalize()'s 0-means-default
	// convention is for omitted scalars and would silently rewrite a
	// listed 0 into the default blocking factor.
	mks := q.MK
	if len(mks) == 0 {
		mks = []int{10}
	}
	for _, mk := range mks {
		if mk <= 0 {
			return nil, errRequest("mk values must be positive, got %d", mk)
		}
	}
	mmis := q.MMI
	if len(mmis) == 0 {
		mmis = []int{3}
	}
	for _, mmi := range mmis {
		if mmi <= 0 {
			return nil, errRequest("mmi values must be positive, got %d", mmi)
		}
	}
	if q.Grid != nil && q.CellsPerProc != nil {
		return nil, errRequest("set either grid or cells_per_proc, not both")
	}
	// Knobs uniform across the whole grid fail the request, not every
	// point: a method typo on a 1000-point sweep must be a 400, not a 200
	// with 1000 identical per-point errors.
	switch q.Method {
	case "", MethodAuto, MethodTemplate, MethodClosedForm:
	default:
		return nil, errRequest("unknown method %q (want %q, %q or %q)",
			q.Method, MethodAuto, MethodTemplate, MethodClosedForm)
	}
	if q.Scenario != nil && q.Method == MethodClosedForm {
		return nil, errRequest("scenario requires template evaluation; method %q cannot inject faults", MethodClosedForm)
	}
	// Noise-sweep knobs are uniform across the grid: reject bad ones at
	// request level, like method typos above.
	if len(q.NoiseFracs) > resilience.MaxNoiseFracs {
		return nil, errRequest("%d noise fractions exceed the %d limit", len(q.NoiseFracs), resilience.MaxNoiseFracs)
	}
	for _, f := range q.NoiseFracs {
		if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, errRequest("noise fraction %v must be finite and non-negative", f)
		}
	}
	if q.NoiseKind != "" {
		if _, err := (&perturb.NoiseSpec{Kind: q.NoiseKind}).Model(); err != nil {
			return nil, errRequest("%v", err)
		}
	}
	if q.Angles < 0 || q.Iterations < 0 {
		return nil, errRequest("angles and iterations must be non-negative")
	}
	perProc := GridSpec{NX: 50, NY: 50, NZ: 50}
	if q.CellsPerProc != nil {
		perProc = *q.CellsPerProc
	}
	if g := q.Grid; g != nil && (g.NX <= 0 || g.NY <= 0 || g.NZ <= 0) {
		return nil, errRequest("grid extents must be positive: %dx%dx%d", g.NX, g.NY, g.NZ)
	}
	if perProc.NX <= 0 || perProc.NY <= 0 || perProc.NZ <= 0 {
		return nil, errRequest("cells_per_proc extents must be positive: %dx%dx%d", perProc.NX, perProc.NY, perProc.NZ)
	}

	total := len(platforms) * len(q.Arrays) * len(mks) * len(mmis)
	if total > s.cfg.MaxSweepPoints {
		return nil, errRequest("sweep expands to %d points, limit %d", total, s.cfg.MaxSweepPoints)
	}
	points := make([]PredictRequest, 0, total)
	for _, name := range platforms {
		for _, arr := range q.Arrays {
			var g GridSpec
			if q.Grid != nil {
				g = *q.Grid
			} else {
				g = GridSpec{NX: perProc.NX * arr.PX, NY: perProc.NY * arr.PY, NZ: perProc.NZ}
			}
			for _, mk := range mks {
				for _, mmi := range mmis {
					p := PredictRequest{
						Platform: name, PlatformSpec: q.PlatformSpec,
						Grid: g, Array: arr,
						MK: mk, MMI: mmi,
						Angles: q.Angles, Iterations: q.Iterations, Method: q.Method,
					}
					p.normalize(s.cfg.Platforms[0])
					points = append(points, p)
				}
			}
		}
	}
	if q.Scenario != nil {
		// Scenario knobs uniform across the grid (iteration index, delay
		// sign, noise kind) fail the request; rank bounds are checked
		// against the largest array so only genuinely per-point rank
		// overflow falls through to per-point errors.
		maxRanks := 0
		for _, arr := range q.Arrays {
			if n := arr.PX * arr.PY; n > maxRanks {
				maxRanks = n
			}
		}
		if err := q.Scenario.Validate(maxRanks, points[0].Iterations); err != nil {
			return nil, errRequest("scenario: %v", err)
		}
	}
	return points, nil
}

// requestError marks a 400-class sweep failure.
type requestError struct{ msg string }

func (e requestError) Error() string { return e.msg }

func errRequest(format string, args ...any) error {
	return requestError{msg: fmt.Sprintf(format, args...)}
}

// evaluatePoint runs one canonical point, converting every failure mode
// into the point's Error field. The global evaluation semaphore is held
// only around the model evaluation itself.
//
// Cache route, top to bottom, under the same fingerprint /v1/predict
// uses: response-byte LRU (a repeated point costs one lookup and one
// unmarshal), then the evaluator's prediction memo (marshalled into the
// response cache on the way out, so the next repeat — and /v1/predict
// itself — hits bytes), then the cold singleflight evaluation.
func (s *Server) evaluatePoint(r *http.Request, i int, q *PredictRequest, sc *perturb.Scenario) SweepPoint {
	pt := newSweepPoint(i, q)
	if err := q.validate(); err != nil {
		pt.Error = err.Error()
		return pt
	}
	if sc != nil {
		// Perturbed points never touch the response cache in either
		// direction: the report is a live baseline+perturbed replay pair,
		// and the clean predict bytes under this fingerprint must not be
		// confused with a perturbation result.
		return s.perturbPoint(r, pt, q, sc)
	}
	if s.responses != nil {
		if body, hit := s.responses.Peek(q.key()); hit {
			s.st.sweep.cacheHits.Add(1)
			return pointFromBody(pt, body)
		}
	}
	ev, err := s.evaluatorFor(q)
	if err != nil {
		pt.Error = err.Error()
		return pt
	}
	// Memo hits bypass the evaluation semaphore, like /v1/predict's.
	if p, ok := cachedPrediction(ev, q.toConfig(), q.Method); ok {
		pt.PredictedSeconds = p.Total
		pt.Method = p.Method
		if s.responses != nil {
			if body, err := marshalPredictResponse(q, &p); err == nil {
				s.responses.Put(q.key(), body)
			}
		}
		return pt
	}

	evaluate := func() (*pace.Prediction, error) {
		if err := s.acquire(r); err != nil {
			return nil, fmt.Errorf("cancelled while queued: %w", err)
		}
		defer s.release()
		return s.evaluate(ev, q.toConfig(), q.Method)
	}
	if s.responses == nil {
		pred, err := evaluate()
		if err != nil {
			pt.Error = err.Error()
			return pt
		}
		pt.PredictedSeconds = pred.Total
		pt.Method = pred.Method
		return pt
	}
	// Cold points go through the response cache's singleflight under the
	// same fingerprint /v1/predict uses: identical points of concurrent
	// sweeps coalesce onto one evaluation, and every evaluated point
	// warms the predict endpoint's byte cache. The marshal/unmarshal
	// round trip costs microseconds against a millisecond-plus
	// evaluation.
	body, err := s.responses.GetOrBuild(q.key(), func() ([]byte, error) {
		pred, err := evaluate()
		if err != nil {
			return nil, err
		}
		return marshalPredictResponse(q, pred)
	})
	if err != nil {
		pt.Error = err.Error()
		return pt
	}
	return pointFromBody(pt, body)
}

// perturbPoint runs a sweep point's fault-injection scenario and digests
// the report: PredictedSeconds is the matched baseline (bit-equal to the
// clean template prediction), Perturbation carries the damage numbers.
// Rank bounds are validated per point here — expand only guaranteed the
// scenario fits the largest array in the sweep.
func (s *Server) perturbPoint(r *http.Request, pt SweepPoint, q *PredictRequest, sc *perturb.Scenario) SweepPoint {
	ev, err := s.evaluatorFor(q)
	if err != nil {
		pt.Error = err.Error()
		return pt
	}
	if err := s.acquire(r); err != nil {
		pt.Error = "cancelled while queued: " + err.Error()
		return pt
	}
	defer s.release()
	rep, err := perturb.Run(ev, q.toConfig(), *sc, false)
	if err != nil {
		pt.Error = err.Error()
		return pt
	}
	pt.PredictedSeconds = rep.BaselineSeconds
	pt.Method = MethodTemplate
	pt.Perturbation = &PerturbSummary{
		PerturbedSeconds:      rep.PerturbedSeconds,
		DamageSeconds:         rep.DamageSeconds,
		AbsorbedSeconds:       rep.AbsorbedSeconds,
		AnalyticDamageSeconds: rep.AnalyticDamageSeconds,
		DecayGeneration:       rep.DecayGeneration,
	}
	return pt
}

// newSweepPoint echoes point i's configuration, before evaluation.
func newSweepPoint(i int, q *PredictRequest) SweepPoint {
	return SweepPoint{Index: i, Platform: platformName(q), Grid: q.Grid, Array: q.Array, MK: q.MK, MMI: q.MMI}
}

// pointFromBody fills a sweep point from canonical cached response bytes.
func pointFromBody(pt SweepPoint, body []byte) SweepPoint {
	var resp PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		pt.Error = "decoding cached response: " + err.Error()
		return pt
	}
	pt.PredictedSeconds = resp.PredictedSeconds
	pt.Method = resp.Method
	return pt
}

// sweepGroupKey identifies sweep points that share a compiled trace shape
// (and platform, hence evaluator caches): all such points replay one
// script under different cost tables, so batching them onto one worker
// shares the compiled trace, the warmed replayer and the kernel cache.
type sweepGroupKey struct {
	platform   string
	specFP     uint64 // inline-spec identity (0 for named platforms)
	px, py     int
	nab, nkb   int
	iterations int
	method     string
}

func sweepGroupOf(q *PredictRequest) sweepGroupKey {
	// The block counts come from pace.Config — the same formulas the trace
	// cache's shape key is built from — so grouping can never drift from
	// what actually shares a compiled script. expand has already rejected
	// non-positive MK/MMI.
	cfg := q.toConfig()
	var fp uint64
	if q.PlatformSpec != nil {
		fp = q.PlatformSpec.Fingerprint()
	}
	return sweepGroupKey{
		platform:   q.Platform,
		specFP:     fp,
		px:         q.Array.PX,
		py:         q.Array.PY,
		nab:        cfg.AngleBlocks(),
		nkb:        cfg.KBlocks(),
		iterations: q.Iterations,
		method:     q.Method,
	}
}

// batchSweep groups point indices shape-major and cuts each group into
// bounded spans: one span never crosses a shape boundary (so a worker
// processing it shares the compiled trace end to end), and spans are small
// enough that even a single-shape sweep spreads across the whole worker
// pool.
func (s *Server) batchSweep(points []PredictRequest, workers int) (spans [][]int) {
	n := len(points)
	groups := make(map[sweepGroupKey][]int)
	var keyOrder []sweepGroupKey
	for i := range points {
		k := sweepGroupOf(&points[i])
		if _, ok := groups[k]; !ok {
			keyOrder = append(keyOrder, k)
		}
		groups[k] = append(groups[k], i)
	}
	// Bound spans so workers*4 units exist even for one giant group.
	chunk := max(1, (n+workers*4-1)/(workers*4))
	maxGroup := 0
	for _, k := range keyOrder {
		idxs := groups[k]
		maxGroup = max(maxGroup, len(idxs))
		for lo := 0; lo < len(idxs); lo += chunk {
			spans = append(spans, idxs[lo:min(lo+chunk, len(idxs))])
		}
	}
	s.st.observeSweepBatch(len(keyOrder), n, maxGroup)
	return spans
}

// runSweep fans the points out on the sweep worker pool, batched by trace
// shape (batchSweep).
func (s *Server) runSweep(r *http.Request, points []PredictRequest, sc *perturb.Scenario) (results []SweepPoint, ready []chan struct{}, finished chan struct{}) {
	workers := min(s.cfg.SweepWorkers, len(points))
	return fanOut(r.Context(), workers, s.batchSweep(points, workers),
		func(i int) SweepPoint { return s.evaluatePoint(r, i, &points[i], sc) },
		func(i int, err error) SweepPoint {
			pt := newSweepPoint(i, &points[i])
			pt.Error = "cancelled: " + err.Error()
			return pt
		})
}

// handleSweep is POST /v1/sweep.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) (ok bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	var q SweepRequest
	if err := decodeJSON(r, &q); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	points, err := s.expand(&q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	// A sweep proxies only when every platform in the grid routes to the
	// same peer; mixed-owner sweeps are served where they landed.
	if done, ok := s.maybeProxy(w, r, sweepRouteFingerprints(s, points), &q, q.Stream); done {
		return ok
	}
	if !s.admit(w, &s.st.sweep) {
		return false
	}

	results, ready, finished := s.runSweep(r, points, q.Scenario)
	if q.Stream {
		return streamNDJSON(w, r, results, ready, finished)
	}
	<-finished
	resp := SweepResponse{Count: len(results), Points: results}
	for i := range results {
		pt := &results[i]
		if pt.Error != "" {
			resp.Errors++
			continue
		}
		if resp.Best == nil || pt.PredictedSeconds < resp.Best.PredictedSeconds {
			resp.Best = pt
		}
	}
	if len(q.NoiseFracs) > 0 && resp.Best != nil {
		resp.NoiseTolerance = s.noiseToleranceFor(r, &points[resp.Best.Index], &q)
	}
	return writeJSON(w, http.StatusOK, &resp) == nil
}
