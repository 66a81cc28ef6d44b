package main

// Output checks. Every timed reply must be 200 and parse; predict_hot
// bodies must equal their warm-up bodies byte for byte; a seeded sample of
// predict_replay and sweep_perturb replies must equal, byte for byte, the
// reply of a reference serve.Server running the event backend. A failed
// check marks the request failed.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"pacesweep/internal/serve"
)

// checker validates the timed replies of one plan and keeps copies of the
// bodies later stages need.
type checker struct {
	plan *Plan
	warm [][]byte     // predict_hot: the warm-up body of each key
	keep map[int]bool // timed indices whose bodies are kept

	mu   sync.Mutex
	kept map[int][]byte
}

func newChecker(plan *Plan, warm [][]byte, keep []int) *checker {
	c := &checker{plan: plan, warm: warm, keep: map[int]bool{}, kept: map[int][]byte{}}
	for _, i := range keep {
		c.keep[i] = true
	}
	return c
}

func (c *checker) check(i int, body []byte) error {
	var err error
	switch c.plan.Workload {
	case PredictHot:
		if !bytes.Equal(body, c.warm[c.plan.Keys[i]]) {
			err = errors.New("body differs from its warm-up body")
		}
	case PredictReplay:
		err = checkPredict(&c.plan.Predicts[i], body)
	case SweepPerturb:
		err = checkSweep(&c.plan.Sweeps[i], body)
	}
	if err == nil && c.keep[i] {
		c.mu.Lock()
		c.kept[i] = append([]byte(nil), body...)
		c.mu.Unlock()
	}
	return err
}

func (c *checker) body(i int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.kept[i]
}

// decodeStrict decodes one JSON document, rejecting unknown fields.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

func positive(v float64) bool { return v > 0 && !math.IsInf(v, 0) }

// checkPredict validates a /v1/predict reply against its request: the
// canonical request is echoed, the template engine answered, the
// prediction is a positive number, and the reported extrapolation is
// either none (full replay) or exactly the horizon beyond canonIters.
func checkPredict(q *serve.PredictRequest, body []byte) error {
	var r serve.PredictResponse
	if err := decodeStrict(body, &r); err != nil {
		return fmt.Errorf("decoding predict reply: %w", err)
	}
	switch {
	case r.Platform != q.Platform || r.Grid != q.Grid || r.Array != q.Array ||
		r.MK != q.MK || r.MMI != q.MMI || r.Angles != q.Angles || r.Iterations != q.Iterations:
		return fmt.Errorf("reply echoes another request: %+v", r)
	case r.Method != serve.MethodTemplate:
		return fmt.Errorf("method %q, want %q", r.Method, serve.MethodTemplate)
	case !positive(r.PredictedSeconds):
		return fmt.Errorf("predicted_seconds %v", r.PredictedSeconds)
	case r.ExtrapolatedIterations != 0 && r.ExtrapolatedIterations != q.Iterations-canonIters:
		return fmt.Errorf("extrapolated_iterations %d for %d iterations", r.ExtrapolatedIterations, q.Iterations)
	}
	return nil
}

// checkSweep validates a /v1/sweep reply: one error-free point per
// expanded configuration in the documented order, each with a
// perturbation digest whose damage is exactly perturbed minus baseline.
func checkSweep(q *serve.SweepRequest, body []byte) error {
	var r serve.SweepResponse
	if err := decodeStrict(body, &r); err != nil {
		return fmt.Errorf("decoding sweep reply: %w", err)
	}
	cfgs := sweepPoints(q)
	if r.Count != len(cfgs) || len(r.Points) != len(cfgs) || r.Errors != 0 || r.Best == nil {
		return fmt.Errorf("sweep reply has count %d, %d points, %d errors; want %d clean points",
			r.Count, len(r.Points), r.Errors, len(cfgs))
	}
	for j, pt := range r.Points {
		cfg := cfgs[j]
		switch {
		case pt.Index != j || pt.Array.PX != cfg.Decomp.PX || pt.Array.PY != cfg.Decomp.PY ||
			pt.MK != cfg.MK || pt.MMI != cfg.MMI:
			return fmt.Errorf("point %d is out of order: %+v", j, pt)
		case pt.Error != "" || pt.Perturbation == nil || !positive(pt.PredictedSeconds):
			return fmt.Errorf("point %d has no clean perturbation result: %+v", j, pt)
		case pt.Perturbation.DamageSeconds != pt.Perturbation.PerturbedSeconds-pt.PredictedSeconds:
			return fmt.Errorf("point %d damage %v != perturbed %v - baseline %v", j,
				pt.Perturbation.DamageSeconds, pt.Perturbation.PerturbedSeconds, pt.PredictedSeconds)
		}
	}
	return nil
}

// extrapolatedField is how a predict body spells its extrapolation count.
const extrapolatedField = `"extrapolated_iterations":`

// alignExtrapolation rewrites the reference body's extrapolation count to
// the one the trace tier reported. The event backend simulates every
// iteration and reports 0 by definition; every other byte must match.
func alignExtrapolation(ref, got []byte) ([]byte, error) {
	var r serve.PredictResponse
	if err := json.Unmarshal(got, &r); err != nil {
		return nil, err
	}
	zero := []byte(extrapolatedField + "0,")
	if bytes.Count(ref, zero) != 1 {
		return nil, fmt.Errorf("reference body lacks %s0", extrapolatedField)
	}
	return bytes.Replace(ref, zero, []byte(fmt.Sprintf("%s%d,", extrapolatedField, r.ExtrapolatedIterations)), 1), nil
}

// compareReference sends the plan's sample to a reference server on the
// event backend and marks every timed request whose body differs as
// failed. The reference is shut down before it returns.
func (b *bench) compareReference(ph *phase, chk *checker) error {
	ref, err := b.h.start("event", nil)
	if err != nil {
		return fmt.Errorf("starting the reference server: %w", err)
	}
	defer b.h.stop(ref)
	var buf bytes.Buffer
	for _, i := range b.plan.Sample {
		got := chk.body(i)
		if got == nil {
			continue // already failed
		}
		_, err := roundTrip(b.ctx, b.h.client, ref.url+b.plan.Path, b.plan.Timed[i], i, false, &buf)
		want := buf.Bytes()
		if err == nil && b.plan.Workload == PredictReplay {
			want, err = alignExtrapolation(want, got)
		}
		if err == nil && !bytes.Equal(got, want) {
			err = fmt.Errorf("body differs from the event-backend reference:\n got %s\nwant %s", got, want)
		}
		if err != nil {
			ph.failed[i] = true
			ph.errs = append(ph.errs, fmt.Errorf("reference check of request %d: %w", i, err))
		}
	}
	return nil
}
