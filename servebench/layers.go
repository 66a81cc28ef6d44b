package main

// The traced run's per-layer metrics. Spans and counts come from the
// benchmark's own code only: a handler wrapper around serve.Server's
// ServeHTTP, direct calls into each layer's public functions (JSON decode
// and encode of the serve types, pace.Evaluator.Predict, perturb.Run,
// Evaluator.TraceFor), and deltas of the counters the program exposes
// (/v1/stats, the pace stats functions, runtime.ReadMemStats).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"pacesweep/internal/experiments"
	"pacesweep/internal/mp"
	"pacesweep/internal/pace"
	"pacesweep/internal/perturb"
	"pacesweep/internal/serve"
)

// Layer-pass sizes: how much of the timed list is recomputed through
// direct layer calls, bounding the traced run's length.
const (
	hotLayerKeys    = 60 // predict_hot warm keys predicted directly
	sweepLayerCount = 20 // first 20 sweep_perturb requests
	perturbSamples  = 20 // perturb.Run calls on the predict workloads
)

// probeScenario is the delay-plus-noise scenario perturb.Run is timed with
// on the predict workloads (sweep_perturb uses each request's own).
var probeScenario = perturb.Scenario{
	Seed:   1,
	Delays: []perturb.DelaySpec{{Rank: 1, Iteration: 2, Seconds: 3}},
	Noise:  &perturb.NoiseSpec{Kind: "uniform", Frac: 0.02},
}

// layerIndices lists the timed requests the layer pass recomputes.
func layerIndices(p *Plan) []int {
	var out []int
	switch p.Workload {
	case PredictReplay:
		// The first half: the class schedule spreads every class evenly,
		// so it has the whole list's composition.
		for i := 0; i < (len(p.Timed)+1)/2; i++ {
			out = append(out, i)
		}
	case SweepPerturb:
		for i := 0; i < len(p.Timed) && i < sweepLayerCount; i++ {
			out = append(out, i)
		}
	}
	return out
}

// layerInput gathers what the per-layer report is computed from.
type layerInput struct {
	untraced, traced *timedRun
	spans            *handlerSpans
	chk              *checker  // the traced pass's checker, holding layer-pass bodies
	setup            *setupRun // the traced pass's set-up
	fit, compile     float64   // median set-up fitting and trace-compile seconds
}

// layerTimes accumulates the direct layer calls.
type layerTimes struct {
	decode, encode, predict, perturb []float64 // ms per call
	extrapolated                     int
	replayNs, replayFusedOps         float64 // 12-iteration predicts
	perturbNs, perturbOps            float64
	attributed                       map[int]float64 // ms per timed index
}

// perLayer adds every per-layer metric to rep.
func (b *bench) perLayer(rep *report, in layerInput) error {
	n := len(b.plan.Timed)
	traces := map[shapeKey]*mp.Trace{}
	var scriptOps, fusedOps, macroOps float64
	for j, cfg := range b.plan.Shapes {
		t := in.setup.traces[j]
		traces[shapeOf(cfg, false)] = t
		scriptOps += float64(t.Ops())
		fusedOps += float64(t.FusedOps())
		macroOps += float64(t.MacroOps())
	}
	lt, err := b.layerPass(in, traces)
	if err != nil {
		return err
	}

	// serve: handler spans from the traced pass.
	var handler, overhead []float64
	var handlerSum, attrSum float64
	for i := 0; i < n; i++ {
		h := in.spans.get(i)
		if in.traced.ph.failed[i] || h == 0 {
			continue
		}
		handler = append(handler, ms(h))
		overhead = append(overhead, ms(in.traced.ph.latency[i]-h))
		if a, ok := lt.attributed[i]; ok {
			handlerSum += ms(h)
			attrSum += a
		}
	}
	attrN := len(lt.attributed)
	rep.add("serve.handler_p50_ms", median(handler), "ms", fmt.Sprintf("time inside Server.ServeHTTP, p50 of n=%d", len(handler)))
	rep.add("serve.handler_p90_ms", percentileOf(handler, 90), "ms", fmt.Sprintf("p90 of n=%d", len(handler)))
	rep.add("http.roundtrip_overhead_p50_ms", median(overhead), "ms", "client latency minus handler time, p50")
	rep.add("serve.decode_p50_ms", median(lt.decode), "ms", fmt.Sprintf("strict JSON decode of the request, n=%d", len(lt.decode)))
	rep.add("serve.encode_p50_ms", median(lt.encode), "ms", fmt.Sprintf("JSON encode of the reply, n=%d", len(lt.encode)))
	rep.add("serve.unexplained_share", ratio(handlerSum-attrSum, handlerSum), "ratio",
		fmt.Sprintf("handler time not covered by the direct layer calls, over n=%d requests", attrN))
	rep.add("serve.unexplained_ms_per_request", ratio(handlerSum-attrSum, float64(attrN)), "ms",
		"mean handler time minus decode, predict or perturb, and encode")

	// serve and pace counters over the untraced timed pass.
	a, z := in.untraced.before, in.untraced.after
	d := deltas(a, z)
	rep.add("serve.response_cache_hit_ratio", ratio(d.responseHits, float64(n)), "ratio", "timed requests answered from the response cache")
	rep.add("serve.memo_hit_ratio", ratio(d.memoHits, d.memoLookups), "ratio",
		fmt.Sprintf("prediction memo hits over %g lookups (0 when none)", d.memoLookups))
	rep.add("serve.sweep_points_per_request",
		ratio(float64(z.stats.SweepBatching.PointsTotal-a.stats.SweepBatching.PointsTotal), float64(n)), "points/request", "")
	rep.add("serve.sweep_batch_groups",
		ratio(float64(z.stats.SweepBatching.GroupsTotal-a.stats.SweepBatching.GroupsTotal), float64(n)), "groups/request",
		"trace-shape groups per sweep")
	rep.add("experiments.fit_s", in.fit, "s", "FitModel + EvaluatorFromModel, median over set-ups")
	rep.add("pace.trace_compile_s", in.compile, "s",
		fmt.Sprintf("Evaluator.TraceFor after FlushTraceCache over %d shapes, median over set-ups", len(b.plan.Shapes)))
	rep.add("pace.trace_cache_hit_ratio", ratio(d.traceHits, d.traceLookups), "ratio",
		fmt.Sprintf("trace cache hits over %g lookups in the timed phase (0 when none)", d.traceLookups))
	rep.add("pace.predict_p50_ms", median(lt.predict), "ms", fmt.Sprintf("Evaluator.Predict without memo, n=%d", len(lt.predict)))
	rep.add("pace.extrapolated_share", ratio(float64(lt.extrapolated), float64(len(lt.predict))), "ratio",
		"predictions with ExtrapolatedIterations > 0")
	rep.add("pace.replays_per_request", ratio(d.replays, float64(n)), "replays/request", "")
	rep.add("perturb.run_p50_ms", median(lt.perturb), "ms", fmt.Sprintf("perturb.Run, n=%d", len(lt.perturb)))

	// mp: exact op counts of the workload's compiled shapes, and per-op
	// costs of the direct calls.
	rep.add("mp.script_ops", scriptOps, "count", "Trace.Ops summed over the shapes")
	rep.add("mp.fused_ops", fusedOps, "count", "Trace.FusedOps summed over the shapes")
	rep.add("mp.macro_ops", macroOps, "count", "Trace.MacroOps summed over the shapes")
	rep.add("mp.replay_ns_per_fused_op", ratio(lt.replayNs, lt.replayFusedOps), "ns/op",
		"12-iteration Predict time over the fused ops it replays")
	rep.add("mp.perturbed_ns_per_op", ratio(lt.perturbNs, lt.perturbOps), "ns/op",
		"perturb.Run time over its two scalar replays' ops")
	rep.add("mp.compile_ns_per_op", ratio(in.compile*1e9, scriptOps), "ns/op", "trace compile time over script ops")

	// runtime: deltas over the untraced timed pass.
	rep.add("runtime.alloc_bytes_per_request", ratio(float64(z.mem.TotalAlloc-a.mem.TotalAlloc), float64(n)), "B/request", "")
	rep.add("runtime.allocs_per_request", ratio(float64(z.mem.Mallocs-a.mem.Mallocs), float64(n)), "allocs/request", "")
	rep.add("runtime.gc_cycles", float64(z.mem.NumGC-a.mem.NumGC), "count", "GC cycles during the timed phase")
	rep.add("runtime.gc_pause_total_ms", float64(z.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6, "ms", "")

	u, t := in.untraced.ph.elapsed.Seconds(), in.traced.ph.elapsed.Seconds()
	rep.add("bench.tracing_overhead_share", (t-u)/u, "ratio",
		fmt.Sprintf("traced %.3fs vs untraced %.3fs for the same list", t, u))
	return nil
}

// counterDeltas are the guarded counters' changes over a timed phase.
type counterDeltas struct {
	responseHits            float64 // response-cache hits, predict and sweep
	memoHits, memoLookups   float64
	traceHits, traceLookups float64
	replays                 float64
}

func deltas(a, z *counters) counterDeltas {
	ma, mz := a.stats.Evaluators[platformName].Memo, z.stats.Evaluators[platformName].Memo
	return counterDeltas{
		responseHits: float64(z.stats.Endpoints["predict"].CacheHits - a.stats.Endpoints["predict"].CacheHits +
			z.stats.Endpoints["sweep"].CacheHits - a.stats.Endpoints["sweep"].CacheHits),
		memoHits:     float64(mz.Hits - ma.Hits),
		memoLookups:  float64(mz.Hits - ma.Hits + mz.Misses - ma.Misses),
		traceHits:    float64(z.traces.Hits - a.traces.Hits),
		traceLookups: float64(z.traces.Hits - a.traces.Hits + z.traces.Misses - a.traces.Misses),
		replays:      float64(z.replays - a.replays),
	}
}

// checkGuards reports a timed phase that did not measure its workload's
// intended layer: on predict_hot every request must be a response-cache
// hit that makes no pace or mp call; on predict_replay no request may hit
// the response cache or the memo; on predict_replay and sweep_perturb the
// phase must look traces up and every lookup must hit, so no trace is
// compiled while timed.
func checkGuards(p *Plan, a, z *counters) error {
	d := deltas(a, z)
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	switch p.Workload {
	case PredictHot:
		if n := float64(len(p.Timed)); d.responseHits != n {
			fail("serve.response_cache_hit_ratio = %g, want 1", d.responseHits/n)
		}
		if d.traceLookups != 0 || d.replays != 0 {
			fail("%g trace lookups and %g replays in the timed phase, want none", d.traceLookups, d.replays)
		}
	case PredictReplay:
		if d.responseHits != 0 || d.memoHits != 0 {
			fail("%g response-cache and %g memo hits in the timed phase, want none", d.responseHits, d.memoHits)
		}
	}
	if p.Workload != PredictHot && (d.traceLookups == 0 || d.traceHits != d.traceLookups) {
		fail("pace.trace_cache_hit_ratio = %g over %g lookups, want 1", ratio(d.traceHits, d.traceLookups), d.traceLookups)
	}
	return errors.Join(errs...)
}

// layerPass calls each layer directly on the workload's requests, with a
// fresh evaluator (no memo, cold kernel cache) fitted from the traced
// set-up's model.
func (b *bench) layerPass(in layerInput, traces map[shapeKey]*mp.Trace) (*layerTimes, error) {
	ev, err := experiments.EvaluatorFromModel(in.setup.inst.model)
	if err != nil {
		return nil, err
	}
	lt := &layerTimes{attributed: map[int]float64{}}
	p := b.plan
	switch p.Workload {
	case PredictHot:
		decode := make([]float64, len(p.Warm))
		for k, body := range p.Warm {
			d, err := timeDecode(body, new(serve.PredictRequest))
			if err != nil {
				return nil, err
			}
			decode[k] = d
			lt.decode = append(lt.decode, d)
			e, err := timeEncode(in.setup.warm[k], new(serve.PredictResponse))
			if err != nil {
				return nil, err
			}
			lt.encode = append(lt.encode, e)
		}
		// A cache hit decodes, fingerprints, looks up and writes; only
		// the decode is attributed.
		for i, k := range p.Keys {
			lt.attributed[i] = decode[k]
		}
		var probe []pace.Config
		for k := 0; k < len(p.WarmRequests) && k < hotLayerKeys; k++ {
			cfg := predictConfig(p.WarmRequests[k])
			if _, err := lt.predictOne(ev, cfg, traces); err != nil {
				return nil, err
			}
			if cfg.Iterations == canonIters && len(probe) < perturbSamples {
				probe = append(probe, cfg)
			}
		}
		for _, cfg := range probe {
			if _, err := lt.perturbOne(ev, cfg, probeScenario, traces); err != nil {
				return nil, err
			}
		}
	case PredictReplay:
		var probe []pace.Config
		for _, i := range layerIndices(p) {
			d, err := timeDecode(p.Timed[i], new(serve.PredictRequest))
			if err != nil {
				return nil, err
			}
			cfg := predictConfig(p.Predicts[i])
			pm, err := lt.predictOne(ev, cfg, traces)
			if err != nil {
				return nil, err
			}
			body := in.chk.body(i)
			if body == nil {
				continue // failed in the traced pass
			}
			e, err := timeEncode(body, new(serve.PredictResponse))
			if err != nil {
				return nil, err
			}
			lt.decode = append(lt.decode, d)
			lt.encode = append(lt.encode, e)
			lt.attributed[i] = d + pm + e
			if cfg.Iterations == canonIters && cfg.Decomp.Size() == 32*32 && len(probe) < 2 {
				probe = append(probe, cfg)
			}
		}
		for _, cfg := range probe {
			if _, err := lt.perturbOne(ev, cfg, probeScenario, traces); err != nil {
				return nil, err
			}
		}
	case SweepPerturb:
		for _, i := range layerIndices(p) {
			q := &p.Sweeps[i]
			d, err := timeDecode(p.Timed[i], new(serve.SweepRequest))
			if err != nil {
				return nil, err
			}
			var work float64
			for _, cfg := range sweepPoints(q) {
				if _, err := lt.predictOne(ev, cfg, traces); err != nil {
					return nil, err
				}
				pm, err := lt.perturbOne(ev, cfg, *q.Scenario, traces)
				if err != nil {
					return nil, err
				}
				work += pm
			}
			body := in.chk.body(i)
			if body == nil {
				continue
			}
			e, err := timeEncode(body, new(serve.SweepResponse))
			if err != nil {
				return nil, err
			}
			lt.decode = append(lt.decode, d)
			lt.encode = append(lt.encode, e)
			// The server's sweep workers split the points' perturbed
			// replays between them.
			lt.attributed[i] = d + work/2 + e
		}
	}
	return lt, nil
}

// predictOne times Evaluator.Predict and returns its milliseconds.
func (lt *layerTimes) predictOne(ev *pace.Evaluator, cfg pace.Config, traces map[shapeKey]*mp.Trace) (float64, error) {
	start := time.Now()
	pred, err := ev.Predict(cfg)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	lt.predict = append(lt.predict, ms(d))
	if pred.ExtrapolatedIterations > 0 {
		lt.extrapolated++
	}
	if cfg.Iterations == canonIters {
		if t := traces[shapeOf(cfg, false)]; t != nil {
			lt.replayNs += float64(d)
			lt.replayFusedOps += float64(t.FusedOps())
		}
	}
	return ms(d), nil
}

// perturbOne times perturb.Run (a baseline and a perturbed replay) and
// returns its milliseconds.
func (lt *layerTimes) perturbOne(ev *pace.Evaluator, cfg pace.Config, sc perturb.Scenario, traces map[shapeKey]*mp.Trace) (float64, error) {
	start := time.Now()
	_, err := perturb.Run(ev, cfg, sc, false)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	lt.perturb = append(lt.perturb, ms(d))
	if t := traces[shapeOf(cfg, true)]; t != nil {
		lt.perturbNs += float64(d)
		lt.perturbOps += 2 * float64(t.Ops())
	}
	return ms(d), nil
}

// timeDecode times the strict decode paceserve applies to a request body.
func timeDecode(body []byte, dst any) (float64, error) {
	start := time.Now()
	err := decodeStrict(body, dst)
	return ms(time.Since(start)), err
}

// timeEncode decodes a reply body into dst and times encoding it again the
// way the server does: compact for predict replies, indented for sweeps.
func timeEncode(body []byte, dst any) (float64, error) {
	if err := json.Unmarshal(body, dst); err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if _, sweep := dst.(*serve.SweepResponse); sweep {
		enc.SetIndent("", "  ")
	}
	start := time.Now()
	err := enc.Encode(dst)
	d := ms(time.Since(start))
	if err == nil && !bytes.Equal(buf.Bytes(), body) {
		err = fmt.Errorf("re-encoded reply differs from the served bytes")
	}
	return d, err
}
