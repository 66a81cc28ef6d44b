package pace

// The trace tier: Predict's default evaluation path. A configuration's
// communication *script* — which ranks exchange which messages in which
// order — depends only on its shape (processor array, angle/k blocking,
// iteration count), not on the platform or the cost curves; those enter
// only as the parameter tables the ops index. So the script is compiled
// once per shape into an mp.Trace and replayed per prediction point with
// the point's own kernel tables and fitted network model: a sweep over
// platforms and cost curves pays one compilation per shape and a
// goroutine-free, channel-free, allocation-free replay per point.
//
// The compile is a class compile (mp.CompileClasses). The contract pace
// keeps is that templateBody's delta-encoded op stream for a rank depends
// only on the rank's boundary class (templateClass: first, interior or
// last in x and in y), so the body runs once for the lowest rank of each
// of at most nine classes, with no clocks, queues or parameter tables,
// and every other rank shares its class's script. The trace is field for
// field the one a recording run of every rank would give
// (TestClassCompileMatchesRecorded), because traces number their chunks
// in canonical first-appearance order rather than in the order a run
// happened to intern them.
//
// The trace cache is process-global — deliberately wider than the
// per-evaluator cache block (evalShared) — because traces are
// evaluator-independent: paceserve's per-platform evaluators all replay
// the same compiled shapes. Replayers, by contrast, carry mutable replay
// state and are pooled per evaluator family beside the kernel cache.

import (
	"errors"
	"sync/atomic"

	"pacesweep/internal/grid"
	"pacesweep/internal/lru"
	"pacesweep/internal/mp"
)

// traceKey is the configuration shape that determines the communication
// script. Message sizes and compute costs are parameters of replay, so
// mk/mmi/angles/grid enter only through the block counts. ckptEvery is
// the checkpoint period (0: no checkpoint ops): checkpoints add ops to
// the script, but their *cost* stays a replay parameter, so one
// checkpointed trace serves every checkpoint-seconds value.
type traceKey struct {
	px, py     int
	nab, nkb   int
	iterations int
	ckptEvery  int
}

func (k traceKey) hash() uint64 {
	h := lru.NewHasher()
	h.Int(k.px)
	h.Int(k.py)
	h.Int(k.nab)
	h.Int(k.nkb)
	h.Int(k.iterations)
	h.Int(k.ckptEvery)
	return h.Sum()
}

// DefaultTraceCacheEntries bounds the global compiled-trace cache. Traces
// are shape-deduplicated internally (interned chunks), so even large-array
// entries are a few MB; typical sweep workloads touch a handful of shapes.
const DefaultTraceCacheEntries = 128

var traceCache = lru.New[traceKey, *mp.Trace](DefaultTraceCacheEntries, 8, traceKey.hash)

// FlushTraceCache drops every compiled trace from the process-global
// cache. It exists for cold-vs-warm experiments (simulating a process
// restart without one): not intended for concurrent use with evaluation.
func FlushTraceCache() {
	traceCache = lru.New[traceKey, *mp.Trace](DefaultTraceCacheEntries, 8, traceKey.hash)
}

// cachedTrace returns the shape's trace from the process-global cache,
// compiling it on a miss. The cache's GetOrBuild coalesces concurrent
// misses of one shape, which makes the compile the once-per-shape point
// where the op-composition counters accumulate.
func cachedTrace(key traceKey) (*mp.Trace, error) {
	return traceCache.GetOrBuild(key, func() (*mp.Trace, error) {
		d := grid.Decomp{PX: key.px, PY: key.py}
		t, err := compileTrace(d, key.nab, key.nkb, key.iterations, key.ckptEvery)
		if err == nil {
			recordTraceOps(t)
		}
		return t, err
	})
}

// traceReplays counts trace replays served process-wide (each is one
// template evaluation that skipped the live backends entirely).
var traceReplays atomic.Uint64

// Steady-state extrapolation counters, process-wide like traceReplays:
// cycle replays ran on a trace with a detected steady cycle; extrapolated
// replays additionally skipped cycles analytically, and extrapolated
// iterations totals the skipped sweep iterations across them. Replayed
// cycles totals the steady cycles those replays executed op by op.
var (
	traceCycleReplays          atomic.Uint64
	traceExtrapolatedReplays   atomic.Uint64
	traceExtrapolatedIterCount atomic.Uint64
	traceReplayedCycles        atomic.Uint64
)

// TraceCacheStats snapshots the global compiled-trace cache counters:
// Entries is the number of resident compiled shapes, Hits the replays
// served from an already-compiled shape, Misses the compilations.
func TraceCacheStats() lru.Stats { return traceCache.Stats() }

// TraceReplays reports how many template evaluations have been served by
// trace replay process-wide.
func TraceReplays() uint64 { return traceReplays.Load() }

// TraceExtrapolationStats reports the steady-state cycle counters of the
// trace tier: how many replays ran with a detected cycle, how many of
// those extrapolated past the recorded horizon, the total iterations
// skipped analytically instead of replayed, and the total steady cycles
// replayed op by op (the per-replay cost that extrapolation leaves).
type TraceExtrapolationStats struct {
	CycleReplays           uint64 `json:"cycle_replays"`
	ExtrapolatedReplays    uint64 `json:"extrapolated_replays"`
	ExtrapolatedIterations uint64 `json:"extrapolated_iterations"`
	ReplayedCycles         uint64 `json:"replayed_cycles"`
}

// TraceExtrapolation snapshots the process-wide extrapolation counters.
func TraceExtrapolation() TraceExtrapolationStats {
	return TraceExtrapolationStats{
		CycleReplays:           traceCycleReplays.Load(),
		ExtrapolatedReplays:    traceExtrapolatedReplays.Load(),
		ExtrapolatedIterations: traceExtrapolatedIterCount.Load(),
		ReplayedCycles:         traceReplayedCycles.Load(),
	}
}

// Parallel fused replay counters, process-wide: fused replays that ran on
// more than one worker, and those that ran on one, by mp's reason
// (mp.ReplayStats.Serial). Perturbed replays are not fused replays and
// count in neither.
var (
	traceParallelReplays atomic.Uint64
	traceSerialReplays   [3]atomic.Uint64 // by serialReasons index
)

// serialReasons are the reasons mp gives for a serial fused replay, in the
// order of traceSerialReplays.
var serialReasons = [3]string{mp.SerialSmallTrace, mp.SerialNoIdleCPU, mp.SerialSharedMark}

// TraceParallelStats reports how the trace tier's fused replays were
// scheduled: Parallel ran on more than one worker, Serial on one, counted
// by reason (small_trace, no_idle_cpu, shared_mark).
type TraceParallelStats struct {
	Parallel uint64            `json:"parallel"`
	Serial   map[string]uint64 `json:"serial"`
}

// TraceParallelism snapshots the process-wide parallel replay counters.
func TraceParallelism() TraceParallelStats {
	s := TraceParallelStats{Parallel: traceParallelReplays.Load(), Serial: make(map[string]uint64, len(serialReasons))}
	for i, reason := range serialReasons {
		s.Serial[reason] = traceSerialReplays[i].Load()
	}
	return s
}

// countReplay records a finished replay in the trace tier's counters.
func countReplay(st mp.ReplayStats) {
	traceReplays.Add(1)
	if st.Workers > 1 {
		traceParallelReplays.Add(1)
		return
	}
	for i, reason := range serialReasons {
		if st.Serial == reason {
			traceSerialReplays[i].Add(1)
		}
	}
}

// Fused-program composition, cumulative over compiled shapes. Fusion changes what a replay dispatches — one
// macro op stands in for the canonical multi-op wavefront step — so op
// accounting distinguishes the scalar script from the fused program it
// compiles to, and macro ops within that.
var (
	traceScalarUniqueOps atomic.Uint64
	traceFusedUniqueOps  atomic.Uint64
	traceMacroUniqueOps  atomic.Uint64
)

// TraceOpStats reports the op composition of every shape the trace tier
// has compiled (cumulative, counted once per cache miss):
// ScalarUniqueOps is the interned scalar script size, FusedUniqueOps the
// interned fused-program size a deterministic replay dispatches, and
// MacroUniqueOps how many of those fused ops are macro-fused wavefront
// steps.
type TraceOpStats struct {
	ScalarUniqueOps uint64 `json:"scalar_unique_ops"`
	FusedUniqueOps  uint64 `json:"fused_unique_ops"`
	MacroUniqueOps  uint64 `json:"macro_unique_ops"`
}

// TraceOps snapshots the process-wide fused-program composition counters.
func TraceOps() TraceOpStats {
	return TraceOpStats{
		ScalarUniqueOps: traceScalarUniqueOps.Load(),
		FusedUniqueOps:  traceFusedUniqueOps.Load(),
		MacroUniqueOps:  traceMacroUniqueOps.Load(),
	}
}

// recordTraceOps accumulates a freshly compiled trace's op composition
// into the process-wide counters.
func recordTraceOps(t *mp.Trace) {
	traceScalarUniqueOps.Add(uint64(t.UniqueOps()))
	traceFusedUniqueOps.Add(uint64(t.FusedUniqueOps()))
	traceMacroUniqueOps.Add(uint64(t.MacroUniqueOps()))
}

// steadyCanonIters is the canonical recorded horizon for steady-state
// extrapolation: enough iterations for cycle detection (prefix + the
// minimum validated cycle run + suffix) with margin, small enough that
// one canonical trace replays quickly. Longer horizons replay this trace
// with ExtraCycles instead of compiling their own script.
const steadyCanonIters = 12

// evalTrace is the trace-tier template evaluation: compile (or fetch) the
// shape's script, then replay it under this evaluator's kernel tables and
// fitted network model. Clocks are bit-identical to the event backend.
//
// Long horizons canonicalise to the steadyCanonIters-iteration trace
// replayed with ExtraCycles — the replayer extrapolates the steady cycles
// analytically, so prediction cost is nearly independent of
// cfg.Iterations. The canonical path is a replay-time decision (the
// full-length trace key is untouched) and falls back to the full-length
// script whenever the cycle is unusable.
func (e *Evaluator) evalTrace(cfg Config, k *costKernel) (total, sweepOnly float64, extrapolated int, err error) {
	d := cfg.Decomp
	if cfg.Iterations > steadyCanonIters {
		total, sweepOnly, extrapolated, err = e.replayTraceShape(
			d, k, steadyCanonIters, cfg.Iterations-steadyCanonIters)
		if err == nil {
			return total, sweepOnly, extrapolated, nil
		}
		if !errors.Is(err, mp.ErrCannotExtrapolate) {
			return 0, 0, 0, err
		}
		// No usable steady cycle in this shape's script: replay in full.
	}
	return e.replayTraceShape(d, k, cfg.Iterations, 0)
}

// replayTraceShape fetches (or compiles) the shape's trace at the given
// recorded iteration count and replays it, extending the horizon by
// extraCycles steady cycles when requested. With extraCycles > 0 the
// trace must carry a period-1 steady cycle (one cycle per sweep
// iteration); anything else is mp.ErrCannotExtrapolate.
func (e *Evaluator) replayTraceShape(d grid.Decomp, k *costKernel, iterations, extraCycles int) (total, sweepOnly float64, extrapolated int, err error) {
	key := traceKey{px: d.PX, py: d.PY, nab: k.nab, nkb: k.nkb, iterations: iterations}
	t, err := cachedTrace(key)
	if err != nil {
		return 0, 0, 0, err
	}
	if extraCycles > 0 && (!t.CycleDetected() || t.CyclePeriod() != 1) {
		return 0, 0, 0, mp.ErrCannotExtrapolate
	}
	rp, release := e.acquireReplayer()
	defer release()
	err = rp.Replay(t, mp.Options{Net: e.HW.Net()},
		mp.ReplayParams{Charges: k.charges, Sizes: k.sizes, ExtraCycles: extraCycles})
	if err != nil {
		return 0, 0, 0, err
	}
	st := rp.Stats()
	countReplay(st)
	if st.CycleDetected {
		traceCycleReplays.Add(1)
		traceReplayedCycles.Add(uint64(st.ReplayedCycles))
	}
	if extraCycles > 0 {
		traceExtrapolatedReplays.Add(1)
		traceExtrapolatedIterCount.Add(uint64(extraCycles))
	}
	marks := rp.Marks()
	// The reported extrapolation is the *requested* horizon extension —
	// iterations beyond the canonical recorded script — which is a pure
	// function of the configuration. The replayer's replayed/extrapolated
	// cycle split is deterministic too, but it says how the cycle engine
	// covered the whole horizon, recorded cycles included, not how far the
	// request extended it.
	return rp.Makespan(), marks[1] - marks[0], extraCycles, nil
}

// compileTrace compiles the shape's script from its rank classes (see the
// top of this file). The ops carry only table indices and delta-encoded
// partners, so the trace is valid for every evaluator sharing the shape.
func compileTrace(d grid.Decomp, nab, nkb, iterations, ckptEvery int) (*mp.Trace, error) {
	return mp.CompileClasses(d.Size(), templateClass(d), templateBody(d, nab, nkb, iterations, ckptEvery))
}

// replayerPoolCap bounds idle pooled replayers per evaluator family; a
// replayer retains one trace's worth of cursor/stream state, so the cap is
// small.
const replayerPoolCap = 16

// acquireReplayer returns a pooled replayer and its release function.
// Without shared caches (zero-value Evaluator) it falls back to a fresh
// replayer per call.
func (e *Evaluator) acquireReplayer() (*mp.Replayer, func()) {
	if e.shared == nil {
		return mp.NewReplayer(), func() {}
	}
	s := e.shared
	s.mu.Lock()
	var rp *mp.Replayer
	if n := len(s.replayers); n > 0 {
		rp = s.replayers[n-1]
		s.replayers[n-1] = nil
		s.replayers = s.replayers[:n-1]
	}
	s.mu.Unlock()
	if rp == nil {
		rp = mp.NewReplayer()
	}
	return rp, func() {
		s.mu.Lock()
		if len(s.replayers) < replayerPoolCap {
			s.replayers = append(s.replayers, rp)
		}
		s.mu.Unlock()
	}
}
