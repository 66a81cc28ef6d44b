package serve

import (
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"pacesweep/internal/artifact"
	"pacesweep/internal/breaker"
	"pacesweep/internal/lru"
	"pacesweep/internal/pace"
	"pacesweep/internal/stats"
)

// latencyBounds are the request-latency histogram's bucket upper bounds
// in seconds; a final implicit +Inf bucket catches the rest. Model
// evaluations span ~microseconds (cache hit) to ~seconds (8000-rank
// template), so the bounds are log-spaced across that range.
var latencyBounds = stats.LatencyBounds{0.001, 0.005, 0.02, 0.1, 0.5, 2, 10}

// endpointStats is one endpoint's counter block. All fields are atomics:
// the hot path must not take locks for bookkeeping. The latency
// histogram's count is the endpoint's request count.
type endpointStats struct {
	errors      atomic.Uint64
	cacheHits   atomic.Uint64 // responses served from the response cache
	notModified atomic.Uint64 // empty 304s served off If-None-Match
	shed        atomic.Uint64 // 503s from admission control (queue full)
	latency     stats.Histogram
}

func (e *endpointStats) observe(d time.Duration, isErr bool) {
	if isErr {
		e.errors.Add(1)
	}
	e.latency.Observe(&latencyBounds, d)
}

// serverStats aggregates the server's operational counters.
type serverStats struct {
	inflight atomic.Int64
	// queued counts requests currently waiting for an evaluation slot; it
	// drives admission control (Config.MaxQueueDepth) and /readyz.
	queued     atomic.Int64
	predict    endpointStats
	sweep      endpointStats
	perturb    endpointStats
	resilience endpointStats

	// Sweep shape-batching telemetry (see sweep.go batchSweep).
	sweepBatchGroups atomic.Uint64 // shape groups dispatched, cumulative
	sweepBatchPoints atomic.Uint64 // points routed through batching
	sweepMaxGroup    atomic.Uint64 // largest single shape group ever seen

	// Shard-routing telemetry (see shardroute.go).
	shardLocal       atomic.Uint64 // routed requests this replica owned (or was forwarded)
	shardProxied     atomic.Uint64 // requests proxied to the owning peer
	shardProxyErrors atomic.Uint64 // proxy failures that fell back to local serving
}

// observeSweepBatch records one sweep's grouping outcome.
func (st *serverStats) observeSweepBatch(groups, points, maxGroup int) {
	st.sweepBatchGroups.Add(uint64(groups))
	st.sweepBatchPoints.Add(uint64(points))
	for {
		cur := st.sweepMaxGroup.Load()
		if uint64(maxGroup) <= cur || st.sweepMaxGroup.CompareAndSwap(cur, uint64(maxGroup)) {
			return
		}
	}
}

// EndpointSnapshot is one endpoint's block in the stats JSON.
type EndpointSnapshot struct {
	Requests            uint64              `json:"requests"`
	Errors              uint64              `json:"errors"`
	CacheHits           uint64              `json:"cache_hits"`
	NotModified         uint64              `json:"not_modified,omitempty"`
	Shed                uint64              `json:"shed,omitempty"`
	AvgLatencySeconds   float64             `json:"avg_latency_seconds"`
	TotalLatencySeconds float64             `json:"total_latency_seconds"`
	Latency             []stats.BucketCount `json:"latency"`
}

func (e *endpointStats) snapshot() EndpointSnapshot {
	h := e.latency.Snapshot(&latencyBounds)
	out := EndpointSnapshot{
		Requests:            h.Count,
		Errors:              e.errors.Load(),
		CacheHits:           e.cacheHits.Load(),
		NotModified:         e.notModified.Load(),
		Shed:                e.shed.Load(),
		TotalLatencySeconds: h.TotalSeconds,
		Latency:             h.Buckets,
	}
	if out.Requests > 0 {
		out.AvgLatencySeconds = out.TotalLatencySeconds / float64(out.Requests)
	}
	return out
}

// EvaluatorSnapshot is one fitted evaluator's cache block in the stats
// JSON: the prediction memo's sharded-LRU counters plus the idle replayer
// count and the kernel cache's counters.
type EvaluatorSnapshot struct {
	Memo lru.Stats      `json:"memo"`
	Pool pace.PoolStats `json:"pool"`
}

// SweepBatchSnapshot is the sweep shape-batching block of the stats JSON.
type SweepBatchSnapshot struct {
	GroupsTotal  uint64 `json:"groups_total"`
	PointsTotal  uint64 `json:"points_total"`
	MaxGroupSize uint64 `json:"max_group_size"`
}

// ShardSnapshot is the shard-routing block of the stats JSON: the ring
// shape, how routed traffic split between local serving and proxying, and
// the fleet-health outcome counters (see shardroute.go's decision tree).
type ShardSnapshot struct {
	Self          string   `json:"self"`
	Members       []string `json:"members"`
	RingSize      int      `json:"ring_size"` // virtual nodes on the ring
	OwnedFraction float64  `json:"owned_fraction"`
	Local         uint64   `json:"local"`
	Proxied       uint64   `json:"proxied"`
	ProxyErrors   uint64   `json:"proxy_errors,omitempty"`

	Retries      uint64 `json:"retries,omitempty"`       // backoff retries against one peer
	Reroutes     uint64 `json:"reroutes,omitempty"`      // requests served by a non-owner peer
	Fallbacks    uint64 `json:"fallbacks,omitempty"`     // proxy-intended requests served locally
	SkippedOpen  uint64 `json:"skipped_open,omitempty"`  // proxy hops skipped on an open breaker
	StreamBroken uint64 `json:"stream_broken,omitempty"` // NDJSON proxies that died mid-stream

	// Peers is the per-peer health block, sorted by URL.
	Peers []PeerSnapshot `json:"peers,omitempty"`
}

// PeerSnapshot is one peer's fleet-health block: its circuit breaker and
// the active-probe and passive-proxy telemetry feeding it.
type PeerSnapshot struct {
	URL     string           `json:"url"`
	Breaker breaker.Snapshot `json:"breaker"`

	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures,omitempty"`
	// LastProbeSeconds is the latency of the most recent probe;
	// LastProbeAgeSeconds how long ago it completed. Both 0 before the
	// first probe.
	LastProbeSeconds    float64 `json:"last_probe_seconds,omitempty"`
	LastProbeAgeSeconds float64 `json:"last_probe_age_seconds,omitempty"`

	Proxied       uint64 `json:"proxied"`
	ProxyFailures uint64 `json:"proxy_failures,omitempty"`
}

// peerSnapshots assembles the sorted per-peer health blocks.
func (f *fleetHealth) peerSnapshots() []PeerSnapshot {
	out := make([]PeerSnapshot, 0, len(f.order))
	for _, url := range f.order {
		p := f.peers[url]
		snap := PeerSnapshot{
			URL:           url,
			Breaker:       p.br.Snapshot(),
			Probes:        p.probes.Load(),
			ProbeFailures: p.probeFailures.Load(),
			Proxied:       p.proxied.Load(),
			ProxyFailures: p.proxyFailures.Load(),
		}
		if at := p.lastProbeUnixNano.Load(); at > 0 {
			snap.LastProbeSeconds = float64(p.lastProbeNanos.Load()) / 1e9
			snap.LastProbeAgeSeconds = time.Since(time.Unix(0, at)).Seconds()
		}
		out = append(out, snap)
	}
	return out
}

// StatsResponse is the /v1/stats body.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Inflight      int64   `json:"inflight"`
	// Queued is the number of requests waiting for an evaluation slot;
	// Shedding reports whether admission control is currently refusing new
	// evaluation work (queued >= MaxQueueDepth).
	Queued        int64                       `json:"queued"`
	Shedding      bool                        `json:"shedding"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
	ResponseCache *lru.Stats                  `json:"response_cache,omitempty"`
	// CustomEvaluators is the inline platform_spec evaluator cache: hits
	// are requests served by an already-fitted custom platform, misses are
	// on-demand fitting pipeline runs (singleflighted per fingerprint).
	CustomEvaluators *lru.Stats `json:"custom_evaluators,omitempty"`
	TraceCache       lru.Stats  `json:"trace_cache"`
	TraceReplays     uint64     `json:"trace_replays"`
	// TraceExtrapolation is the trace tier's steady-state cycle block:
	// replays that ran with a detected cycle, replays that extended the
	// horizon analytically, the total iterations skipped that way, and the
	// total steady cycles replayed op by op.
	TraceExtrapolation pace.TraceExtrapolationStats `json:"trace_extrapolation"`
	// TraceOps is the op composition of compiled shapes: scalar script
	// ops, fused-program ops a deterministic replay dispatches, and the
	// macro-fused wavefront steps within those.
	TraceOps      pace.TraceOpStats  `json:"trace_ops"`
	SweepBatching SweepBatchSnapshot `json:"sweep_batching"`
	// Artifacts is the persistent artifact store's counter block (only
	// with -artifact-dir): hits are cache fills served from disk instead
	// of refitting/recompiling.
	Artifacts  *artifact.Stats              `json:"artifacts,omitempty"`
	Shard      *ShardSnapshot               `json:"shard,omitempty"`
	Evaluators map[string]EvaluatorSnapshot `json:"evaluators"`
}

// statsResponse assembles the full snapshot. Only evaluators that have
// actually been fitted appear; unbuilt platforms would otherwise be
// force-built just to report empty counters.
func (s *Server) statsResponse() StatsResponse {
	out := StatsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Inflight:      s.st.inflight.Load(),
		Queued:        s.st.queued.Load(),
		Shedding:      s.shedding(),
		Endpoints: map[string]EndpointSnapshot{
			"predict":    s.st.predict.snapshot(),
			"sweep":      s.st.sweep.snapshot(),
			"perturb":    s.st.perturb.snapshot(),
			"resilience": s.st.resilience.snapshot(),
		},
		TraceCache:         pace.TraceCacheStats(),
		TraceReplays:       pace.TraceReplays(),
		TraceExtrapolation: pace.TraceExtrapolation(),
		TraceOps:           pace.TraceOps(),
		SweepBatching: SweepBatchSnapshot{
			GroupsTotal:  s.st.sweepBatchGroups.Load(),
			PointsTotal:  s.st.sweepBatchPoints.Load(),
			MaxGroupSize: s.st.sweepMaxGroup.Load(),
		},
		Evaluators: make(map[string]EvaluatorSnapshot),
	}
	if s.responses != nil {
		st := s.responses.Stats()
		out.ResponseCache = &st
	}
	if s.customEvals != nil {
		st := s.customEvals.Stats()
		out.CustomEvaluators = &st
	}
	if store := s.cfg.ArtifactStore; store != nil {
		st := store.Stats()
		out.Artifacts = &st
	}
	if s.ring != nil {
		out.Shard = &ShardSnapshot{
			Self:          s.self,
			Members:       s.ring.Members(),
			RingSize:      s.ring.Size(),
			OwnedFraction: s.ring.OwnedFraction(s.self),
			Local:         s.st.shardLocal.Load(),
			Proxied:       s.st.shardProxied.Load(),
			ProxyErrors:   s.st.shardProxyErrors.Load(),
			Retries:       s.health.retries.Load(),
			Reroutes:      s.health.reroutes.Load(),
			Fallbacks:     s.health.fallbacks.Load(),
			SkippedOpen:   s.health.skippedOpen.Load(),
			StreamBroken:  s.health.streamBroken.Load(),
			Peers:         s.health.peerSnapshots(),
		}
	}
	for name, slot := range s.evals {
		if !slot.ready.Load() {
			continue
		}
		out.Evaluators[name] = EvaluatorSnapshot{
			Memo: slot.ev.Memo.CacheStats(),
			Pool: slot.ev.PoolStats(),
		}
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	_ = writeJSON(w, http.StatusOK, s.statsResponse())
}

// handleMetrics renders the same counters in Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := s.statsResponse()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")

	fmt.Fprintf(w, "# TYPE paceserve_uptime_seconds gauge\npaceserve_uptime_seconds %g\n", st.UptimeSeconds)
	fmt.Fprintf(w, "# TYPE paceserve_inflight_requests gauge\npaceserve_inflight_requests %d\n", st.Inflight)
	fmt.Fprintf(w, "# TYPE paceserve_queued_requests gauge\npaceserve_queued_requests %d\n", st.Queued)
	shedding := 0
	if st.Shedding {
		shedding = 1
	}
	fmt.Fprintf(w, "# TYPE paceserve_shedding gauge\npaceserve_shedding %d\n", shedding)

	counters := [...]struct {
		name  string
		value func(EndpointSnapshot) uint64
	}{
		{"paceserve_requests_total", func(e EndpointSnapshot) uint64 { return e.Requests }},
		{"paceserve_request_errors_total", func(e EndpointSnapshot) uint64 { return e.Errors }},
		{"paceserve_cache_hits_total", func(e EndpointSnapshot) uint64 { return e.CacheHits }},
		{"paceserve_not_modified_total", func(e EndpointSnapshot) uint64 { return e.NotModified }},
		{"paceserve_shed_total", func(e EndpointSnapshot) uint64 { return e.Shed }},
	}
	for _, c := range counters {
		fmt.Fprintf(w, "# TYPE %s counter\n", c.name)
		for _, ep := range sortedKeys(st.Endpoints) {
			fmt.Fprintf(w, "%s{endpoint=%q} %d\n", c.name, ep, c.value(st.Endpoints[ep]))
		}
	}
	endpoints := sortedKeys(st.Endpoints)
	labels := make([]string, len(endpoints))
	latency := make([]stats.HistogramSnapshot, len(endpoints))
	for i, ep := range endpoints {
		e := st.Endpoints[ep]
		labels[i] = fmt.Sprintf("endpoint=%q", ep)
		latency[i] = stats.HistogramSnapshot{Count: e.Requests, TotalSeconds: e.TotalLatencySeconds, Buckets: e.Latency}
	}
	writeHistograms(w, "paceserve_request_seconds", labels, latency)

	if st.ResponseCache != nil {
		writeCacheMetrics(w, "paceserve_response_cache", []string{""}, []lru.Stats{*st.ResponseCache})
	}
	if st.CustomEvaluators != nil {
		writeCacheMetrics(w, "paceserve_custom_evaluators", []string{""}, []lru.Stats{*st.CustomEvaluators})
	}
	// Trace-tier telemetry: compiled shapes resident (entries), replays
	// served off a compiled shape (hits), compilations (misses).
	writeCacheMetrics(w, "paceserve_trace_cache", []string{""}, []lru.Stats{st.TraceCache})
	fmt.Fprintf(w, "# TYPE paceserve_trace_replays_total counter\npaceserve_trace_replays_total %d\n", st.TraceReplays)
	fmt.Fprintf(w, "# TYPE paceserve_trace_cycle_replays_total counter\npaceserve_trace_cycle_replays_total %d\n", st.TraceExtrapolation.CycleReplays)
	fmt.Fprintf(w, "# TYPE paceserve_trace_extrapolated_replays_total counter\npaceserve_trace_extrapolated_replays_total %d\n", st.TraceExtrapolation.ExtrapolatedReplays)
	fmt.Fprintf(w, "# TYPE paceserve_trace_extrapolated_iterations_total counter\npaceserve_trace_extrapolated_iterations_total %d\n", st.TraceExtrapolation.ExtrapolatedIterations)
	fmt.Fprintf(w, "# TYPE paceserve_trace_replayed_cycles_total counter\npaceserve_trace_replayed_cycles_total %d\n", st.TraceExtrapolation.ReplayedCycles)
	fmt.Fprintf(w, "# TYPE paceserve_trace_scalar_unique_ops_total counter\npaceserve_trace_scalar_unique_ops_total %d\n", st.TraceOps.ScalarUniqueOps)
	fmt.Fprintf(w, "# TYPE paceserve_trace_fused_unique_ops_total counter\npaceserve_trace_fused_unique_ops_total %d\n", st.TraceOps.FusedUniqueOps)
	fmt.Fprintf(w, "# TYPE paceserve_trace_macro_unique_ops_total counter\npaceserve_trace_macro_unique_ops_total %d\n", st.TraceOps.MacroUniqueOps)
	fmt.Fprintf(w, "# TYPE paceserve_sweep_batch_groups_total counter\npaceserve_sweep_batch_groups_total %d\n", st.SweepBatching.GroupsTotal)
	fmt.Fprintf(w, "# TYPE paceserve_sweep_batch_points_total counter\npaceserve_sweep_batch_points_total %d\n", st.SweepBatching.PointsTotal)
	fmt.Fprintf(w, "# TYPE paceserve_sweep_batch_max_group_size gauge\npaceserve_sweep_batch_max_group_size %d\n", st.SweepBatching.MaxGroupSize)
	if a := st.Artifacts; a != nil {
		fmt.Fprintf(w, "# TYPE paceserve_artifact_hits_total counter\npaceserve_artifact_hits_total %d\n", a.Hits)
		fmt.Fprintf(w, "# TYPE paceserve_artifact_misses_total counter\npaceserve_artifact_misses_total %d\n", a.Misses)
		fmt.Fprintf(w, "# TYPE paceserve_artifact_writes_total counter\npaceserve_artifact_writes_total %d\n", a.Writes)
		fmt.Fprintf(w, "# TYPE paceserve_artifact_errors_total counter\npaceserve_artifact_errors_total %d\n", a.Errors)
		fmt.Fprintf(w, "# TYPE paceserve_artifact_quarantined_total counter\npaceserve_artifact_quarantined_total %d\n", a.Quarantined)
		fmt.Fprintf(w, "# TYPE paceserve_artifact_temps_swept_total counter\npaceserve_artifact_temps_swept_total %d\n", a.TempsSwept)
		fmt.Fprintf(w, "# TYPE paceserve_artifact_bytes_on_disk gauge\npaceserve_artifact_bytes_on_disk %d\n", a.BytesOnDisk)
		writeHistograms(w, "paceserve_artifact_load_seconds", []string{""}, []stats.HistogramSnapshot{a.Load})
		writeHistograms(w, "paceserve_artifact_decode_seconds", []string{""}, []stats.HistogramSnapshot{a.Decode})
	}
	if sh := st.Shard; sh != nil {
		fmt.Fprintf(w, "# TYPE paceserve_shard_members gauge\npaceserve_shard_members %d\n", len(sh.Members))
		fmt.Fprintf(w, "# TYPE paceserve_shard_ring_size gauge\npaceserve_shard_ring_size %d\n", sh.RingSize)
		fmt.Fprintf(w, "# TYPE paceserve_shard_owned_fraction gauge\npaceserve_shard_owned_fraction %g\n", sh.OwnedFraction)
		fmt.Fprintf(w, "# TYPE paceserve_shard_local_total counter\npaceserve_shard_local_total %d\n", sh.Local)
		fmt.Fprintf(w, "# TYPE paceserve_shard_proxied_total counter\npaceserve_shard_proxied_total %d\n", sh.Proxied)
		fmt.Fprintf(w, "# TYPE paceserve_shard_proxy_errors_total counter\npaceserve_shard_proxy_errors_total %d\n", sh.ProxyErrors)
		fmt.Fprintf(w, "# TYPE paceserve_shard_retries_total counter\npaceserve_shard_retries_total %d\n", sh.Retries)
		fmt.Fprintf(w, "# TYPE paceserve_shard_reroutes_total counter\npaceserve_shard_reroutes_total %d\n", sh.Reroutes)
		fmt.Fprintf(w, "# TYPE paceserve_shard_fallbacks_total counter\npaceserve_shard_fallbacks_total %d\n", sh.Fallbacks)
		fmt.Fprintf(w, "# TYPE paceserve_shard_skipped_open_total counter\npaceserve_shard_skipped_open_total %d\n", sh.SkippedOpen)
		fmt.Fprintf(w, "# TYPE paceserve_shard_stream_broken_total counter\npaceserve_shard_stream_broken_total %d\n", sh.StreamBroken)
		if len(sh.Peers) > 0 {
			writePeerMetrics(w, sh.Peers)
		}
	}
	platforms := sortedKeys(st.Evaluators)
	if len(platforms) > 0 {
		labels := make([]string, len(platforms))
		memos := make([]lru.Stats, len(platforms))
		kernels := make([]lru.Stats, len(platforms))
		for i, name := range platforms {
			labels[i] = fmt.Sprintf("{platform=%q}", name)
			memos[i] = st.Evaluators[name].Memo
			kernels[i] = st.Evaluators[name].Pool.Kernels
		}
		writeCacheMetrics(w, "paceserve_memo", labels, memos)
		writeCacheMetrics(w, "paceserve_kernel_cache", labels, kernels)
		fmt.Fprintf(w, "# TYPE paceserve_pool_idle_replayers gauge\n")
		for i, name := range platforms {
			fmt.Fprintf(w, "paceserve_pool_idle_replayers%s %d\n", labels[i], st.Evaluators[name].Pool.IdleReplayers)
		}
	}
}

// writePeerMetrics renders the per-peer fleet-health series: breaker state
// (0 closed / 1 open / 2 half-open), cumulative trips, probe and proxy
// outcome counters, and the latest probe latency.
func writePeerMetrics(w http.ResponseWriter, peers []PeerSnapshot) {
	kinds := [...]struct {
		name, typ string
		value     func(PeerSnapshot) string
	}{
		{"paceserve_peer_breaker_state", "gauge", func(p PeerSnapshot) string {
			switch p.Breaker.State {
			case "open":
				return "1"
			case "half-open":
				return "2"
			default:
				return "0"
			}
		}},
		{"paceserve_peer_breaker_opens_total", "counter", func(p PeerSnapshot) string {
			return fmt.Sprintf("%d", p.Breaker.Opens)
		}},
		{"paceserve_peer_breaker_rejected_total", "counter", func(p PeerSnapshot) string {
			return fmt.Sprintf("%d", p.Breaker.Rejected)
		}},
		{"paceserve_peer_probes_total", "counter", func(p PeerSnapshot) string {
			return fmt.Sprintf("%d", p.Probes)
		}},
		{"paceserve_peer_probe_failures_total", "counter", func(p PeerSnapshot) string {
			return fmt.Sprintf("%d", p.ProbeFailures)
		}},
		{"paceserve_peer_probe_latency_seconds", "gauge", func(p PeerSnapshot) string {
			return fmt.Sprintf("%g", p.LastProbeSeconds)
		}},
		{"paceserve_peer_proxied_total", "counter", func(p PeerSnapshot) string {
			return fmt.Sprintf("%d", p.Proxied)
		}},
		{"paceserve_peer_proxy_failures_total", "counter", func(p PeerSnapshot) string {
			return fmt.Sprintf("%d", p.ProxyFailures)
		}},
	}
	for _, k := range kinds {
		fmt.Fprintf(w, "# TYPE %s %s\n", k.name, k.typ)
		for _, p := range peers {
			fmt.Fprintf(w, "%s{peer=%q} %s\n", k.name, p.URL, k.value(p))
		}
	}
}

// writeHistograms renders latency histograms in full Prometheus
// convention (_bucket series plus the _sum and _count series that
// rate()/avg queries depend on) under one # TYPE line. labels holds each
// histogram's label pairs, "" for none.
func writeHistograms(w http.ResponseWriter, name string, labels []string, hs []stats.HistogramSnapshot) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	for i, h := range hs {
		lead, set := "", ""
		if labels[i] != "" {
			lead, set = labels[i]+",", "{"+labels[i]+"}"
		}
		for _, b := range h.Buckets {
			le := fmt.Sprintf("%g", b.LeSeconds)
			if b.Inf {
				le = "+Inf"
			}
			fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, lead, le, b.Count)
		}
		fmt.Fprintf(w, "%s_sum%s %g\n", name, set, h.TotalSeconds)
		fmt.Fprintf(w, "%s_count%s %d\n", name, set, h.Count)
	}
}

// writeCacheMetrics renders one sharded-LRU counter block over parallel
// label/stats slices, with each metric name's # TYPE line emitted once
// before all its series (the Prometheus exposition requirement).
func writeCacheMetrics(w http.ResponseWriter, prefix string, labels []string, stats []lru.Stats) {
	kinds := [...]struct {
		suffix, typ string
		value       func(lru.Stats) uint64
	}{
		{"_hits_total", "counter", func(s lru.Stats) uint64 { return s.Hits }},
		{"_misses_total", "counter", func(s lru.Stats) uint64 { return s.Misses }},
		{"_evictions_total", "counter", func(s lru.Stats) uint64 { return s.Evictions }},
		{"_entries", "gauge", func(s lru.Stats) uint64 { return uint64(s.Entries) }},
	}
	for _, k := range kinds {
		fmt.Fprintf(w, "# TYPE %s%s %s\n", prefix, k.suffix, k.typ)
		for i, label := range labels {
			fmt.Fprintf(w, "%s%s%s %d\n", prefix, k.suffix, label, k.value(stats[i]))
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
