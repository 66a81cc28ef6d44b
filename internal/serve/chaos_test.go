package serve

// The chaos harness for the fleet health layer: a flaky-peer HTTP proxy
// injects failures — 500s, connection resets, truncated bodies, latency
// spikes, mid-stream cuts — on a deterministic schedule in front of a real
// replica, and the tests assert the invariant the shard router promises:
// every client response is a 200 with bytes identical to an unsharded
// server's answer, no matter what the fleet is doing underneath. Breaker
// transitions are pinned exactly against the schedule on a fake clock.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pacesweep/internal/breaker"
	"pacesweep/internal/lru"
	"pacesweep/internal/shard"
)

// chaosMode is one injected behaviour for one incoming request.
type chaosMode int

const (
	chaosPass      chaosMode = iota // forward to the real server untouched
	chaosErr500                     // answer 500 without touching the server
	chaosReset                      // close the connection before any response
	chaosTruncate                   // declare a full Content-Length, send half, cut
	chaosDelay                      // sleep, then forward (latency spike)
	chaosStreamCut                  // start a chunked NDJSON body, cut mid-chunk
)

// chaosClock is a manually advanced time source shared by a test and the
// servers' breakers.
type chaosClock struct {
	mu  sync.Mutex
	now time.Time
}

func newChaosClock() *chaosClock {
	return &chaosClock{now: time.Unix(1_000_000, 0)}
}

func (c *chaosClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *chaosClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// flakyPeer fronts a real replica with scheduled fault injection. Data
// requests (anything but /healthz) consume the schedule in arrival order,
// then fall back to the cycle (repeating) or chaosPass. /healthz passes
// through unless the peer is down(); down resets every connection,
// modelling a dead process.
type flakyPeer struct {
	tb  testing.TB
	srv *httptest.Server

	mu       sync.Mutex
	inner    http.Handler
	schedule []chaosMode
	cycle    []chaosMode
	delay    time.Duration

	down           atomic.Bool
	dataRequests   atomic.Int64
	healthRequests atomic.Int64
}

func newFlakyPeer(tb testing.TB) *flakyPeer {
	f := &flakyPeer{tb: tb, delay: 250 * time.Millisecond}
	f.srv = httptest.NewServer(f)
	tb.Cleanup(f.srv.Close)
	return f
}

func (f *flakyPeer) setInner(h http.Handler) {
	f.mu.Lock()
	f.inner = h
	f.mu.Unlock()
}

func (f *flakyPeer) handler() http.Handler {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inner
}

func (f *flakyPeer) setSchedule(modes ...chaosMode) {
	f.mu.Lock()
	f.schedule = modes
	f.mu.Unlock()
}

func (f *flakyPeer) setCycle(modes ...chaosMode) {
	f.mu.Lock()
	f.cycle = modes
	f.mu.Unlock()
}

// nextMode consumes the schedule head, then draws from the cycle.
func (f *flakyPeer) nextMode() chaosMode {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.schedule) > 0 {
		m := f.schedule[0]
		f.schedule = f.schedule[1:]
		return m
	}
	if len(f.cycle) > 0 {
		m := f.cycle[0]
		f.cycle = append(f.cycle[1:], m)
		return m
	}
	return chaosPass
}

// reset hijacks the connection and closes it cold: the client sees EOF or
// ECONNRESET before any response bytes.
func reset(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("chaos test responder is not hijackable")
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		return
	}
	conn.Close()
}

func (f *flakyPeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		f.healthRequests.Add(1)
		if f.down.Load() {
			reset(w)
			return
		}
		f.handler().ServeHTTP(w, r)
		return
	}
	f.dataRequests.Add(1)
	if f.down.Load() {
		reset(w)
		return
	}
	switch f.nextMode() {
	case chaosErr500:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintln(w, `{"error":"injected fault"}`)
	case chaosReset:
		reset(w)
	case chaosTruncate:
		rec := httptest.NewRecorder()
		f.handler().ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		hj := w.(http.Hijacker)
		conn, buf, err := hj.Hijack()
		if err != nil {
			return
		}
		fmt.Fprintf(buf, "HTTP/1.1 %d OK\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
			rec.Code, rec.Header().Get("Content-Type"), len(body))
		buf.Write(body[:len(body)/2])
		buf.Flush()
		conn.Close()
	case chaosStreamCut:
		rec := httptest.NewRecorder()
		f.handler().ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		hj := w.(http.Hijacker)
		conn, buf, err := hj.Hijack()
		if err != nil {
			return
		}
		// A chunked body cut before the terminating chunk: the reading
		// client gets io.ErrUnexpectedEOF mid-stream.
		fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Type: %s\r\nTransfer-Encoding: chunked\r\n\r\n",
			rec.Header().Get("Content-Type"))
		half := body[:len(body)/2]
		fmt.Fprintf(buf, "%x\r\n", len(half))
		buf.Write(half)
		fmt.Fprintf(buf, "\r\n")
		buf.Flush()
		conn.Close()
	case chaosDelay:
		time.Sleep(f.delay)
		f.handler().ServeHTTP(w, r)
	default:
		f.handler().ServeHTTP(w, r)
	}
}

// chaosPlatforms is the routable platform name pool; big enough that some
// name lands on each member of any small ring.
func chaosPlatforms() []string {
	names := make([]string, 32)
	for i := range names {
		names[i] = fmt.Sprintf("chaos%02d", i)
	}
	return names
}

// ownedBy picks a platform name the given member owns on the ring.
func ownedBy(tb testing.TB, s *Server, member string) string {
	tb.Helper()
	for _, n := range chaosPlatforms() {
		if s.ring.Owner(lru.HashString(n)) == member {
			return n
		}
	}
	tb.Fatalf("no chaos platform routes to %s", member)
	return ""
}

// chaosFleet is a two-replica fleet: a is healthy and reachable at aURL,
// b sits behind the flaky injection proxy. ref is an identical unsharded
// server providing the byte-identical ground truth; name/body address a
// platform the flaky peer owns.
type chaosFleet struct {
	a, b, ref *Server
	aURL      string
	flaky     *flakyPeer
	name      string
	body      string
	want      string
}

func predictBodyFor(name string) string {
	return fmt.Sprintf(`{"platform":%q,"grid":{"nx":60,"ny":60,"nz":20},"array":{"px":2,"py":2}}`, name)
}

// newChaosFleet stands the fleet up. mutate tweaks both replicas' configs
// (breaker timings, clock) after the chaos defaults are set.
func newChaosFleet(t *testing.T, mutate func(*Config)) *chaosFleet {
	t.Helper()
	var sA *Server
	hA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { sA.ServeHTTP(w, r) }))
	t.Cleanup(hA.Close)
	flaky := newFlakyPeer(t)

	peers := []string{hA.URL, flaky.srv.URL}
	mk := func(self string) *Server {
		cfg := Config{
			Platforms:         chaosPlatforms(),
			BuildEvaluator:    testBuilder(t),
			Peers:             peers,
			SelfURL:           self,
			ProbeInterval:     -1, // tests drive probe rounds explicitly
			ProxyTimeout:      100 * time.Millisecond,
			ProxyRetryBackoff: time.Millisecond,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	sA = mk(hA.URL)
	sB := mk(flaky.srv.URL)
	flaky.setInner(sB)

	ref, err := New(Config{Platforms: chaosPlatforms(), BuildEvaluator: testBuilder(t)})
	if err != nil {
		t.Fatal(err)
	}

	f := &chaosFleet{a: sA, b: sB, ref: ref, aURL: hA.URL, flaky: flaky}
	f.name = ownedBy(t, sA, flaky.srv.URL)
	f.body = predictBodyFor(f.name)
	w := postJSON(t, ref, "/v1/predict", f.body)
	if w.Code != http.StatusOK {
		t.Fatalf("reference predict: %d %s", w.Code, w.Body.String())
	}
	f.want = w.Body.String()
	return f
}

// predictViaA sends the fleet request through the healthy replica's real
// HTTP listener and requires a 200 with the reference bytes.
func (f *chaosFleet) predictViaA(t *testing.T) *http.Response {
	t.Helper()
	resp, err := http.Post(f.aURL+"/v1/predict", "application/json", strings.NewReader(f.body))
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict via A: status %d: %s", resp.StatusCode, got)
	}
	if got != f.want {
		t.Fatalf("predict via A diverged from unsharded reference:\ngot:  %s\nwant: %s", got, f.want)
	}
	return resp
}

func (f *chaosFleet) peerBreaker() *breaker.Breaker {
	return f.a.health.peer(f.flaky.srv.URL).br
}

// TestChaosDeadPeerBreakerLifecycle is the acceptance scenario on a fake
// clock: a peer failing 100% trips its breaker after exactly the
// configured samples; in the steady state every routed request completes
// byte-identically with zero proxy attempts to the dead peer; after the
// cooldown a half-open trial restores proxying. Every transition is
// asserted against the injected schedule.
func TestChaosDeadPeerBreakerLifecycle(t *testing.T) {
	clk := newChaosClock()
	f := newChaosFleet(t, func(c *Config) {
		c.BreakerWindow = 10 * time.Second
		c.BreakerCooldown = 5 * time.Second
		c.BreakerThreshold = 0.5
		c.BreakerMinSamples = 2
		c.clock = clk.Now
	})

	// Request 1: the attempt and its backoff retry both hit a reset
	// connection — two failure samples at MinSamples=2 trip the breaker —
	// and the router falls back to serving locally, still byte-identical.
	f.flaky.setSchedule(chaosReset, chaosReset)
	f.predictViaA(t)
	if got := f.peerBreaker().State(); got != breaker.Open {
		t.Fatalf("breaker after scheduled double reset = %v, want open", got)
	}
	if got := f.flaky.dataRequests.Load(); got != 2 {
		t.Fatalf("dead peer saw %d attempts during trip, want 2 (attempt + retry)", got)
	}
	if got := f.a.health.retries.Load(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}

	// Steady state: 20 more requests, all 200 and byte-identical, with
	// ZERO proxy attempts reaching the dead peer.
	for i := 0; i < 20; i++ {
		f.predictViaA(t)
	}
	if got := f.flaky.dataRequests.Load(); got != 2 {
		t.Fatalf("dead peer saw %d attempts while breaker open, want 2 (zero new)", got)
	}
	if got := f.a.health.skippedOpen.Load(); got != 20 {
		t.Errorf("skippedOpen = %d, want 20", got)
	}
	if got := f.a.health.fallbacks.Load(); got != 21 {
		t.Errorf("fallbacks = %d, want 21", got)
	}

	// One nanosecond short of the cooldown: still open, still skipped.
	clk.Advance(5*time.Second - time.Nanosecond)
	f.predictViaA(t)
	if got := f.flaky.dataRequests.Load(); got != 2 {
		t.Fatalf("peer probed %d times 1ns before cooldown, want 2", got)
	}

	// At the cooldown the breaker is half-open: the next request takes the
	// single trial, the (now healthy) peer answers, the breaker closes and
	// proxying is restored.
	clk.Advance(time.Nanosecond)
	if got := f.peerBreaker().State(); got != breaker.HalfOpen {
		t.Fatalf("breaker at cooldown = %v, want half-open", got)
	}
	f.predictViaA(t)
	if got := f.peerBreaker().State(); got != breaker.Closed {
		t.Fatalf("breaker after successful trial = %v, want closed", got)
	}
	if got := f.flaky.dataRequests.Load(); got != 3 {
		t.Fatalf("trial attempts = %d, want exactly 1 (total 3)", got)
	}
	f.predictViaA(t)
	if got := f.a.st.shardProxied.Load(); got != 2 {
		t.Errorf("proxied after recovery = %d, want 2 (trial + next)", got)
	}
	snap := f.peerBreaker().Snapshot()
	if snap.Opens != 1 || snap.Closes != 1 {
		t.Errorf("breaker opens/closes = %d/%d, want 1/1", snap.Opens, snap.Closes)
	}

	// The telemetry surfaces: /v1/stats carries the per-peer block.
	var stats StatsResponse
	if err := json.Unmarshal(getPath(t, f.a, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Shard == nil || len(stats.Shard.Peers) != 1 {
		t.Fatalf("stats shard peers = %+v, want 1 entry", stats.Shard)
	}
	ps := stats.Shard.Peers[0]
	if ps.URL != f.flaky.srv.URL || ps.Breaker.State != "closed" || ps.Breaker.Opens != 1 {
		t.Errorf("peer snapshot = %+v", ps)
	}
	metrics := getPath(t, f.a, "/metrics").Body.String()
	for _, want := range []string{
		"paceserve_peer_breaker_state{peer=",
		"paceserve_peer_breaker_opens_total{peer=",
		"paceserve_shard_skipped_open_total 21",
		"paceserve_shard_retries_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestChaosProbeRecovery drives active probe rounds by hand: probes alone
// (no client traffic) open the breaker of a dead peer, an open breaker
// suppresses further probes until the cooldown, /readyz reports the
// degraded fleet, and the first post-cooldown probe closes the breaker
// before any client request has to gamble on the peer.
func TestChaosProbeRecovery(t *testing.T) {
	clk := newChaosClock()
	f := newChaosFleet(t, func(c *Config) {
		c.BreakerCooldown = 5 * time.Second
		c.BreakerMinSamples = 2
		c.clock = clk.Now
	})

	f.flaky.down.Store(true)
	f.a.probePeers()
	f.a.probePeers()
	if got := f.peerBreaker().State(); got != breaker.Open {
		t.Fatalf("breaker after 2 failed probes = %v, want open", got)
	}
	if got := f.flaky.healthRequests.Load(); got != 2 {
		t.Fatalf("healthz probes = %d, want 2", got)
	}

	// While open, probe rounds send nothing — the dead peer gets silence.
	f.a.probePeers()
	if got := f.flaky.healthRequests.Load(); got != 2 {
		t.Fatalf("open breaker still probed: %d healthz requests, want 2", got)
	}

	// Client traffic skips the peer entirely and stays correct.
	f.predictViaA(t)
	if got := f.flaky.dataRequests.Load(); got != 0 {
		t.Fatalf("dead peer saw %d data requests, want 0", got)
	}

	// /readyz stays 200 (this replica absorbs the traffic) but reports the
	// degraded fleet with the down member.
	ready := getPath(t, f.a, "/readyz")
	if ready.Code != http.StatusOK {
		t.Fatalf("/readyz while fleet degraded: %d", ready.Code)
	}
	body := ready.Body.String()
	if !strings.Contains(body, `"status":"ready"`) || !strings.Contains(body, `"degraded"`) ||
		!strings.Contains(body, f.flaky.srv.URL) {
		t.Errorf("/readyz degraded body = %s", body)
	}

	// Recovery: the peer comes back, the cooldown elapses, and the next
	// probe round takes the half-open trial and closes the breaker.
	f.flaky.down.Store(false)
	clk.Advance(5 * time.Second)
	f.a.probePeers()
	if got := f.peerBreaker().State(); got != breaker.Closed {
		t.Fatalf("breaker after recovery probe = %v, want closed", got)
	}
	if !strings.Contains(getPath(t, f.a, "/readyz").Body.String(), `{"status":"ready"}`) {
		t.Error("/readyz still degraded after recovery")
	}
	f.predictViaA(t)
	if got := f.flaky.dataRequests.Load(); got != 1 {
		t.Fatalf("proxying not restored after probe recovery: %d data requests", got)
	}

	// Probe telemetry surfaced.
	var stats StatsResponse
	if err := json.Unmarshal(getPath(t, f.a, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	ps := stats.Shard.Peers[0]
	if ps.Probes != 3 || ps.ProbeFailures != 2 {
		t.Errorf("probe counters = %d/%d, want 3 probes, 2 failures", ps.Probes, ps.ProbeFailures)
	}
}

// TestChaosRaceHammer fires concurrent clients through the healthy replica
// while the flaky peer cycles through every failure mode on a live clock.
// Whatever the breaker does underneath, every single client must receive a
// 200 with bytes identical to the unsharded reference.
func TestChaosRaceHammer(t *testing.T) {
	f := newChaosFleet(t, func(c *Config) {
		c.BreakerWindow = 2 * time.Second
		c.BreakerCooldown = 30 * time.Millisecond
		c.BreakerMinSamples = 4
	})
	f.flaky.setCycle(
		chaosPass, chaosErr500, chaosPass, chaosReset,
		chaosTruncate, chaosPass, chaosDelay, chaosPass,
	)

	const workers, perWorker = 8, 15
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Post(f.aURL+"/v1/predict", "application/json", strings.NewReader(f.body))
				if err != nil {
					errs <- err
					return
				}
				got := readAll(t, resp)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, got)
					return
				}
				if got != f.want {
					errs <- fmt.Errorf("response diverged from reference: %s", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if f.flaky.dataRequests.Load() == 0 {
		t.Fatal("hammer never reached the flaky peer; chaos untested")
	}
	// Sanity: routed traffic actually flowed under chaos.
	if f.a.st.shardProxied.Load()+f.a.st.shardLocal.Load() == 0 {
		t.Fatal("no routed traffic recorded")
	}
}

// TestChaosStreamingSweep pins the streaming proxy semantics: a healthy
// proxied NDJSON sweep is byte-identical to the unsharded server's stream,
// and a mid-stream cut is recorded (streamBroken, breaker failure) without
// poisoning later requests.
func TestChaosStreamingSweep(t *testing.T) {
	f := newChaosFleet(t, nil)
	sweepBody := fmt.Sprintf(
		`{"platform":%q,"grid":{"nx":60,"ny":60,"nz":20},"arrays":[{"px":1,"py":1},{"px":2,"py":2}],"stream":true}`,
		f.name)

	want := postJSON(t, f.ref, "/v1/sweep", sweepBody)
	if want.Code != http.StatusOK {
		t.Fatalf("reference sweep: %d %s", want.Code, want.Body.String())
	}

	resp, err := http.Post(f.aURL+"/v1/sweep", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied stream sweep: %d %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Fatalf("proxied stream content type %q", ct)
	}
	if got != want.Body.String() {
		t.Fatalf("proxied NDJSON diverged from reference:\ngot:  %s\nwant: %s", got, want.Body.String())
	}
	if f.a.st.shardProxied.Load() != 1 {
		t.Errorf("shardProxied = %d, want 1", f.a.st.shardProxied.Load())
	}

	// Mid-stream cut: the proxy cannot replay a committed stream, so the
	// truncation reaches the client — but it is counted and fed to the
	// breaker, and the next request is served correctly.
	f.flaky.setSchedule(chaosStreamCut)
	resp2, err := http.Post(f.aURL+"/v1/sweep", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	cut := readAll(t, resp2)
	if len(cut) >= len(want.Body.String()) {
		t.Fatalf("cut stream not truncated: %d bytes vs reference %d", len(cut), want.Body.Len())
	}
	if got := f.a.health.streamBroken.Load(); got != 1 {
		t.Errorf("streamBroken = %d, want 1", got)
	}
	f.predictViaA(t)
}

// TestChaosRingDisagreement race-hammers a fleet whose replicas disagree
// on membership (a rolling restart with a stale peers flag): B's ring
// carries a phantom third member, so for some keys A forwards to B while
// B believes the phantom owns them — without loop-breaking B would proxy
// the forwarded request onward to a dead address. X-Paceserve-Forwarded
// must pin every forwarded request to its first hop: B serves it locally
// with the correct bytes and never proxies it again, in either direction.
func TestChaosRingDisagreement(t *testing.T) {
	var sA, sB *Server
	hA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { sA.ServeHTTP(w, r) }))
	defer hA.Close()
	hB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { sB.ServeHTTP(w, r) }))
	defer hB.Close()

	mk := func(self string, peers, platforms []string) *Server {
		s, err := New(Config{
			Platforms:         platforms,
			BuildEvaluator:    testBuilder(t),
			Peers:             peers,
			SelfURL:           self,
			ProbeInterval:     -1,
			ProxyTimeout:      time.Second,
			ProxyRetryBackoff: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	// B additionally believes in a phantom third member — the stale view a
	// replica holds mid rolling-restart — so the rings disagree on every
	// key the phantom "stole" from B's view.
	phantom := "http://192.0.2.1:1"
	membersA := []string{hA.URL, hB.URL}
	membersB := []string{hA.URL, hB.URL, phantom}

	// nameAB: A forwards to B, but B's ring says the phantom owns the key
	// — the genuine disagreement; only the forwarded header stops B from
	// proxying onward to the dead phantom. nameBA: B forwards to A. The
	// rings hash the httptest servers' random ports, so which names
	// qualify changes from run to run (nameAB covers about a sixth of all
	// keys): search generated names on rings built like the servers' until
	// both turn up, and serve exactly those.
	ringA, err := shard.New(membersA, 0)
	if err != nil {
		t.Fatal(err)
	}
	ringB, err := shard.New(membersB, 0)
	if err != nil {
		t.Fatal(err)
	}
	nameAB, nameBA := "", ""
	for i := 0; i < 1<<16 && (nameAB == "" || nameBA == ""); i++ {
		n := fmt.Sprintf("ring%05d", i)
		fp := lru.HashString(n)
		if nameAB == "" && ringA.Owner(fp) == hB.URL && ringB.Owner(fp) == phantom {
			nameAB = n
		}
		if nameBA == "" && ringB.Owner(fp) == hA.URL {
			nameBA = n
		}
	}
	if nameAB == "" || nameBA == "" {
		t.Fatalf("no disagreeing platform names found (nameAB=%q nameBA=%q)", nameAB, nameBA)
	}
	platforms := []string{nameAB, nameBA}
	sA = mk(hA.URL, membersA, platforms)
	sB = mk(hB.URL, membersB, platforms)
	if fp := lru.HashString(nameAB); sA.ring.Owner(fp) != hB.URL || sB.ring.Owner(fp) != phantom {
		t.Fatalf("server rings route %s differently from the search rings", nameAB)
	}
	if sB.ring.Owner(lru.HashString(nameBA)) != hA.URL {
		t.Fatalf("server rings route %s differently from the search rings", nameBA)
	}

	ref, err := New(Config{Platforms: platforms, BuildEvaluator: testBuilder(t)})
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string]string{}
	bodies := map[string]string{}
	for _, n := range []string{nameAB, nameBA} {
		bodies[n] = predictBodyFor(n)
		rec := postJSON(t, ref, "/v1/predict", bodies[n])
		if rec.Code != http.StatusOK {
			t.Fatalf("reference %s: %d", n, rec.Code)
		}
		wants[n] = rec.Body.String()
	}

	const workers, perWorker = 6, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half the clients hit A with the key A forwards to B; half
			// hit B with the key B forwards to A: forwards cross in both
			// directions concurrently.
			base, name := hA.URL, nameAB
			if g%2 == 1 {
				base, name = hB.URL, nameBA
			}
			for i := 0; i < perWorker; i++ {
				resp, err := http.Post(base+"/v1/predict", "application/json", strings.NewReader(bodies[name]))
				if err != nil {
					errs <- err
					return
				}
				got := readAll(t, resp)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, got)
					return
				}
				if got != wants[name] {
					errs <- fmt.Errorf("ring-disagreement response diverged: %s", got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Loop-breaking arithmetic: every request was proxied exactly once and
	// served locally by the replica it was forwarded to. Had the forwarded
	// header not pinned requests, B would have proxied its forwarded
	// traffic onward to the phantom (and A and B could bounce requests).
	const total = workers * perWorker
	proxied := sA.st.shardProxied.Load() + sB.st.shardProxied.Load()
	local := sA.st.shardLocal.Load() + sB.st.shardLocal.Load()
	if proxied != total {
		t.Errorf("proxied = %d, want %d (each request crosses exactly one hop)", proxied, total)
	}
	if local != total {
		t.Errorf("local = %d, want %d (each request served locally after one forward)", local, total)
	}
	if got := sA.health.fallbacks.Load() + sB.health.fallbacks.Load(); got != 0 {
		t.Errorf("fallbacks = %d, want 0 (no failures injected)", got)
	}
	// The phantom never saw a proxy attempt: forwarded requests are pinned.
	if ph := sB.health.peer(phantom); ph == nil || ph.proxied.Load() != 0 {
		t.Errorf("phantom member saw proxy attempts; forwarded pinning broken")
	}
}
