package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"pacesweep/internal/artifact"
	"pacesweep/internal/grid"
	"pacesweep/internal/hwmodel"
	"pacesweep/internal/lru"
	"pacesweep/internal/pace"
	"pacesweep/internal/platform"
)

// countingFitModel is the model half of specTestBuilder: a cheap
// deterministic fit straight off the spec's ground-truth curves, counting
// invocations so warm-start tests can assert the fit was skipped.
func countingFitModel(tb testing.TB, fits *atomic.Int64) func(spec platform.Spec) (*hwmodel.Model, error) {
	tb.Helper()
	return func(spec platform.Spec) (*hwmodel.Model, error) {
		if fits != nil {
			fits.Add(1)
		}
		pl, err := spec.Platform()
		if err != nil {
			return nil, err
		}
		m := &hwmodel.Model{Name: spec.Name + "-fit", MFLOPS: pl.Proc.MFLOPSAt(125000)}
		if pl.Net.Hierarchical() {
			m.Topology = pl.Topology()
			for _, lv := range pl.Net.Levels {
				m.Levels = append(m.Levels, hwmodel.NetLevel{Send: lv.Send, Recv: lv.Recv, PingPong: lv.PingPong})
			}
			m.Send, m.Recv, m.PingPong = m.Levels[0].Send, m.Levels[0].Recv, m.Levels[0].PingPong
		} else {
			m.Send, m.Recv, m.PingPong = pl.Net.Send, pl.Net.Recv, pl.Net.PingPong
		}
		return m, nil
	}
}

// openStore opens an artifact store in a temp dir and detaches the
// process-global pace hooks (plus the compiled-trace cache) on cleanup so
// store state cannot leak across tests.
func openStore(tb testing.TB, dir string) *artifact.Store {
	tb.Helper()
	store, err := artifact.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		pace.SetArtifactStore(nil)
		pace.FlushTraceCache()
	})
	pace.FlushTraceCache()
	return store
}

// failingBuilder pins that the live fitting pipeline never runs when the
// artifact model path should serve.
func failingBuilder(name string) (*pace.Evaluator, error) {
	return nil, fmt.Errorf("live builder invoked for %q; the artifact path should have served", name)
}

// registryWith returns a fresh registry holding only the given specs —
// never the process-global default, which tests must not pollute.
func registryWith(tb testing.TB, specs ...platform.Spec) *platform.Registry {
	tb.Helper()
	reg := platform.NewRegistry()
	for _, sp := range specs {
		if err := reg.Register(sp); err != nil {
			tb.Fatal(err)
		}
	}
	return reg
}

// TestWarmRestartBitIdentical is the tentpole acceptance test: a server
// restarted onto a populated artifact store serves its first predict
// without refitting (the counting FitModel stays at one) and the response
// bytes are identical to the cold server's.
func TestWarmRestartBitIdentical(t *testing.T) {
	dir := t.TempDir()
	var fits atomic.Int64
	newServer := func() *Server {
		store := openStore(t, dir)
		s, err := New(Config{
			Platforms:      []string{"Custom-Flat"},
			Registry:       registryWith(t, flatSpec()),
			ArtifactStore:  store,
			FitModel:       countingFitModel(t, &fits),
			BuildEvaluator: failingBuilder,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	body := `{"platform":"Custom-Flat","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2}}`

	cold := newServer()
	coldRec := postJSON(t, cold, "/v1/predict", body)
	if coldRec.Code != http.StatusOK {
		t.Fatalf("cold predict: status %d: %s", coldRec.Code, coldRec.Body.String())
	}
	if got := fits.Load(); got != 1 {
		t.Fatalf("cold start ran %d fits, want 1", got)
	}
	coldStats := cold.cfg.ArtifactStore.Stats()
	if coldStats.Writes == 0 {
		t.Fatalf("cold start wrote no artifacts: %+v", coldStats)
	}

	// Restart: fresh server, fresh registry, same artifact directory.
	warm := newServer()
	warmRec := postJSON(t, warm, "/v1/predict", body)
	if warmRec.Code != http.StatusOK {
		t.Fatalf("warm predict: status %d: %s", warmRec.Code, warmRec.Body.String())
	}
	if got := fits.Load(); got != 1 {
		t.Errorf("warm restart refitted: %d fits total, want 1", got)
	}
	if warmRec.Body.String() != coldRec.Body.String() {
		t.Errorf("warm response differs from cold:\ncold: %s\nwarm: %s", coldRec.Body.String(), warmRec.Body.String())
	}
	warmStats := warm.cfg.ArtifactStore.Stats()
	if warmStats.Hits == 0 {
		t.Errorf("warm start hit no artifacts: %+v", warmStats)
	}

	// The artifacts block surfaces in /v1/stats.
	var stats StatsResponse
	if err := json.Unmarshal(getPath(t, warm, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Artifacts == nil || stats.Artifacts.Hits == 0 {
		t.Errorf("/v1/stats artifacts block missing or cold: %+v", stats.Artifacts)
	}
}

// TestQuarantineCorruptModelArtifact restarts a server onto a store whose
// persisted model artifact has been corrupted on disk: the server must
// quarantine the corrupt file, refit through a fresh fill, and answer
// byte-identically to the cold run — one corrupt artifact costs one
// refit, never a broken platform.
func TestQuarantineCorruptModelArtifact(t *testing.T) {
	dir := t.TempDir()
	var fits atomic.Int64
	newServer := func() *Server {
		store := openStore(t, dir)
		s, err := New(Config{
			Platforms:      []string{"Custom-Flat"},
			Registry:       registryWith(t, flatSpec()),
			ArtifactStore:  store,
			FitModel:       countingFitModel(t, &fits),
			BuildEvaluator: failingBuilder,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	body := `{"platform":"Custom-Flat","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2}}`

	cold := newServer()
	coldRec := postJSON(t, cold, "/v1/predict", body)
	if coldRec.Code != http.StatusOK {
		t.Fatalf("cold predict: status %d: %s", coldRec.Code, coldRec.Body.String())
	}

	// Corrupt the persisted model in place (valid file, garbage bytes).
	fp := flatSpec().FingerprintHex()
	modelPath := filepath.Join(dir, artifact.KindModel, fp+".art")
	if err := os.WriteFile(modelPath, []byte("bit rot"), 0o644); err != nil {
		t.Fatal(err)
	}

	warm := newServer()
	warmRec := postJSON(t, warm, "/v1/predict", body)
	if warmRec.Code != http.StatusOK {
		t.Fatalf("predict over corrupt model: status %d: %s", warmRec.Code, warmRec.Body.String())
	}
	if warmRec.Body.String() != coldRec.Body.String() {
		t.Errorf("refitted response differs from cold:\ncold: %s\nwarm: %s",
			coldRec.Body.String(), warmRec.Body.String())
	}
	if got := fits.Load(); got != 2 {
		t.Errorf("fits = %d, want 2 (cold fit + refit after quarantine)", got)
	}
	st := warm.cfg.ArtifactStore.Stats()
	if st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
	// The corrupt bytes were moved aside for post-mortem, and a good
	// artifact now lives under the original key.
	if got, err := os.ReadFile(filepath.Join(dir, artifact.KindModel, fp+".bad")); err != nil || string(got) != "bit rot" {
		t.Errorf(".bad file = %q, %v; want the corrupt bytes", got, err)
	}
	if _, err := warm.cfg.ArtifactStore.Get(artifact.KindModel, fp); err != nil {
		t.Errorf("re-published model artifact missing: %v", err)
	}

	// The counter surfaces in /v1/stats and /metrics.
	var stats StatsResponse
	if err := json.Unmarshal(getPath(t, warm, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Artifacts == nil || stats.Artifacts.Quarantined != 1 {
		t.Errorf("/v1/stats artifacts.quarantined missing: %+v", stats.Artifacts)
	}
	if m := getPath(t, warm, "/metrics").Body.String(); !strings.Contains(m, "paceserve_artifact_quarantined_total 1") {
		t.Errorf("/metrics missing quarantined counter:\n%s", m)
	}
}

// TestPlatformPersistence covers the POST → restart → GET-by-fingerprint
// loop: a runtime registration lands in the artifact store, a fresh server
// on the same store restores it, serves it by name on all four evaluation
// endpoints without a new fit beyond the first, and answers
// GET /v1/platforms/{fingerprint} with the full spec. Unknown
// fingerprints are structured 404s.
func TestPlatformPersistence(t *testing.T) {
	dir := t.TempDir()
	var fits atomic.Int64
	newServer := func(platforms []string, specs ...platform.Spec) *Server {
		store := openStore(t, dir)
		s, err := New(Config{
			Platforms:      platforms,
			Registry:       registryWith(t, specs...),
			ArtifactStore:  store,
			FitModel:       countingFitModel(t, &fits),
			BuildEvaluator: failingBuilder,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	first := newServer([]string{"Custom-Flat"}, flatSpec())
	spec := hierServeSpec()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	post := postJSON(t, first, "/v1/platforms", string(specJSON))
	if post.Code != http.StatusCreated {
		t.Fatalf("POST /v1/platforms: status %d: %s", post.Code, post.Body.String())
	}
	var reg PlatformRegisterResponse
	if err := json.Unmarshal(post.Body.Bytes(), &reg); err != nil {
		t.Fatal(err)
	}
	if reg.Fingerprint != spec.FingerprintHex() || !reg.Persisted {
		t.Fatalf("registration response %+v, want fingerprint %s persisted", reg, spec.FingerprintHex())
	}
	// Re-POSTing the identical spec is idempotent; a different spec under
	// the same name conflicts.
	if rec := postJSON(t, first, "/v1/platforms", string(specJSON)); rec.Code != http.StatusCreated {
		t.Errorf("idempotent re-POST: status %d: %s", rec.Code, rec.Body.String())
	}
	conflict := spec
	conflict.CoresPerNode++
	conflictJSON, _ := json.Marshal(conflict)
	if rec := postJSON(t, first, "/v1/platforms", string(conflictJSON)); rec.Code != http.StatusConflict {
		t.Errorf("conflicting re-POST: status %d, want 409: %s", rec.Code, rec.Body.String())
	}

	// Restart onto the same store: the registration must survive.
	second := newServer([]string{"Custom-Flat"}, flatSpec())
	got := getPath(t, second, "/v1/platforms/"+spec.FingerprintHex())
	if got.Code != http.StatusOK {
		t.Fatalf("GET by fingerprint after restart: status %d: %s", got.Code, got.Body.String())
	}
	var restored platform.Spec
	if err := json.Unmarshal(got.Body.Bytes(), &restored); err != nil {
		t.Fatal(err)
	}
	if restored.Fingerprint() != spec.Fingerprint() {
		t.Errorf("restored spec fingerprint %s, want %s", restored.FingerprintHex(), spec.FingerprintHex())
	}

	// The restored platform serves by name on every evaluation endpoint of
	// the restarted process.
	config := fmt.Sprintf(`"platform":%q,"grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2},"iterations":4`, spec.Name)
	for _, c := range []struct{ path, body string }{
		{"/v1/predict", "{" + config + "}"},
		{"/v1/sweep", fmt.Sprintf(`{"platform":%q,"arrays":[{"px":2,"py":2}],"iterations":4}`, spec.Name)},
		{"/v1/perturb", "{" + config + `,"scenario":{"seed":1,"delays":[{"rank":1,"iteration":1,"seconds":3.0}]}}`},
		{"/v1/resilience", "{" + config + `,"study":{"seed":1,"checkpoint":{"interval_iterations":2,"checkpoint_seconds":0.01,"restart_seconds":0.01},"failure":{"mtbf_seconds":2.0,"scenarios":2}}}`},
	} {
		if rec := postJSON(t, second, c.path, c.body); rec.Code != http.StatusOK {
			t.Errorf("%s on restored platform: status %d: %s", c.path, rec.Code, rec.Body.String())
		}
	}

	// Unknown fingerprint: structured 404.
	missing := getPath(t, second, "/v1/platforms/ffffffffffffffff")
	if missing.Code != http.StatusNotFound {
		t.Fatalf("unknown fingerprint: status %d, want 404", missing.Code)
	}
	var errBody struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(missing.Body.Bytes(), &errBody); err != nil || errBody.Error == "" {
		t.Errorf("unknown fingerprint body %q: want structured error", missing.Body.String())
	}
}

// TestShardProxy stands up a two-replica fleet and checks that a request
// landing on the non-owner is proxied to the owner, annotated with
// X-Paceserve-Shard, and byte-identical to asking the owner directly.
func TestShardProxy(t *testing.T) {
	var sA, sB *Server
	hA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { sA.ServeHTTP(w, r) }))
	defer hA.Close()
	hB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { sB.ServeHTTP(w, r) }))
	defer hB.Close()

	peers := []string{hA.URL, hB.URL}
	mk := func(self string) *Server {
		s, err := New(Config{
			Platforms:      []string{"alpha", "beta"},
			BuildEvaluator: testBuilder(t),
			Peers:          peers,
			SelfURL:        self,
			// No background probes: the replicas are bound to sA/sB after
			// New returns, so an immediate probe round could hit a handler
			// whose server variable is still nil. chaos_test.go covers
			// probing.
			ProbeInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	sA, sB = mk(hA.URL), mk(hB.URL)

	body := `{"platform":"alpha","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2}}`
	owner := sA.ring.Owner(lru.HashString("alpha"))
	ownerSrv, otherURL := sA, hB.URL
	if owner == hB.URL {
		ownerSrv, otherURL = sB, hA.URL
	}

	// Ask the non-owner: the response must come back proxied and annotated.
	resp, err := http.Post(otherURL+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	proxied := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied predict: status %d: %s", resp.StatusCode, proxied)
	}
	if got := resp.Header.Get(shardHeader); got != owner {
		t.Errorf("%s = %q, want owner %q", shardHeader, got, owner)
	}

	// Ask the owner directly: identical bytes, annotated with itself.
	direct, err := http.Post(owner+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	directBody := readAll(t, direct)
	if got := direct.Header.Get(shardHeader); got != owner {
		t.Errorf("direct %s = %q, want %q", shardHeader, got, owner)
	}
	if proxied != directBody {
		t.Errorf("proxied response differs from direct:\nproxied: %s\ndirect:  %s", proxied, directBody)
	}

	// Counters: the owner served both requests locally, the other proxied
	// exactly one; the shard block surfaces in /v1/stats.
	if got := ownerSrv.st.shardLocal.Load(); got != 2 {
		t.Errorf("owner shardLocal = %d, want 2", got)
	}
	otherSrv := sA
	if ownerSrv == sA {
		otherSrv = sB
	}
	if got := otherSrv.st.shardProxied.Load(); got != 1 {
		t.Errorf("non-owner shardProxied = %d, want 1", got)
	}
	var stats StatsResponse
	if err := json.Unmarshal(getPath(t, otherSrv, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Shard == nil || stats.Shard.Proxied != 1 || len(stats.Shard.Members) != 2 {
		t.Errorf("/v1/stats shard block %+v, want proxied=1 members=2", stats.Shard)
	}
}

func readAll(tb testing.TB, resp *http.Response) string {
	tb.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// BenchmarkColdVsWarmStart measures the restart cost the artifact store
// removes: cold starts a server on an empty store (the fitting pipeline,
// kernel pricing and trace compilation run), warm starts on a populated
// one (the model and kernel load from disk; the trace, never stored, is
// compiled). Per-iteration servers are real; only the store directory
// differs.
func BenchmarkColdVsWarmStart(b *testing.B) {
	profile := grid.Global{NX: 20, NY: 20, NZ: 20}
	body := `{"platform":"Custom-Flat","grid":{"nx":100,"ny":100,"nz":50},"array":{"px":2,"py":2}}`
	newServer := func(b *testing.B, dir string) *Server {
		store, err := artifact.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		s, err := New(Config{
			Platforms:     []string{"Custom-Flat"},
			Registry:      registryWith(b, flatSpec()),
			ArtifactStore: store,
			ProfileGrid:   profile,
		})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	predictOnce := func(b *testing.B, s *Server) {
		rec := postJSON(b, s, "/v1/predict", body)
		if rec.Code != http.StatusOK {
			b.Fatalf("predict: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	defer func() {
		pace.SetArtifactStore(nil)
		pace.FlushTraceCache()
	}()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			pace.FlushTraceCache()
			b.StartTimer()
			predictOnce(b, newServer(b, dir))
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		pace.FlushTraceCache()
		predictOnce(b, newServer(b, dir)) // populate the store
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			pace.FlushTraceCache()
			b.StartTimer()
			predictOnce(b, newServer(b, dir))
		}
	})
}
