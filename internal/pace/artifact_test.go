package pace

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"pacesweep/internal/artifact"
)

// withStore attaches a fresh artifact store under t.TempDir and guarantees
// detachment and a cold trace cache around the test, so the process-global
// hooks never leak into other tests.
func withStore(t *testing.T) *artifact.Store {
	t.Helper()
	s, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	FlushTraceCache()
	SetArtifactStore(s)
	t.Cleanup(func() {
		SetArtifactStore(nil)
		FlushTraceCache()
	})
	return s
}

// TestArtifactWarmPredict is the in-process cold-vs-warm restart: a first
// predict builds and persists its kernel; after dropping every in-memory
// cache (a simulated restart), the same predict must load the kernel from
// the store — no new writes, store hits recorded — and be bit-identical to
// the cold result. Traces are compiled, never persisted.
func TestArtifactWarmPredict(t *testing.T) {
	s := withStore(t)
	cfg := paperConfig(2, 2)

	cold, err := testEvaluator(t).Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Writes == 0 {
		t.Fatal("cold predict persisted no artifacts")
	}
	if keys, _ := s.Keys(artifact.KindKernel); len(keys) != 1 {
		t.Fatalf("kernel artifacts = %v, want exactly one", keys)
	}
	if _, err := os.Stat(filepath.Join(s.Root(), "trace")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("store holds a trace directory: stat err = %v", err)
	}

	// "Restart": fresh evaluator (fresh kernel cache), cold trace cache.
	FlushTraceCache()
	warm, err := testEvaluator(t).Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *warm != *cold {
		t.Fatalf("warm prediction differs from cold:\n warm %+v\n cold %+v", warm, cold)
	}
	wst := s.Stats()
	if wst.Hits == st.Hits {
		t.Fatal("warm predict did not load from the store")
	}
	if wst.Writes != st.Writes {
		t.Fatalf("warm predict wrote %d new artifacts", wst.Writes-st.Writes)
	}
	if wst.Decode.Count == 0 {
		t.Fatal("warm predict recorded no decode latency")
	}
}

// TestArtifactCorruptionFallsBack pins that a poisoned artifact directory
// degrades to a live build instead of failing the prediction — and that
// the corrupt kernel is quarantined, so the key refills with a good
// artifact instead of re-failing the decode on every restart.
func TestArtifactCorruptionFallsBack(t *testing.T) {
	s := withStore(t)
	cfg := paperConfig(2, 2)
	cold, err := testEvaluator(t).Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := s.Keys(artifact.KindKernel)
	if err != nil || len(keys) != 1 {
		t.Fatalf("kernel keys %v, err %v", keys, err)
	}
	// Overwrite the kernel artifact with garbage that still parses as a file.
	if err := s.Put(artifact.KindKernel, keys[0], []byte("not an artifact")); err != nil {
		t.Fatal(err)
	}
	FlushTraceCache()
	warm, err := testEvaluator(t).Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *warm != *cold {
		t.Fatalf("fallback prediction differs: %+v != %+v", warm, cold)
	}
	// The corrupt artifact was moved aside, not left to poison every load.
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	if _, err := s.Get(artifact.KindKernel, keys[0]); !errors.Is(err, artifact.ErrNotFound) {
		t.Fatalf("corrupt kernel still served after quarantine: err = %v", err)
	}

	// The next restart's miss re-publishes a good artifact under the key
	// and decodes it cleanly — the store healed itself.
	FlushTraceCache()
	again, err := testEvaluator(t).Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *again != *cold {
		t.Fatalf("post-heal prediction differs: %+v != %+v", again, cold)
	}
	data, err := s.Get(artifact.KindKernel, keys[0])
	if err != nil {
		t.Fatalf("healed kernel artifact missing: %v", err)
	}
	if _, err := decodeKernel(data); err != nil {
		t.Fatalf("healed kernel artifact does not decode: %v", err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined after heal = %d, want still 1", st.Quarantined)
	}
}

// TestKernelArtifactRoundTrip pins the kernel codec directly: the priced
// tables survive encode→decode exactly, and corruption is refused.
func TestKernelArtifactRoundTrip(t *testing.T) {
	e := testEvaluator(t)
	k, err := e.buildKernel(paperConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	data := encodeKernel(k)
	got, err := decodeKernel(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.nab != k.nab || got.nkb != k.nkb || got.src != k.src ||
		got.ferr != k.ferr || got.fullBlock != k.fullBlock {
		t.Fatalf("decoded kernel scalars differ: %+v != %+v", got, k)
	}
	for i := range k.charges {
		if got.charges[i] != k.charges[i] {
			t.Fatalf("charge[%d] %v != %v", i, got.charges[i], k.charges[i])
		}
	}
	for i := range k.sizes {
		if got.sizes[i] != k.sizes[i] {
			t.Fatalf("size[%d] %v != %v", i, got.sizes[i], k.sizes[i])
		}
	}
	if _, err := decodeKernel(data[:len(data)-1]); !errors.Is(err, artifact.ErrChecksum) {
		t.Fatalf("truncated kernel: err = %v, want ErrChecksum", err)
	}
	// A structurally valid but layout-inconsistent kernel is refused.
	bad := *k
	bad.charges = k.charges[:len(k.charges)-1]
	if _, err := decodeKernel(encodeKernel(&bad)); !errors.Is(err, artifact.ErrFormat) {
		t.Fatalf("inconsistent kernel: err = %v, want ErrFormat", err)
	}
}

// TestOpcodeKernelsNotPersisted pins the persistence exclusion: opcode
// cost tables are outside the model fingerprint, so opcode-costed kernels
// must never be written to (or read from) the shared store.
func TestOpcodeKernelsNotPersisted(t *testing.T) {
	s := withStore(t)
	e := testEvaluator(t)
	e.UseOpcodeCosts = true
	if _, err := e.Predict(paperConfig(2, 2)); err != nil {
		t.Fatal(err)
	}
	if keys, _ := s.Keys(artifact.KindKernel); len(keys) != 0 {
		t.Fatalf("opcode kernels persisted: %v", keys)
	}
}
