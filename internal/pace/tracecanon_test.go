package pace

import (
	"encoding/binary"
	"errors"
	"testing"

	"pacesweep/internal/artifact"
	"pacesweep/internal/mp"
)

// TestTracePredictLongHorizonExtrapolates is the canonicalization
// acceptance: a long-horizon prediction on the (deterministic) fitted
// model must replay the canonical short trace with analytic cycle
// extrapolation — reporting the skipped iterations — while staying
// bit-identical to a full event-backend simulation of every iteration.
func TestTracePredictLongHorizonExtrapolates(t *testing.T) {
	FlushTraceCache()
	ev := testEvaluator(t)
	cfg := paperConfig(3, 2)
	cfg.Iterations = 500

	before := TraceExtrapolation()
	got, err := ev.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Iterations - steadyCanonIters; got.ExtrapolatedIterations != want {
		t.Fatalf("ExtrapolatedIterations = %d, want %d", got.ExtrapolatedIterations, want)
	}
	after := TraceExtrapolation()
	if after.CycleReplays == before.CycleReplays ||
		after.ExtrapolatedReplays == before.ExtrapolatedReplays ||
		after.ExtrapolatedIterations-before.ExtrapolatedIterations < uint64(got.ExtrapolatedIterations) {
		t.Fatalf("extrapolation counters did not advance: before %+v after %+v", before, after)
	}

	evE := *ev
	evE.Scheduler = mp.SchedulerEvent
	want, err := evE.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.ExtrapolatedIterations != 0 {
		t.Fatalf("event backend reports extrapolation: %d", want.ExtrapolatedIterations)
	}
	ref := *want
	ref.ExtrapolatedIterations = got.ExtrapolatedIterations
	if *got != ref {
		t.Fatalf("extrapolated prediction differs from event backend:\n got %+v\nwant %+v", got, want)
	}
}

// TestTraceCanonSharesCompiledShape pins that different long horizons of
// one shape replay the same canonical compiled trace: the second horizon
// must not add a trace-cache miss (no recompilation).
func TestTraceCanonSharesCompiledShape(t *testing.T) {
	FlushTraceCache()
	ev := testEvaluator(t)
	cfg := paperConfig(2, 3)
	cfg.Iterations = 100
	if _, err := ev.Predict(cfg); err != nil {
		t.Fatal(err)
	}
	misses := TraceCacheStats().Misses
	long := cfg
	long.Iterations = 1000
	p, err := ev.Predict(long)
	if err != nil {
		t.Fatal(err)
	}
	if got := TraceCacheStats().Misses; got != misses {
		t.Fatalf("second horizon recompiled the trace (misses %d -> %d)", misses, got)
	}
	if p.ExtrapolatedIterations != long.Iterations-steadyCanonIters {
		t.Fatalf("ExtrapolatedIterations = %d, want %d",
			p.ExtrapolatedIterations, long.Iterations-steadyCanonIters)
	}
}

// fnv1aTest mirrors the artifact envelope checksum so the corruption test
// below can re-seal a surgically corrupted payload. (FNV-1a 64; if the
// envelope hash ever changes this test fails loudly on the re-seal.)
func fnv1aTest(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// TestArtifactCorruptCycleMetadataQuarantines pins the .bad path for
// trace artifacts that checksum cleanly but cannot be decoded: cycle
// metadata that fails structural validation, and a retired v1 version
// stamp. Each must be quarantined and the prediction served by live
// compilation, unchanged.
func TestArtifactCorruptCycleMetadataQuarantines(t *testing.T) {
	cases := []struct {
		name string
		// mutate edits the artifact body (envelope header and payload,
		// without the checksum trailer) in place.
		mutate func(body []byte)
		want   error // DecodeTrace's error on the mutated artifact
	}{
		// The payload ends with the cycle block's final cursor field; blow
		// it out of range so only the metadata is bad.
		{"cycle cursor out of range", func(body []byte) {
			binary.LittleEndian.PutUint32(body[len(body)-4:], 1<<28)
		}, artifact.ErrFormat},
		// The version stamp follows the 8-byte magic.
		{"v1 version stamp", func(body []byte) {
			binary.LittleEndian.PutUint16(body[8:], 1)
		}, artifact.ErrVersionMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := withStore(t)
			cfg := paperConfig(2, 2)
			cfg.Iterations = 100 // long horizon: the persisted trace is the canonical shape
			cold, err := testEvaluator(t).Predict(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cold.ExtrapolatedIterations == 0 {
				t.Fatal("long-horizon predict did not extrapolate")
			}
			keys, err := s.Keys(artifact.KindTrace)
			if err != nil || len(keys) != 1 {
				t.Fatalf("trace keys %v, err %v", keys, err)
			}
			data, err := s.Get(artifact.KindTrace, keys[0])
			if err != nil {
				t.Fatal(err)
			}
			// Mutate, then re-seal the checksum so only the mutation is bad.
			bad := append([]byte(nil), data...)
			body := bad[:len(bad)-8]
			tc.mutate(body)
			binary.LittleEndian.PutUint64(bad[len(bad)-8:], fnv1aTest(body))
			if _, err := mp.DecodeTrace(bad); !errors.Is(err, tc.want) {
				t.Fatalf("decode of mutated artifact: err = %v, want %v", err, tc.want)
			}
			if err := s.Put(artifact.KindTrace, keys[0], bad); err != nil {
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
			if st := s.Stats(); st.Quarantined != 1 {
				t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
			}
		})
	}
}
