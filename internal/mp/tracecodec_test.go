package mp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"reflect"
	"sort"
	"testing"

	"pacesweep/internal/artifact"
)

// recordWavefrontTrace records the miniature SWEEP3D pipeline with
// parameterised charges and sizes — every op kind a real template records.
func recordWavefrontTrace(t *testing.T) (*Trace, NetworkModel, ReplayParams) {
	t.Helper()
	net := detAlphaBeta{alphaBeta{alpha: 2e-5, beta: 1e-8}}
	w, err := NewWorld(12, Options{Net: net, Scheduler: SchedulerEvent})
	if err != nil {
		t.Fatal(err)
	}
	params := ReplayParams{
		Charges: []float64{1e-4, 2e-4, 3e-4},
		Sizes:   []int{1200, 960},
	}
	w.SetParams(params.Charges, params.Sizes)
	prog := func(c *Comm) error {
		px, py := 4, 3
		ix, iy := c.Rank()%px, c.Rank()/px
		for it := 0; it < 3; it++ {
			c.ChargeParam(c.Rank() % 3)
			if ix > 0 {
				c.RecvN(iy*px+ix-1, 1)
			}
			if iy > 0 {
				c.RecvN((iy-1)*px+ix, 2)
			}
			c.ChargeExact(2e-4)
			if ix < px-1 {
				c.SendParam(iy*px+ix+1, 1, 0)
			}
			if iy < py-1 {
				c.SendParam((iy+1)*px+ix, 2, 1)
			}
			c.Mark(0)
			c.AllreduceMax(float64(c.Rank()))
		}
		c.Mark(1)
		return nil
	}
	tr, err := w.RunRecorded(prog)
	if err != nil {
		t.Fatal(err)
	}
	return tr, net, params
}

// TestTraceCodecRoundTrip pins the codec contract: encode→decode→encode is
// byte-identical, and the decoded trace is structurally equal to its
// source.
func TestTraceCodecRoundTrip(t *testing.T) {
	tr, _, _ := recordWavefrontTrace(t)
	data := tr.EncodeBinary()
	got, err := DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("decoded trace differs:\n got %+v\nwant %+v", got, tr)
	}
	if !bytes.Equal(got.EncodeBinary(), data) {
		t.Fatal("encode→decode→encode is not byte-identical")
	}
}

// TestTraceCodecReplayBitIdentical replays a decoded trace beside its
// source under identical options and parameter tables: every rank clock,
// every mark and the makespan must not move a bit.
func TestTraceCodecReplayBitIdentical(t *testing.T) {
	tr, net, params := recordWavefrontTrace(t)
	dec, err := DecodeTrace(tr.EncodeBinary())
	if err != nil {
		t.Fatal(err)
	}
	ref, got := NewReplayer(), NewReplayer()
	if err := ref.Replay(tr, Options{Net: net}, params); err != nil {
		t.Fatal(err)
	}
	if err := got.Replay(dec, Options{Net: net}, params); err != nil {
		t.Fatal(err)
	}
	if ref.Makespan() != got.Makespan() {
		t.Fatalf("makespan %v != %v", got.Makespan(), ref.Makespan())
	}
	for r := 0; r < tr.Ranks(); r++ {
		if ref.Clock(r) != got.Clock(r) {
			t.Fatalf("clock[%d] %v != %v", r, got.Clock(r), ref.Clock(r))
		}
	}
	rm, gm := ref.Marks(), got.Marks()
	for i := range rm {
		if rm[i] != gm[i] {
			t.Fatalf("mark[%d] %v != %v", i, gm[i], rm[i])
		}
	}
}

// TestTraceCodecRefusesCorruption flips every byte of a valid artifact and
// truncates it at several points: decode must fail every time — a partial
// trace is never returned.
func TestTraceCodecRefusesCorruption(t *testing.T) {
	tr, _, _ := recordWavefrontTrace(t)
	data := tr.EncodeBinary()

	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x08
		if dec, err := DecodeTrace(bad); err == nil {
			// A flip confined to an unused bit pattern that still checksums
			// differently is impossible: the checksum covers every byte.
			t.Fatalf("bit flip at byte %d decoded: %+v", i, dec)
		}
	}
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if _, err := DecodeTrace(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
	}
	if _, err := DecodeTrace(data[:len(data)-3]); !errors.Is(err, artifact.ErrChecksum) {
		t.Fatalf("truncated artifact: err = %v, want ErrChecksum", err)
	}
}

// TestTraceCodecRefusesFutureVersion pins refuse-on-version-mismatch:
// only TraceCodecVersion decodes. A retired v1 artifact and one stamped
// with a newer version both fail with ErrVersionMismatch, the error the
// artifact store answers by quarantining and recompiling.
func TestTraceCodecRefusesFutureVersion(t *testing.T) {
	tr, _, _ := recordWavefrontTrace(t)
	data := tr.EncodeBinary()
	for _, v := range []uint16{1, TraceCodecVersion + 1} {
		if _, err := DecodeTrace(restampVersion(data, v)); !errors.Is(err, artifact.ErrVersionMismatch) {
			t.Fatalf("version %d: err = %v, want ErrVersionMismatch", v, err)
		}
	}
}

// restampVersion returns a copy of an artifact with its envelope version
// replaced and the FNV-1a checksum trailer re-sealed, so only the version
// stamp is wrong.
func restampVersion(data []byte, v uint16) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(out[len(traceMagic):], v)
	body := out[:len(out)-8]
	h := fnv.New64a()
	h.Write(body)
	binary.LittleEndian.PutUint64(out[len(body):], h.Sum64())
	return out
}

// TestSchedulerEquivalenceDecodedTrace is the decoded-trace row of the
// cross-backend equivalence matrix: a trace that went through
// encode→decode must replay bit-identically to the goroutine and event
// backends, including under RNG noise.
func TestSchedulerEquivalenceDecodedTrace(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		opts := Options{
			Net:   alphaBeta{alpha: 2e-5, beta: 1e-8},
			Noise: jitterNoise{0.05},
			Seed:  seed,
		}
		gc := runWavefront(t, SchedulerGoroutine, seed).SortedClocks()

		rec, err := NewWorld(12, Options{Net: opts.Net, Noise: opts.Noise, Seed: seed, Scheduler: SchedulerEvent})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := rec.RunRecorded(wavefrontProgram(4, 3, 5))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeTrace(tr.EncodeBinary())
		if err != nil {
			t.Fatal(err)
		}
		rp := NewReplayer()
		if err := rp.Replay(dec, opts, ReplayParams{}); err != nil {
			t.Fatal(err)
		}
		clocks := make([]float64, dec.Ranks())
		for r := range clocks {
			clocks[r] = rp.Clock(r)
		}
		sort.Float64s(clocks)
		for i := range gc {
			if gc[i] != clocks[i] {
				t.Fatalf("seed %d: clock[%d] goroutine %v != decoded-trace replay %v", seed, i, gc[i], clocks[i])
			}
		}
	}
}
