package mp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
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
	return resealed(out)
}

// resealed rewrites an artifact's FNV-1a checksum trailer in place to
// match its body and returns it.
func resealed(data []byte) []byte {
	body := data[:len(data)-8]
	h := fnv.New64a()
	h.Write(body)
	binary.LittleEndian.PutUint64(data[len(body):], h.Sum64())
	return data
}

// TestSchedulerEquivalenceDecodedTrace is the decoded-trace row of the
// cross-backend equivalence matrix: a trace that went through
// encode→decode must replay bit-identically to the event backend,
// including under RNG noise.
func TestSchedulerEquivalenceDecodedTrace(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		opts := Options{
			Net:   alphaBeta{alpha: 2e-5, beta: 1e-8},
			Noise: jitterNoise{0.05},
			Seed:  seed,
		}
		ec := runWavefront(t, SchedulerEvent, seed).SortedClocks()

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
		for i := range ec {
			if ec[i] != clocks[i] {
				t.Fatalf("seed %d: clock[%d] event %v != decoded-trace replay %v", seed, i, ec[i], clocks[i])
			}
		}
	}
}

// paramRingProgram is a ring over n ranks using every parameterised op: a
// charge parameter, a checkpoint and a parameterised send size, closed by
// a collective each round.
func paramRingProgram(n, rounds int) func(c *Comm) error {
	return func(c *Comm) error {
		next, prev := (c.Rank()+1)%n, (c.Rank()+n-1)%n
		for it := 0; it < rounds; it++ {
			c.ChargeParam(0)
			c.SendParam(next, 1, 0)
			c.RecvN(prev, 1)
			c.Checkpoint(0)
			c.AllreduceMax(1)
		}
		return nil
	}
}

func recordParamRing(t testing.TB, n, rounds int) *Trace {
	t.Helper()
	w, err := NewWorld(n, Options{Scheduler: SchedulerEvent})
	if err != nil {
		t.Fatal(err)
	}
	w.SetParams([]float64{1e-4}, []int{512})
	tr, err := w.RunRecorded(paramRingProgram(n, rounds))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTraceCodecRefusesOutOfRangeOps: a decoded trace whose partner
// offsets or parameter indices would index past the replayer's tables is
// ErrFormat at decode, never a panic in Replay.
func TestTraceCodecRefusesOutOfRangeOps(t *testing.T) {
	cases := []struct {
		name string
		kind uint8
		mut  func(o *top)
	}{
		{"send offset past the world", topSendParam, func(o *top) { o.arg0 = 1000 }},
		{"send offset below rank 0", topSendParam, func(o *top) { o.arg0 = -1000 }},
		{"receive offset past the world", topRecv, func(o *top) { o.arg0 = 1000 }},
		{"charge param past header max", topChargeParam, func(o *top) { o.arg0 = 50 }},
		{"negative charge param", topChargeParam, func(o *top) { o.arg0 = -1 }},
		{"checkpoint param past header max", topCkpt, func(o *top) { o.arg0 = 50 }},
		{"size param past header max", topSendParam, func(o *top) { o.arg2 = 50 }},
		{"negative collective length", topReduce, func(o *top) { o.arg0 = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := recordParamRing(t, 4, 2)
			found := false
			for i := range tr.chunkOps {
				if tr.chunkOps[i].kind == tc.kind {
					tc.mut(&tr.chunkOps[i])
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("ring trace records no op of kind %d", tc.kind)
			}
			if _, err := DecodeTrace(tr.EncodeBinary()); !errors.Is(err, artifact.ErrFormat) {
				t.Fatalf("err = %v, want ErrFormat", err)
			}
		})
	}
	// A mark count past MaxMarks would size Replay's mark table from a
	// corrupt header, and header parameter maxima above every referenced
	// index would make Replay refuse every real parameter table.
	for name, mut := range map[string]func(tr *Trace){
		"mark count past MaxMarks":      func(tr *Trace) { tr.nmarks = 1 << 30 },
		"charge param maximum inflated": func(tr *Trace) { tr.maxChPar = 1 << 30 },
		"size param maximum inflated":   func(tr *Trace) { tr.maxSzPar = 1 << 30 },
	} {
		tr := recordParamRing(t, 4, 2)
		mut(tr)
		if _, err := DecodeTrace(tr.EncodeBinary()); !errors.Is(err, artifact.ErrFormat) {
			t.Fatalf("%s: err = %v, want ErrFormat", name, err)
		}
	}
}

// FuzzDecodeTrace feeds arbitrary bytes to the trace decoder, as they are
// and with the checksum trailer resealed, so that mutations reach the
// decoder's tables rather than stopping at the checksum. Decoding never
// panics; an accepted input re-encodes byte-identically and replays
// without panicking, on the fused and the perturbed loop, under parameter
// tables sized from its header maxima. The seed corpus in
// testdata/fuzz/FuzzDecodeTrace holds EncodeBinary artifacts of a ring
// (recordParamRing, 4 ranks), a template-like wavefront
// (recordWavefrontTrace) and a trace carrying cycle metadata
// (recordMarkedWavefront, 5 iterations).
func FuzzDecodeTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrace(data)
		if err != nil && len(data) >= 8 {
			data = resealed(append([]byte(nil), data...))
			tr, err = DecodeTrace(data)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(tr.EncodeBinary(), data) {
			t.Fatal("accepted input does not re-encode byte-identically")
		}
		// Keep each replay small: the stream table is n×D headers, the
		// script may repeat a chunk many times, and a header maximum may
		// name a parameter index far past any real table.
		if tr.n*tr.nslots > 1<<16 || tr.fopsTotal > 1<<16 || tr.maxChPar > 1<<10 || tr.maxSzPar > 1<<10 {
			return
		}
		charges := make([]float64, tr.maxChPar+1)
		for i := range charges {
			charges[i] = 1e-4 * float64(i+1)
		}
		sizes := make([]int, tr.maxSzPar+1)
		for i := range sizes {
			sizes[i] = 64 * (i + 1)
		}
		p := ReplayParams{Charges: charges, Sizes: sizes}
		rp := NewReplayer()
		for _, opts := range []Options{
			{Net: detAlphaBeta{alphaBeta{alpha: 2e-5, beta: 1e-8}}},
			{Net: alphaBeta{alpha: 2e-5, beta: 1e-8}, Seed: 3},
			{Net: detAlphaBeta{alphaBeta{alpha: 2e-5, beta: 1e-8}}, Noise: jitterNoise{0.05}, Seed: 5, Probe: &RunProbe{}},
		} {
			_ = rp.Replay(tr, opts, p) // a stalled replay is an error, not a panic
		}
	})
}

// segmentBombArtifact encodes a 1.3 MB trace whose cycle block asks the
// decoder for a 15 GB segment table: 64 ranks, each its own cycle class,
// each running one 100,000-reduce chunk 100 times, so 64 classes × 10^7
// generations. The checksum is valid.
func segmentBombArtifact() []byte {
	const n, reps, reduces = 64, 100, 100_000
	t := &Trace{
		n: n, maxChPar: -1, maxSzPar: -1, ops: n * reps * reduces,
		chunkOps: make([]top, reduces),
		cstart:   []int32{0, reduces},
		script:   make([]int32, n*reps),
		sstart:   make([]int32, n+1),
	}
	for i := range t.chunkOps {
		t.chunkOps[i] = top{kind: topReduce, arg0: 1}
	}
	for r := range t.sstart {
		t.sstart[r] = int32(r * reps)
	}
	gens := reps * reduces
	t.cyc = traceCycle{
		detected: true, period: 1, prefix: 1, cycles: gens - 2, gens: gens,
		classOf: make([]int32, n),
		first:   make([]cycCursor, n),
		last:    make([]cycCursor, n),
	}
	for r := range t.cyc.classOf {
		t.cyc.classOf[r] = int32(r)
	}
	return t.EncodeBinary()
}

// TestTraceCodecRefusesSegmentBomb: a trace artifact whose cycle classes ×
// generations exceed maxCycleSegments is refused with ErrFormat before the
// segment table is allocated.
func TestTraceCodecRefusesSegmentBomb(t *testing.T) {
	data := segmentBombArtifact()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeTrace(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, artifact.ErrFormat) {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
		t.Fatalf("decoding a %d-byte artifact allocated %d MB", len(data), got>>20)
	}
}

// TestTraceCodecDecodesAnyChunkOrder: traces number their chunks in
// canonical first-appearance order, but decoding must not require it, so
// artifacts written before (in event-schedule order) still load. Each
// checked-in FuzzDecodeTrace corpus artifact must decode and re-encode
// byte-identically; with its chunk ids reversed it must still decode, and
// replay exactly as the original: chunk ids are labels.
func TestTraceCodecDecodesAnyChunkOrder(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzDecodeTrace/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(
			strings.TrimPrefix(string(raw), "go test fuzz v1\n")), "[]byte("), ")")
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		data := []byte(s)
		tr, err := DecodeTrace(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !bytes.Equal(tr.EncodeBinary(), data) {
			t.Fatalf("%s: does not re-encode byte-identically", f)
		}
		// Reverse the chunk ids: chunk c becomes chunk nchunks-1-c.
		rev := *tr
		nchunks := len(tr.cstart) - 1
		rev.chunkOps, rev.cstart = nil, []int32{0}
		for c := nchunks - 1; c >= 0; c-- {
			rev.chunkOps = append(rev.chunkOps, tr.chunkOps[tr.cstart[c]:tr.cstart[c+1]]...)
			rev.cstart = append(rev.cstart, int32(len(rev.chunkOps)))
		}
		rev.script = make([]int32, len(tr.script))
		for i, c := range tr.script {
			rev.script[i] = int32(nchunks-1) - c
		}
		back, err := DecodeTrace(rev.EncodeBinary())
		if err != nil {
			t.Fatalf("%s with reversed chunk ids: %v", f, err)
		}
		if nchunks > 1 && slices.Equal(back.script, tr.script) {
			t.Fatalf("%s: reversal left the chunk ids as they were", f)
		}
		if back.CycleDetected() != tr.CycleDetected() {
			t.Fatalf("%s: cycle detected %v after reversal, %v before", f, back.CycleDetected(), tr.CycleDetected())
		}
		p := ReplayParams{Charges: make([]float64, tr.maxChPar+1), Sizes: make([]int, tr.maxSzPar+1)}
		for i := range p.Charges {
			p.Charges[i] = 1e-4 * float64(i+1)
		}
		for i := range p.Sizes {
			p.Sizes[i] = 64 * (i + 1)
		}
		for _, opts := range []Options{
			{Net: detAlphaBeta{alphaBeta{alpha: 2e-5, beta: 1e-8}}},
			{Net: alphaBeta{alpha: 2e-5, beta: 1e-8}, Noise: jitterNoise{0.05}, Seed: 3},
		} {
			a, b := NewReplayer(), NewReplayer()
			if err := a.Replay(tr, opts, p); err != nil {
				t.Fatal(err)
			}
			if err := b.Replay(back, opts, p); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < tr.n; r++ {
				if a.Clock(r) != b.Clock(r) {
					t.Fatalf("%s: rank %d clock %v, %v with reversed chunk ids", f, r, a.Clock(r), b.Clock(r))
				}
			}
			if !slices.Equal(a.Marks(), b.Marks()) {
				t.Fatalf("%s: marks differ with reversed chunk ids", f)
			}
		}
	}
}
