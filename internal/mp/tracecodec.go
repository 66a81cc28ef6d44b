package mp

// Binary codec for compiled traces, the artifact-store side of the trace
// tier: a recorded communication script serialises to a versioned,
// checksummed artifact and loads back into a Trace that replays
// bit-identically to its source. Traces record only table indices and
// delta-encoded partners — no platform, cost or class information — so one
// persisted trace artifact serves every platform of the same shape.
//
// The codec lives in package mp because every Trace field is unexported by
// design (a Trace is immutable after recording); the encoding is a direct
// image of the struct, field by field, in fixed little-endian layout, so
// encode→decode→encode is byte-identical.

import (
	"fmt"

	"pacesweep/internal/artifact"
)

const (
	// traceMagic identifies a compiled-trace artifact.
	traceMagic = "PACETRC\x00"
	// TraceCodecVersion is the trace artifact version, the only one that
	// decodes. Bump it on any change to the op kind table, the chunk
	// layout, the cycle block or the replay parameter conventions; an
	// artifact of any other version fails with ErrVersionMismatch and the
	// artifact store treats it like corruption (quarantine, recompile,
	// republish) — the store is a refillable cache.
	//
	// v2 appends optional steady-state cycle metadata (detection results;
	// see tracecycle.go) after the scalar tables.
	TraceCodecVersion uint16 = 2
)

// EncodeBinary serialises the trace into a self-describing, checksummed
// artifact. The encoding is deterministic: one trace always produces
// identical bytes.
func (t *Trace) EncodeBinary() []byte {
	e := artifact.NewEncoder(traceMagic, TraceCodecVersion)
	e.U32(uint32(t.n))
	e.U32(uint32(t.nmarks))
	e.I32(t.maxChPar)
	e.I32(t.maxSzPar)
	e.U64(uint64(t.ops))
	e.U32(uint32(len(t.chunkOps)))
	for _, o := range t.chunkOps {
		e.I32(o.arg0)
		e.I32(o.arg1)
		e.I32(o.arg2)
		e.U8(o.kind)
	}
	e.U32(uint32(len(t.cstart)))
	for _, v := range t.cstart {
		e.I32(v)
	}
	e.U32(uint32(len(t.script)))
	for _, v := range t.script {
		e.I32(v)
	}
	e.U32(uint32(len(t.sstart)))
	for _, v := range t.sstart {
		e.I32(v)
	}
	e.U32(uint32(len(t.lits)))
	for _, v := range t.lits {
		e.F64(v)
	}
	e.U32(uint32(len(t.sizes)))
	for _, v := range t.sizes {
		e.I32(v)
	}
	// Cycle metadata: the scalar detection results. Fused programs and
	// cursor fused-indices are always recomputed locally (they are pure
	// functions of the scalar tables), so the artifact stays
	// layout-independent of the fusion scheme.
	if !t.cyc.detected {
		e.U8(0)
		return e.Finish()
	}
	e.U8(1)
	e.U32(uint32(t.cyc.period))
	e.U32(uint32(t.cyc.prefix))
	e.U32(uint32(t.cyc.cycles))
	e.U32(uint32(t.cyc.gens))
	e.U32(uint32(len(t.cyc.first)))
	for _, c := range t.cyc.classOf {
		e.I32(c)
	}
	for i := range t.cyc.first {
		e.I32(t.cyc.first[i].srel)
		e.I32(t.cyc.first[i].sop)
		e.I32(t.cyc.last[i].srel)
		e.I32(t.cyc.last[i].sop)
	}
	return e.Finish()
}

// DecodeTrace loads a trace artifact encoded by EncodeBinary. The envelope
// (magic, version, checksum) is verified before any field is read, and the
// decoded structure is validated — chunk table monotone, chunk ids and op
// kinds in range — so a decoded trace can never drive the replayer out of
// bounds. Corruption fails with artifact.ErrChecksum (or ErrTruncated /
// ErrFormat); a partial Trace is never returned.
//
// Only TraceCodecVersion decodes; any other version is
// artifact.ErrVersionMismatch. The optional cycle metadata is itself
// validated before use — corrupt metadata is ErrFormat, never a bad
// cursor — and the decoded trace replays bit-identically to its source.
func DecodeTrace(data []byte) (*Trace, error) {
	d, err := artifact.NewDecoder(data, traceMagic, TraceCodecVersion)
	if err != nil {
		return nil, err
	}
	t := &Trace{
		n:        int(d.U32()),
		nmarks:   int(d.U32()),
		maxChPar: d.I32(),
		maxSzPar: d.I32(),
		ops:      int(d.U64()),
	}
	// Zero-length tables decode to nil, matching what recording leaves
	// (e.g. no literal sizes when every send is parameterised), so
	// decode→encode and structural comparisons are exact.
	if n := d.Len(); n > 0 {
		t.chunkOps = make([]top, n)
		for i := range t.chunkOps {
			t.chunkOps[i] = top{arg0: d.I32(), arg1: d.I32(), arg2: d.I32(), kind: d.U8()}
		}
	}
	if n := d.Len(); n > 0 {
		t.cstart = make([]int32, n)
		for i := range t.cstart {
			t.cstart[i] = d.I32()
		}
	}
	if n := d.Len(); n > 0 {
		t.script = make([]int32, n)
		for i := range t.script {
			t.script[i] = d.I32()
		}
	}
	if n := d.Len(); n > 0 {
		t.sstart = make([]int32, n)
		for i := range t.sstart {
			t.sstart[i] = d.I32()
		}
	}
	if n := d.Len(); n > 0 {
		t.lits = make([]float64, n)
		for i := range t.lits {
			t.lits[i] = d.F64()
		}
	}
	if n := d.Len(); n > 0 {
		t.sizes = make([]int32, n)
		for i := range t.sizes {
			t.sizes[i] = d.I32()
		}
	}
	var meta *traceCycleMeta
	if d.U8() != 0 {
		m := traceCycleMeta{
			period: int(d.U32()), prefix: int(d.U32()),
			cycles: int(d.U32()), gens: int(d.U32()),
			nclass: int(d.U32()),
		}
		// The script table has fixed the world size by now; checking it
		// first keeps a corrupt rank count from sizing classOf.
		if len(t.sstart) != t.n+1 || m.nclass <= 0 || m.nclass > t.n {
			return nil, fmt.Errorf("%w: trace cycle metadata declares %d classes of %d ranks",
				artifact.ErrFormat, m.nclass, t.n)
		}
		m.classOf = make([]int32, t.n)
		for i := range m.classOf {
			m.classOf[i] = d.I32()
		}
		m.cursors = make([]int32, 4*m.nclass)
		for i := range m.cursors {
			m.cursors[i] = d.I32()
		}
		meta = &m
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	if err := t.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", artifact.ErrFormat, err)
	}
	if err := t.finalize(); err != nil {
		return nil, fmt.Errorf("%w: %w", artifact.ErrFormat, err)
	}
	if meta != nil {
		if err := t.installCycle(meta); err != nil {
			return nil, fmt.Errorf("%w: %v", artifact.ErrFormat, err)
		}
	}
	return t, nil
}

// traceCycleMeta is the raw cycle block, held apart from the trace
// until installCycle validates it against the decoded tables.
type traceCycleMeta struct {
	period, prefix, cycles, gens int
	nclass                       int
	classOf                      []int32
	cursors                      []int32 // per class: first.srel, first.sop, last.srel, last.sop
}

// installCycle validates decoded cycle metadata and installs it: class
// ids in range, every class populated by ranks with identical scripts,
// and the geometry and cursors exactly what detection finds on the
// decoded script — generation count, a verified periodic run, and the
// cursors at the starts of its first and last cycles. Any inconsistency is
// an error (the caller maps it to ErrFormat and the pace layer quarantines
// the artifact); the replayer never sees an unvalidated cursor.
func (t *Trace) installCycle(m *traceCycleMeta) error {
	rep := make([]int32, m.nclass)
	for i := range rep {
		rep[i] = -1
	}
	for r, c := range m.classOf {
		if c < 0 || int(c) >= m.nclass {
			return fmt.Errorf("trace: rank %d cycle class %d of %d", r, c, m.nclass)
		}
		if rep[c] < 0 {
			rep[c] = int32(r)
		} else if !i32SliceEqual(
			t.script[t.sstart[r]:t.sstart[r+1]],
			t.script[t.sstart[rep[c]]:t.sstart[rep[c]+1]]) {
			return fmt.Errorf("trace: rank %d script differs from its cycle class", r)
		}
	}
	for c, r := range rep {
		if r < 0 {
			return fmt.Errorf("trace: cycle class %d has no ranks", c)
		}
	}
	// Check the declared generation count and the segment table's size
	// before segmentClasses allocates it.
	if g := t.rankGens(rep[0]); m.gens != g {
		return fmt.Errorf("trace: cycle metadata declares %d generations, class 0 runs %d", m.gens, g)
	}
	if m.nclass*m.gens > maxCycleSegments {
		return fmt.Errorf("trace: %d cycle classes of %d generations exceed %d segments",
			m.nclass, m.gens, maxCycleSegments)
	}
	segs, ok := t.segmentClasses(rep)
	if !ok {
		return fmt.Errorf("trace: cycle classes disagree on the generation count")
	}
	G := len(segs[0])
	// Bounding period and cycles by G first keeps the product from
	// overflowing on corrupt values.
	if m.period < 1 || m.period > G || m.prefix < 1 || m.cycles < cycMinCycles || m.cycles > G ||
		m.gens != G || m.prefix+m.cycles*m.period != G-1 {
		return fmt.Errorf("trace: cycle geometry %d/%d/%d/%d inconsistent with %d generations",
			m.period, m.prefix, m.cycles, m.gens, G)
	}
	if !t.verifyCycle(rep, segs, m.prefix, m.period, G-1) {
		return fmt.Errorf("trace: script is not periodic over the declared cycle")
	}
	cyc := traceCycle{
		detected: true, period: m.period, prefix: m.prefix,
		cycles: m.cycles, gens: m.gens, classOf: m.classOf,
		first: make([]cycCursor, m.nclass),
		last:  make([]cycCursor, m.nclass),
	}
	for c := 0; c < m.nclass; c++ {
		fs, fo := m.cursors[4*c], m.cursors[4*c+1]
		ls, lo := m.cursors[4*c+2], m.cursors[4*c+3]
		f, l := segs[c][m.prefix], segs[c][m.prefix+(m.cycles-1)*m.period]
		if fs != f.srel || fo != f.sop || ls != l.srel || lo != l.sop {
			return fmt.Errorf("trace: cycle class %d cursors off their generation starts", c)
		}
		ff, okf := t.fusedIndexAt(rep[c], fs, fo)
		lf, okl := t.fusedIndexAt(rep[c], ls, lo)
		if !okf || !okl {
			return fmt.Errorf("trace: cycle class %d cursor off fused-op boundary", c)
		}
		cyc.first[c] = cycCursor{srel: fs, sop: fo, fpos: ff}
		cyc.last[c] = cycCursor{srel: ls, sop: lo, fpos: lf}
	}
	t.cyc = cyc
	return nil
}

// validate checks the structural invariants recording guarantees, so a
// decoded trace drives the replayer exactly like a recorded one: monotone
// chunk and script tables, chunk ids, op kinds and table indices in range,
// header parameter maxima equal to the largest index the ops reference
// (Replay checks its tables against them), and every send and receive
// partner inside the world.
func (t *Trace) validate() error {
	if t.n <= 0 {
		return fmt.Errorf("trace: non-positive world size %d", t.n)
	}
	if t.nmarks < 0 || t.ops < 0 {
		return fmt.Errorf("trace: negative counters")
	}
	if t.nmarks > MaxMarks {
		return fmt.Errorf("trace: %d mark slots, at most %d", t.nmarks, MaxMarks)
	}
	nchunks := len(t.cstart) - 1
	if nchunks < 0 || t.cstart[0] != 0 || int(t.cstart[nchunks]) != len(t.chunkOps) {
		return fmt.Errorf("trace: malformed chunk table")
	}
	for i := 0; i < nchunks; i++ {
		if t.cstart[i] > t.cstart[i+1] {
			return fmt.Errorf("trace: chunk table not monotone at %d", i)
		}
	}
	if len(t.sstart) != t.n+1 || t.sstart[0] != 0 || int(t.sstart[t.n]) != len(t.script) {
		return fmt.Errorf("trace: malformed script table")
	}
	for r := 0; r < t.n; r++ {
		if t.sstart[r] > t.sstart[r+1] {
			return fmt.Errorf("trace: script table not monotone at rank %d", r)
		}
	}
	for i, c := range t.script {
		if c < 0 || int(c) >= nchunks {
			return fmt.Errorf("trace: script entry %d references chunk %d of %d", i, c, nchunks)
		}
	}
	// Every partner must land inside the world: each chunk's smallest and
	// largest partner offset, applied at every rank whose script runs the
	// chunk, stays in [0, n).
	lo, hi := make([]int64, nchunks), make([]int64, nchunks)
	maxCh, maxSz := int32(-1), int32(-1)
	for c := 0; c < nchunks; c++ {
		for i := t.cstart[c]; i < t.cstart[c+1]; i++ {
			o := &t.chunkOps[i]
			var bad bool
			switch o.kind {
			case topChargeLit, topChargeNoisy:
				bad = o.arg0 < 0 || int(o.arg0) >= len(t.lits)
			case topChargeParam, topCkpt:
				bad = o.arg0 < 0
				maxCh = max(maxCh, o.arg0)
			case topSendLit:
				bad = o.arg2 < 0 || int(o.arg2) >= len(t.sizes)
			case topSendParam:
				bad = o.arg2 < 0
				maxSz = max(maxSz, o.arg2)
			case topRecv:
			case topReduce:
				bad = o.arg0 < 0
			case topMark:
				bad = o.arg0 < 0 || int(o.arg0) >= t.nmarks
			default:
				return fmt.Errorf("trace: op %d has unknown kind %d", i, o.kind)
			}
			if bad {
				return fmt.Errorf("trace: op %d of kind %d indexes out of range", i, o.kind)
			}
			if o.kind == topRecv || o.kind == topSendLit || o.kind == topSendParam {
				lo[c], hi[c] = min(lo[c], int64(o.arg0)), max(hi[c], int64(o.arg0))
			}
		}
	}
	if maxCh != t.maxChPar || maxSz != t.maxSzPar {
		return fmt.Errorf("trace: header parameter maxima %d/%d, ops reference %d/%d",
			t.maxChPar, t.maxSzPar, maxCh, maxSz)
	}
	for r := 0; r < t.n; r++ {
		for _, c := range t.script[t.sstart[r]:t.sstart[r+1]] {
			if int64(r)+lo[c] < 0 || int64(r)+hi[c] >= int64(t.n) {
				return fmt.Errorf("trace: rank %d runs chunk %d with a partner outside %d ranks", r, c, t.n)
			}
		}
	}
	return nil
}
