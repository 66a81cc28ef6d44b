package mp

// Steady-state cycle detection and macro-op fusion for the trace backend.
//
// The wavefront schedule is periodic once the pipeline fills: after the
// fill/drain transients every rank repeats the same
// recv/recv/charge/send/send step with identical costs, so replaying all N
// iterations is redundant work. This file makes long-horizon replays cost
// nearly independent of the iteration count, in three layers:
//
//   - Macro-op fusion (build time): each interned chunk is compiled into a
//     fused program where the canonical steady-state step — up to two
//     receives, one parametric charge, up to two sends — becomes a single
//     fused op with sub-step resume state (rrank.fsub) for mid-macro
//     blocking. The non-extrapolated prefix/suffix sheds per-op dispatch
//     cost; scalar ops pass through with their send size index pre-unified.
//   - Cycle detection (build time): ranks are grouped into script-identity
//     classes, each class's script is cut at the chunks that close a
//     collective generation, and the generations' chunk-id runs are scanned
//     for the longest periodic run. A detected cycle records period, prefix
//     length, cycle count and, per class, the script positions of the
//     first and last recorded cycle bodies.
//   - Analytic extrapolation (replay time): a cycle that opens and closes
//     with idle streams inside one floating-point binade validates that
//     binade — every op rounds onto the binade's ulp grid the same way
//     wherever the cycle starts, unless a priced cost is a half-ulp tie
//     there, in which case two cycles with equal deltas are needed. The
//     replayer then jumps clocks forward by an exact multiple of the
//     delta, to the last cycle that ends inside the binade. The crossing
//     cycle is replayed for real and the next one re-validates on the far
//     side (cycBoundary; DESIGN.md has the argument).
//
// Correctness envelope: both replay loops run the fused program, but
// extrapolation runs only on the fused loop, the deterministic-cost
// unperturbed replay path. Jitter nets, noise, injected delays, fail-stop
// events and probes take the perturbed loop (runRankPerturbed), which
// executes macros sub-step by sub-step and never extrapolates, so those
// replays run in full. Jumps additionally require every message stream to
// be empty at the boundary — the transplant moves only the uniform post-collective
// clock, never in-flight state — and the final steady cycle is always
// replayed for real so marks written inside the cycle body carry their
// last-execution values. Under those rules extrapolated clocks and marks
// are bit-identical to the event backend.
//
// ReplayParams.ExtraCycles extends the virtual horizon beyond the recorded
// script: the replayer loops the recorded steady cycle bodies (rewinding
// cursors between repetitions) so a short recorded trace serves arbitrarily
// long iteration counts. internal/pace uses this to canonicalise long
// predictions onto one short compiled shape.
//
// A replay keeps nothing from the replays before it but table capacity:
// clocks, marks and ReplayStats are a function of its inputs alone, so a
// warmed replayer repeats what a cold one returns.

import (
	"errors"
	"math"
	"math/bits"
	"slices"
)

// ErrCannotExtrapolate is returned by Replay when ReplayParams.ExtraCycles
// is positive but the trace has no detected steady-state cycle, the replay
// options force a full-replay path (jitter, noise, delays, fail-stop,
// probes), or periodicity breaks mid-replay (in-flight messages across a
// cycle boundary). Callers fall back to a full-length trace.
var ErrCannotExtrapolate = errors.New("mp: trace replay cannot extrapolate (no usable steady-state cycle)")

// Fused op kinds, continuing the top kind space. Scalar ops keep their top
// kind except sends, which are normalised to fSend with the unified size
// index pre-resolved.
const (
	fSend  uint8 = 32 // send to stream slot arg1 of rank+arg0, unified size index arg2
	fMacro uint8 = 33 // nr recvs, one charge (literal or param), ns sends
)

// fop is one fused-program operation. Message ops carry stream slots
// (Trace.buildSlots) in place of (partner, tag) keys, so the fused loop
// indexes its streams and never searches for one.
type fop struct {
	// fMacro: arg0 and arg1 are the stream slots of recv 0 and recv 1, arg2
	// the charge index (literal or param, see clit). topRecv: arg0 is the
	// stream slot. fSend: see its kind. Other scalar kinds: as in top.
	arg0, arg1, arg2 int32
	// fMacro sends 0 and 1: destination offset, unified size index and the
	// receiver's stream slot.
	s0dst, s0u int32
	s1dst, s1u int32
	s0slot     uint8
	s1slot     uint8
	kind       uint8
	nr, ns     uint8
	clit       uint8 // 1: charge index arg2 is a literal (lits), else a param (charges)
}

// traceCycle is the detected steady-state structure of a trace. Cycle
// starts are per script-identity class; classOf maps ranks to classes.
type traceCycle struct {
	detected bool
	period   int // generations per cycle
	prefix   int // generations before the first cycle (>= 1)
	cycles   int // recorded cycle count (>= 3)
	classOf  []int32
	// Per class: the script position, relative to the rank's script, of the
	// chunk that opens the first (last) recorded cycle body.
	first, last []int32
}

// finalize derives the replay acceleration structures after the scalar
// tables are in place: the stream slots, the fused programs and the
// distinct collective payload sizes. traceRec.build calls it for every
// trace, recorded or class-compiled, and then detects the steady-state
// cycle.
func (t *Trace) finalize() error {
	slots, err := t.buildSlots()
	if err != nil {
		return err
	}
	t.buildFused(slots)
	t.collectReduceSizes()
	t.sharedMark = t.markShared()
	if t.n > 0 {
		t.gens = t.rankGens(0)
	}
	return nil
}

// markShared reports whether two ranks write one mark slot. The last write
// of such a slot depends on the order ranks run in, so the trace replays
// serially.
func (t *Trace) markShared() bool {
	nchunks := len(t.cstart) - 1
	var masks []uint8 // per chunk: the mark slots it writes
	for c := 0; c < nchunks; c++ {
		for _, o := range t.chunkOps[t.cstart[c]:t.cstart[c+1]] {
			if o.kind == topMark && o.arg0 >= 0 && o.arg0 < MaxMarks {
				if masks == nil {
					masks = make([]uint8, nchunks)
				}
				masks[c] |= 1 << o.arg0
			}
		}
	}
	if masks == nil {
		return false
	}
	var writer [MaxMarks]int
	for rank := 0; rank < t.n; rank++ {
		var m uint8
		for _, c := range t.script[t.sstart[rank]:t.sstart[rank+1]] {
			m |= masks[c]
		}
		for s := 0; m != 0; s, m = s+1, m>>1 {
			if m&1 == 0 {
				continue
			}
			if writer[s] != 0 {
				return true
			}
			writer[s] = rank + 1
		}
	}
	return false
}

// --- macro-op fusion ---

// buildFused compiles every interned chunk into its fused program. Fusion
// is a greedy per-chunk scan (macros never span chunks or collectives):
// up to two receives, exactly one charge (literal or parametric), up to
// two sends fuse into one fMacro; everything else passes through as a
// width-1 fused op. slots holds each chunk op's stream slot (buildSlots).
// The scan fills a buffer sized for the scalar op count, and the trace
// keeps an exact-size copy: macros leave about a third of that count, and
// a cached trace should hold no slack.
func (t *Trace) buildFused(slots []uint8) {
	nlit := int32(len(t.sizes))
	nchunks := len(t.cstart) - 1
	t.fstart = make([]int32, nchunks+1)
	fops := make([]fop, 0, len(t.chunkOps))
	macros := make([]int32, nchunks) // fused macros per chunk
	t.nmacroUnique = 0
	for c := 0; c < nchunks; c++ {
		ops := t.chunkOps[t.cstart[c]:t.cstart[c+1]]
		sl := slots[t.cstart[c]:t.cstart[c+1]]
		for i := 0; i < len(ops); {
			if f, n := fuseMacro(ops[i:], sl[i:], nlit); n > 0 {
				fops = append(fops, f)
				macros[c]++
				i += n
				continue
			}
			fops = append(fops, scalarFop(&ops[i], sl[i], nlit))
			i++
		}
		t.fstart[c+1] = int32(len(fops))
		t.nmacroUnique += int(macros[c])
	}
	t.fops = make([]fop, len(fops))
	copy(t.fops, fops)
	// Per-replay dispatch totals, summed over each rank's chunk sequence.
	t.fopsTotal, t.macroTotal = 0, 0
	for _, c := range t.script {
		t.fopsTotal += int(t.fstart[c+1] - t.fstart[c])
		t.macroTotal += int(macros[c])
	}
}

// fuseMacro tries to fuse a macro step at the head of ops, returning the
// fused op and the number of scalar ops consumed (0: no macro here). A
// macro needs at least one communication op around its charge; a lone
// charge stays scalar.
func fuseMacro(ops []top, slots []uint8, nlit int32) (fop, int) {
	var f fop
	i := 0
	for i < len(ops) && ops[i].kind == topRecv && f.nr < 2 {
		if f.nr == 0 {
			f.arg0 = int32(slots[i])
		} else {
			f.arg1 = int32(slots[i])
		}
		f.nr++
		i++
	}
	if i >= len(ops) || (ops[i].kind != topChargeParam && ops[i].kind != topChargeLit) {
		return fop{}, 0
	}
	if ops[i].kind == topChargeLit {
		f.clit = 1
	}
	f.arg2 = ops[i].arg0
	i++
	for i < len(ops) && (ops[i].kind == topSendLit || ops[i].kind == topSendParam) && f.ns < 2 {
		u := ops[i].arg2
		if ops[i].kind == topSendParam {
			u += nlit
		}
		if f.ns == 0 {
			f.s0dst, f.s0slot, f.s0u = ops[i].arg0, slots[i], u
		} else {
			f.s1dst, f.s1slot, f.s1u = ops[i].arg0, slots[i], u
		}
		f.ns++
		i++
	}
	if f.nr == 0 && f.ns == 0 {
		return fop{}, 0
	}
	f.kind = fMacro
	return f, i
}

// scalarFop lowers one scalar op into the fused program, replacing
// message tags with stream slots and pre-resolving send size indices into
// the unified table.
func scalarFop(o *top, slot uint8, nlit int32) fop {
	f := fop{kind: o.kind, arg0: o.arg0, arg1: o.arg1, arg2: o.arg2}
	switch o.kind {
	case topSendLit:
		f.kind, f.arg1 = fSend, int32(slot)
	case topSendParam:
		f.kind, f.arg1 = fSend, int32(slot)
		f.arg2 += nlit
	case topRecv:
		f.arg0, f.arg1 = int32(slot), 0
	}
	return f
}

// collectReduceSizes records the distinct collective payload byte counts
// referenced by the script. A cycle-tracked replay prices them into its
// cost-bit set (priceCostBits): a collective's price is added to the
// clocks it releases.
func (t *Trace) collectReduceSizes() {
	t.redSizes = t.redSizes[:0]
	for i := range t.chunkOps {
		if t.chunkOps[i].kind != topReduce {
			continue
		}
		b := 8 * int(t.chunkOps[i].arg0)
		seen := false
		for _, v := range t.redSizes {
			if v == b {
				seen = true
				break
			}
		}
		if !seen {
			t.redSizes = append(t.redSizes, b)
		}
	}
}

// --- cycle detection ---

const (
	// cycMaxPeriod bounds the period scan; the modelled workloads are
	// period 1 (one collective generation per iteration), the headroom
	// covers multi-collective iteration bodies.
	cycMaxPeriod = 64
	// cycMinCycles is the minimum recorded cycle count worth detecting:
	// replay-time validation consumes one or two cycles and the last
	// cycle is always replayed for real.
	cycMinCycles = 3
)

// detectCycle finds the steady-state cycle of the script, if any: ranks
// grouped into script-identity classes, each class's script cut into its
// collective generations, and the generation sequence scanned for the
// longest trailing periodic run (excluding the final generation, which
// becomes the suffix). The scan accepts the smallest period whose run
// covers at least cycMinCycles cycles with at least one prefix generation.
//
// A generation is a whole run of chunk ids: the recorder closes a chunk
// after every collective (traceRec.push), so each generation opens a fresh
// chunk and is cut into chunks the same way wherever it runs. Interning
// gives equal chunks one id, so two generations hold equal ops exactly
// when their id runs are equal.
func (t *Trace) detectCycle() {
	t.cyc = traceCycle{}
	G := t.gens
	// Minimum viable script: one prefix generation, cycMinCycles cycles,
	// one suffix generation.
	if G < cycMinCycles+2 {
		return
	}
	n := t.n
	classOf := make([]int32, n)
	// reps[c] is class c's lowest rank; first and next chain the classes
	// sharing a script hash, as traceRec.flush chains chunks.
	var reps, next []int32
	first := make(map[uint64]int32)
	scriptOf := func(r int32) []int32 { return t.script[t.sstart[r]:t.sstart[r+1]] }
	for r := 0; r < n; r++ {
		s := scriptOf(int32(r))
		h := uint64(1469598103934665603) ^ uint64(len(s))
		for _, v := range s {
			h ^= uint64(uint32(v))
			h *= 1099511628211
		}
		head, ok := first[h]
		if !ok {
			head = -1
		}
		cid := int32(-1)
		for cand := head; cand >= 0; cand = next[cand] {
			if slices.Equal(scriptOf(reps[cand]), s) {
				cid = cand
				break
			}
		}
		if cid < 0 {
			cid = int32(len(reps))
			reps = append(reps, int32(r))
			next = append(next, head)
			first[h] = cid
		}
		classOf[r] = cid
	}

	// bounds holds G+1 script positions per class: generation g of class c
	// is its script's [bounds[c*(G+1)+g], bounds[c*(G+1)+g+1]). A class
	// whose generation count differs from rank 0's rules out a global
	// cycle. A class with G generations runs at least G chunks, so the
	// table is never larger than the representatives' scripts.
	nclass := len(reps)
	bounds := make([]int32, 0, min(nclass*(G+1), len(t.script)+nclass))
	for _, r := range reps {
		k := len(bounds)
		bounds = append(bounds, 0)
		for i, ch := range scriptOf(r) {
			if t.closesGen(ch) {
				bounds = append(bounds, int32(i+1))
			}
		}
		if len(bounds)-k != G+1 {
			return
		}
	}
	gen := func(c, g int) []int32 {
		b := bounds[c*(G+1):]
		return scriptOf(reps[c])[b[g]:b[g+1]]
	}
	match := func(g, p int) bool {
		for c := 0; c < nclass; c++ {
			if !slices.Equal(gen(c, g), gen(c, g+p)) {
				return false
			}
		}
		return true
	}
	end := G - 1 // the final generation is always suffix
	maxP := cycMaxPeriod
	if lim := (end - 1) / cycMinCycles; lim < maxP {
		maxP = lim
	}
	for p := 1; p <= maxP; p++ {
		lo := end
		for g := end - 1 - p; g >= 1; g-- {
			if !match(g, p) {
				break
			}
			lo = g
		}
		m := (end - lo) / p
		if m < cycMinCycles {
			continue
		}
		g0 := end - m*p
		cyc := traceCycle{
			detected: true, period: p, prefix: g0, cycles: m,
			classOf: classOf,
			first:   make([]int32, nclass),
			last:    make([]int32, nclass),
		}
		for c := 0; c < nclass; c++ {
			cyc.first[c] = bounds[c*(G+1)+g0]
			cyc.last[c] = bounds[c*(G+1)+g0+(m-1)*p]
		}
		t.cyc = cyc
		return
	}
}

// closesGen reports whether chunk c closes a collective generation. The
// recorder closes a chunk after every collective, so a collective is
// always its chunk's last op, and recorded chunks are never empty.
func (t *Trace) closesGen(c int32) bool {
	return t.chunkOps[t.cstart[c+1]-1].kind == topReduce
}

// rankGens counts the collective generations of one rank's script.
func (t *Trace) rankGens(rank int32) int {
	g := 0
	for _, ch := range t.script[t.sstart[rank]:t.sstart[rank+1]] {
		if t.closesGen(ch) {
			g++
		}
	}
	return g
}

// --- trace accessors ---

// CycleDetected reports whether the trace carries a steady-state cycle
// usable for replay-time extrapolation.
func (t *Trace) CycleDetected() bool { return t.cyc.detected }

// CyclePeriod returns the detected cycle's period in collective
// generations (0 when no cycle was detected).
func (t *Trace) CyclePeriod() int { return t.cyc.period }

// CycleCount returns the number of recorded steady cycles (0 when no
// cycle was detected).
func (t *Trace) CycleCount() int { return t.cyc.cycles }

// CyclePrefixGens returns the number of collective generations before the
// first steady cycle (0 when no cycle was detected).
func (t *Trace) CyclePrefixGens() int { return t.cyc.prefix }

// FusedUniqueOps returns the fused-program op count after chunk interning
// and macro fusion — the dispatch footprint actually resident in memory.
// Compare UniqueOps (interned scalar ops) and Ops (recorded scalar ops).
func (t *Trace) FusedUniqueOps() int { return len(t.fops) }

// MacroUniqueOps returns how many of the interned fused ops are fused
// macro steps.
func (t *Trace) MacroUniqueOps() int { return t.nmacroUnique }

// FusedOps returns the total fused-op dispatch count of one full
// (non-extrapolated) replay, the fused analogue of Ops.
func (t *Trace) FusedOps() int { return t.fopsTotal }

// MacroOps returns how many of one full replay's fused dispatches are
// macro steps.
func (t *Trace) MacroOps() int { return t.macroTotal }

// --- replay-time extrapolation ---

// ReplayStats reports the cycle bookkeeping of the last Replay call.
type ReplayStats struct {
	// CycleDetected mirrors Trace.CycleDetected for the replayed trace.
	CycleDetected bool
	// ReplayedCycles counts steady cycles executed op by op.
	ReplayedCycles int
	// ExtrapolatedCycles counts steady cycles skipped analytically instead
	// of replayed.
	ExtrapolatedCycles int
	// Workers is how many workers ran the replay: 1 for a serial replay,
	// more for a parallel fused one (parallel.go).
	Workers int
	// Serial names why an unperturbed replay ran on one worker:
	// SerialSmallTrace, SerialNoIdleCPU or SerialSharedMark. It is empty
	// for parallel and perturbed replays.
	Serial string
}

// Stats returns the cycle/extrapolation counters of the last Replay.
func (r *Replayer) Stats() ReplayStats {
	return ReplayStats{
		CycleDetected:      r.t != nil && r.t.cyc.detected,
		ReplayedCycles:     r.statReplayed,
		ExtrapolatedCycles: r.statExtrapolated,
		Workers:            max(len(r.ws), 1),
		Serial:             r.serial,
	}
}

// sameBinade reports whether two non-negative floats share an exponent —
// the region where the representable values form a uniform grid and
// same-grid differences and iterated additions are exact.
func sameBinade(a, b float64) bool {
	const expMask = 0x7FF0000000000000
	return math.Float64bits(a)&expMask == math.Float64bits(b)&expMask
}

// costBits is the set of lowest-set-bit exponents of a replay's priced
// costs: bit i is set when some cost's lowest set bit is 2^(i-1074), the
// float64 exponents running from -1074 (the smallest subnormal) to 971.
// bad records a negative or non-finite cost, under which clocks need not
// rise monotonically through a cycle.
type costBits struct {
	lsb [33]uint64
	bad bool
}

// add enters one cost that the fused loop adds to a clock. Zero adds
// nothing and enters nothing.
func (s *costBits) add(c float64) {
	if !(c >= 0) || math.IsInf(c, 1) {
		s.bad = true
		return
	}
	b := math.Float64bits(c)
	if b == 0 {
		return
	}
	ef, frac := b>>52, b&(1<<52-1)
	i := uint64(bits.TrailingZeros64(frac)) // subnormal: c = frac·2^-1074
	if ef != 0 {
		i = uint64(bits.TrailingZeros64(frac|1<<52)) + ef - 1
	}
	s.lsb[i>>6] |= 1 << (i & 63)
}

func (s *costBits) addAll(cs []float64) {
	for _, c := range cs {
		s.add(c)
	}
}

// tieAt reports whether some cost is an exact half-ulp tie in d's binade:
// its lowest set bit is u/2 for the binade's ulp u, so adding it to a clock
// on the binade's grid rounds half-to-even, and the result depends on the
// clock's parity. For a biased exponent F, u/2 = 2^(F-1076), which is bit
// F-2; the two lowest binades share the subnormal grid, which no cost can
// split.
func (s *costBits) tieAt(d float64) bool {
	f := math.Float64bits(d) >> 52 & 0x7FF
	if f < 2 {
		return false
	}
	i := f - 2
	return s.lsb[i>>6]&(1<<(i&63)) != 0
}

// priceCostBits rebuilds r.costs from every cost the fused loop can add to
// a clock this replay: positive charge parameters (the loop skips the
// rest), literal charges, the send, transit and receive tables, and the
// price of every collective payload size (Trace.redSizes). Called from
// prepare when the replay tracks a cycle.
func (r *Replayer) priceCostBits() {
	t := r.t
	r.costs = costBits{}
	for _, c := range r.charges {
		if c > 0 {
			r.costs.add(c)
		}
	}
	r.costs.addAll(t.lits)
	if net := r.opts.Net; net != nil {
		r.costs.addAll(r.sendSec)
		r.costs.addAll(r.availSec)
		r.costs.addAll(r.recvSec)
		for _, b := range t.redSizes {
			r.costs.add(net.ReduceCost(t.n, b, nil))
		}
	}
}

// streamsIdle reports whether no replay message is in flight — the
// precondition for any cursor transplant: a jump moves clocks and cursors,
// never queued messages. On a parallel replay a message flushed to a
// worker that has not applied it yet is in flight too.
func (r *Replayer) streamsIdle() bool {
	for i := range r.streams {
		if st := &r.streams[i]; st.head < int32(len(st.msgs)) {
			return false
		}
	}
	return len(r.ws) < 2 || r.par.boxesEmpty()
}

// cycReposition transplants every rank to the start of a recorded cycle
// body (the first, or the last when last is set) at the uniform boundary
// clock D. Valid only when streamsIdle held: the state is then exactly
// what natural flow produces at that cycle's opening boundary.
func (r *Replayer) cycReposition(D float64, last bool) {
	t := r.t
	cy := &t.cyc
	cur := cy.first
	r.cycRec = 0
	if last {
		cur = cy.last
		r.cycRec = cy.cycles - 1
	}
	for i := 0; i < t.n; i++ {
		k := &r.rk[i]
		k.clock = D
		k.spos = t.sstart[i] + cur[cy.classOf[i]]
		k.opos = 0
		k.fsub = 0
		k.status = evReady
		k.collResolved = false
	}
	for _, w := range r.ws {
		w.collWaiters = w.collWaiters[:0]
		w.seed(D)
	}
}

// cycBoundary is the steady-state engine, called by the fused loop's
// collective-close arm (after the generation is priced into done, before
// waiters are woken). It returns true when it repositioned every rank —
// the closer then returns without waking or writing back its own state.
//
// A cycle validates its binade when it opened and closed with every
// stream idle and both of its boundary clocks lie in one binade. Opened
// idle, the cycle is a pure function of its uniform opening clock. Inside
// one binade every op of it rounds the same wherever that clock sits,
// unless a priced cost is a half-ulp tie there (costBits; DESIGN.md,
// "Extrapolation at replay", has the argument op by op). So one validating
// cycle fixes the delta of every cycle that ends inside the binade, and a
// tie binade needs two with equal deltas, one for each parity of the
// opening clock. The replayer then jumps to the last cycle that ends
// strictly below the binade top; that cycle crosses into the next binade
// for real, the one after it validates again, and so on.
func (r *Replayer) cycBoundary(done float64) bool {
	cy := &r.t.cyc
	g := r.cycGen
	r.cycGen++
	d := g - (cy.prefix - 1)
	if d < 0 || d%cy.period != 0 {
		return false
	}
	idle := r.streamsIdle()
	if d == 0 {
		// End of the prefix: the first steady cycle opens here.
		r.cycPrevD, r.cycOpenIdle, r.cycStreak = done, idle, 0
		return false
	}
	// A full steady cycle just completed.
	r.cycDone++
	r.cycRec++
	r.statReplayed++
	prev := r.cycPrevD
	delta := done - prev
	r.cycPrevD = done
	if r.cycOpenIdle && idle && done >= prev && sameBinade(prev, done) {
		if r.cycStreak > 0 && delta == r.cycDelta {
			r.cycStreak++
		} else {
			r.cycDelta, r.cycStreak = delta, 1
		}
	} else {
		r.cycStreak = 0
	}
	r.cycOpenIdle = idle
	remaining := r.cycVirt - r.cycDone
	if remaining <= 0 {
		r.cycOn = false // suffix follows naturally
		return false
	}
	if k, D := r.cycJump(prev, done, remaining); k > 0 {
		r.cycDone += k
		r.statExtrapolated += k
		remaining -= k
		r.cycReposition(D, remaining == 1)
		r.cycPrevD = D
		return true
	}
	if remaining == 1 {
		// The next cycle is the final one: it must run from the last
		// recorded body so the suffix follows it.
		if r.cycRec == cy.cycles-1 {
			return false
		}
		if !idle {
			r.cycErr = ErrCannotExtrapolate
			return false
		}
		r.cycReposition(done, true)
		return true
	}
	if r.cycRec >= cy.cycles {
		// Recorded steady cycles exhausted with virtual cycles left:
		// rewind to the first recorded body.
		if !idle {
			r.cycErr = ErrCannotExtrapolate
			return false
		}
		r.cycReposition(done, false)
		return true
	}
	return false
}

// cycJump sizes the jump after the cycle that opened at prev and closed at
// done: k further cycles, each assigned the validated delta, reaching the
// boundary clock D. It covers every cycle that ends strictly below the top
// of done's binade, capped at remaining-1 (the final cycle is always
// replayed for real), and is 0 when the streak does not validate the
// binade. The count is integer arithmetic in units of the binade's ulp u:
// with both clocks in one binade, their bit patterns differ by delta/u,
// and the top of the binade lies (top-done)/u patterns above done.
func (r *Replayer) cycJump(prev, done float64, remaining int) (k int, D float64) {
	if r.cycStreak < 1 {
		return 0, 0
	}
	k = remaining - 1
	if done == prev {
		return k, done // a fixed point: every later cycle opens and closes at done
	}
	if r.costs.bad || (r.cycStreak < 2 && r.costs.tieAt(done)) {
		return 0, 0
	}
	b := math.Float64bits(done)
	step := b - math.Float64bits(prev)
	top := (b>>52 + 1) << 52
	if h := (top - b - 1) / step; h < uint64(k) {
		k = int(h)
	}
	return k, math.Float64frombits(b + uint64(k)*step)
}

// --- fused replay loop ---

// runRankFused is the deterministic-cost unperturbed hot loop over the
// fused program: macro steps execute as one dispatch with sub-step resume
// (rrank.fsub counts consumed receives when parked mid-macro), sends use
// pre-resolved unified size indices, and the collective-close arm drives
// cycBoundary. Costs and schedule law are identical to runRankPerturbed's,
// so clocks stay bit-identical; only dispatch overhead differs. The
// per-op arms are written out here rather than shared with the perturbed
// loop: moving send pricing and receive consumption into shared methods
// measured 5-12% more time per fused op (servebench predict_replay,
// mp.replay_ns_per_fused_op, 2-vCPU Xeon VM).
func (w *rworker) runRankFused(id int) {
	r := w.r
	t := r.t
	net := r.opts.Net
	cnet, ns := r.cnet, r.ns
	lits, charges := t.lits, r.charges
	sendSec, availSec, recvSec := r.sendSec, r.availSec, r.recvSec
	self := &w.rk[id]
	streams := w.streams[(id-w.lo)*w.nslots : (id-w.lo+1)*w.nslots]
	clock := self.clock
	sp, op := self.spos, self.opos
	sub := self.fsub
	self.fsub = 0
	sEnd := t.sstart[id+1]
	var chunk []fop
	if sp < sEnd {
		c := t.script[sp]
		chunk = t.fops[t.fstart[c]:t.fstart[c+1]]
	}
	for {
		if int(op) >= len(chunk) {
			if sp >= sEnd {
				break
			}
			sp++
			op = 0
			if sp >= sEnd {
				break
			}
			c := t.script[sp]
			chunk = t.fops[t.fstart[c]:t.fstart[c+1]]
			continue
		}
		f := &chunk[op]
		switch f.kind {
		case fMacro:
			if f.nr > 0 && sub == 0 {
				m, ok := streams[f.arg0].take()
				if !ok {
					self.clock = clock
					self.spos, self.opos = sp, op
					self.status = evBlocked
					return // fsub already 0: resume re-executes recv 0
				}
				if m.avail > clock {
					clock = m.avail
				}
				if net != nil {
					clock += m.recv
				}
				sub = 1
			}
			if f.nr > 1 {
				m, ok := streams[f.arg1].take()
				if !ok {
					self.clock = clock
					self.spos, self.opos = sp, op
					self.status = evBlocked
					self.fsub = 1 // recv 0 consumed; resume at recv 1
					return
				}
				if m.avail > clock {
					clock = m.avail
				}
				if net != nil {
					clock += m.recv
				}
			}
			sub = 0
			var s float64
			if f.clit != 0 {
				s = lits[f.arg2]
			} else {
				s = charges[f.arg2]
			}
			if s > 0 {
				clock += s
			}
			if f.ns > 0 {
				dst := id + int(f.s0dst)
				start := clock
				avail := start
				var recv float64
				if net != nil {
					ui := int(f.s0u)
					if cnet != nil {
						ui += cnet.ClassOf(id, dst) * ns
					}
					clock = start + sendSec[ui]
					avail = start + availSec[ui]
					recv = recvSec[ui]
				}
				w.deliver(dst, f.s0slot, avail, recv)
			}
			if f.ns > 1 {
				dst := id + int(f.s1dst)
				start := clock
				avail := start
				var recv float64
				if net != nil {
					ui := int(f.s1u)
					if cnet != nil {
						ui += cnet.ClassOf(id, dst) * ns
					}
					clock = start + sendSec[ui]
					avail = start + availSec[ui]
					recv = recvSec[ui]
				}
				w.deliver(dst, f.s1slot, avail, recv)
			}
		case topChargeParam, topCkpt:
			if s := charges[f.arg0]; s > 0 {
				clock += s
			}
		case topChargeLit, topChargeNoisy:
			// Noise is nil on this path (noise takes the perturbed loop),
			// so a noisy charge replays at its recorded literal.
			clock += lits[f.arg0]
		case fSend:
			dst := id + int(f.arg0)
			start := clock
			avail := start
			var recv float64
			if net != nil {
				ui := int(f.arg2)
				if cnet != nil {
					ui += cnet.ClassOf(id, dst) * ns
				}
				clock = start + sendSec[ui]
				avail = start + availSec[ui]
				recv = recvSec[ui]
			}
			w.deliver(dst, uint8(f.arg1), avail, recv)
		case topRecv:
			m, ok := streams[f.arg0].take()
			if !ok {
				self.clock = clock
				self.spos, self.opos = sp, op
				self.status = evBlocked
				return
			}
			if m.avail > clock {
				clock = m.avail
			}
			if net != nil {
				clock += m.recv
			}
		case topReduce:
			if self.collResolved {
				self.collResolved = false
				clock = self.collDone
				break
			}
			done, closed := w.reduce(id, clock, f.arg0)
			if !closed {
				self.clock = clock
				self.spos, self.opos = sp, op
				self.status = rBlockedColl
				return
			}
			if r.cycOn && r.cycBoundary(done) {
				// Repositioned: every rank (this one included) was reseeded
				// at the target cycle; local cursors are stale, so return
				// without waking or writing back.
				return
			}
			w.release(done)
			clock = done
		case topMark:
			r.marks[f.arg0] = clock
		}
		op++
	}
	self.clock = clock
	self.spos, self.opos = sp, 0
	self.status = evDone
	w.doneCount++
}
