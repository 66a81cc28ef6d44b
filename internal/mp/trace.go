package mp

// The trace-compiled replay backend: recorded (or class-compiled)
// communication scripts replayed by a Replayer.
//
// Rationale: the event backend already removed locks and broadcast wake-ups,
// but every genuine block/wake still crosses two buffered-channel hops (park
// the blocking rank's goroutine, resume the next one). For the serving
// workloads — thousands of speculative sweep points whose rank control flow
// is identical — even that is waste: the communication structure of a run is
// deterministic, so it can be *recorded once* and then *replayed* in a flat,
// single-goroutine event loop with no channels, no goroutines, and no
// per-op allocations at all.
//
// A trace comes from one of two builders and is then replayed:
//
//   - Recording: World.RunRecorded executes the rank function for real on
//     the event machinery, while each Comm operation appends one compact op
//     to the recording rank's script: sends and receives with their partner
//     (delta-encoded), tag and wire size; compute charges; collectives;
//     marks. The recording run is itself a valid run — its clocks are the
//     event backend's, bit for bit.
//   - Class compile: CompileClasses builds the same trace without running
//     every rank. The caller names each rank's class, under the contract
//     that a rank's delta-encoded op stream depends only on its class. The
//     rank function runs once, for the lowest rank of each class, on a
//     script-only Comm that records and does nothing else, and the other
//     ranks share their representative's chunk-id sequence. internal/pace
//     compiles every template trace this way, from at most nine boundary
//     classes.
//   - Replay: Replayer.Replay executes the script in a goroutine-free
//     state machine that mirrors the event
//     scheduler's min-(clock, id) schedule with the same handoff-slot +
//     clock-heap structure — but a "handoff" is now an array index swap
//     instead of a channel send, and a "blocked rank" is three words of
//     saved cursor state instead of a parked goroutine.
//
// Replays are timing replays: virtual clocks, marks and the schedule are
// bit-identical to the event backend, but payload data does not flow and
// collective *values* are not reproduced (the rank function is not
// executed). Programs whose communication structure depends on received
// values cannot use this backend; the repo's modelled workloads (skeleton
// and template evaluation) never do.
//
// Costs are parameters of replay, not of the script. Wire sizes and compute
// charges are stored in side tables; ops reference table indices. Literal
// operations (SendN, Charge, ChargeExact) intern their values into the
// trace's own tables, while the parameterised operations (SendParam,
// ChargeParam) reference the caller-supplied tables of World.SetParams —
// so one recorded script can be replayed under different hardware models
// and cost kernels (see ReplayParams and internal/pace's shape-keyed trace
// compilation). Replays re-price everything from the replay-time
// NetworkModel, which must declare DeterministicCosts (or be nil): each
// distinct (cost class, size) pair is priced once per replay into flat
// arrays, so the per-op loop does no interface calls at all. A net that
// draws its costs from the rank streams is refused with ErrDrawingNet; the
// event backend runs it.
//
// Memory: per-rank scripts are delta-encoded (a send stores dst-rank, so
// every interior rank of a regular decomposition produces byte-identical
// ops) and interned in fixed-size chunks shared across ranks. An 8000-rank
// wavefront whose raw op stream would be tens of millions of ops compacts
// to a handful of distinct boundary-signature scripts — a few MB — and the
// interning happens online during recording, so the raw stream never
// materialises.
//
// Canonical order: a finished trace numbers its chunks in order of first
// appearance over ranks 0..n-1, and its literal tables in order of first
// appearance over those chunks. A recording run interns in the event
// schedule's order and a class compile in class order; canonical order
// makes both give the same trace.

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// MaxMarks is the number of mark slots a World carries (Comm.Mark).
const MaxMarks = 8

// Trace op kinds.
const (
	topChargeLit   uint8 = iota // clock += lits[arg0]
	topChargeNoisy              // clock += Perturb(lits[arg0], rank rng)
	topChargeParam              // clock += params.Charges[arg0] if positive
	topSendLit                  // send to rank+arg0, tag arg1, bytes sizes[arg2]
	topSendParam                // send to rank+arg0, tag arg1, bytes params.Sizes[arg2]
	topRecv                     // receive from rank+arg0, tag arg1
	topReduce                   // collective of payload length arg0
	topMark                     // marks[arg0] = clock
	topCkpt                     // clock += params.Charges[arg0] if positive; sets the failure rewind point
)

// top is one recorded operation. Partners are delta-encoded (arg0 holds
// dst-rank or src-rank) so that ranks with the same boundary signature
// produce identical op streams and share interned chunks.
type top struct {
	arg0 int32 // see the kind table above
	arg1 int32 // send/recv: tag
	arg2 int32 // send: size-table index
	kind uint8
}

// traceChunkOps is the interning granularity: scripts are split into
// chunks of this many ops and deduplicated across ranks (and across the
// repetitions within one rank). It bounds recording memory to
// n*traceChunkOps ops of open buffers regardless of program length.
const traceChunkOps = 128

// Trace is a recorded communication script: per-rank sequences of chunk
// ids over a shared interned chunk pool, plus the literal cost tables.
// A Trace is immutable after recording and safe to replay from any number
// of Replayers concurrently.
type Trace struct {
	n        int
	chunkOps []top     // interned chunk payloads, concatenated
	cstart   []int32   // chunk c occupies chunkOps[cstart[c]:cstart[c+1]]
	script   []int32   // concatenated per-rank chunk-id sequences
	sstart   []int32   // rank r's chunk ids are script[sstart[r]:sstart[r+1]]
	lits     []float64 // interned literal charges
	sizes    []int32   // interned literal wire sizes
	nmarks   int       // mark slots referenced (max slot + 1)
	maxChPar int32     // largest ChargeParam index referenced; -1 none
	maxSzPar int32     // largest SendParam size index referenced; -1 none
	ops      int       // total (pre-interning) op count

	// Derived replay acceleration state, built by finalize() when a
	// recording run or a class compile builds the trace; immutable like
	// the rest.
	nslots       int        // distinct message streams per rank (buildSlots)
	fops         []fop      // fused programs, per chunk (see tracecycle.go)
	fstart       []int32    // chunk c's fused ops are fops[fstart[c]:fstart[c+1]]
	nmacroUnique int        // interned fused macro count
	fopsTotal    int        // fused dispatches per full replay
	macroTotal   int        // macro dispatches per full replay
	redSizes     []int      // distinct collective payload byte counts
	sharedMark   bool       // some mark slot has two writer ranks (parallel.go)
	gens         int        // collective generations (rank 0's collectives)
	cyc          traceCycle // detected steady-state cycle (tracecycle.go)
}

// Ranks returns the world size the trace was recorded on.
func (t *Trace) Ranks() int { return t.n }

// RankOps returns the number of recorded operations in one rank's script —
// the exclusive upper bound of the Delay.Op coordinate for that rank.
func (t *Trace) RankOps(rank int) int {
	n := 0
	for _, c := range t.script[t.sstart[rank]:t.sstart[rank+1]] {
		n += int(t.cstart[c+1] - t.cstart[c])
	}
	return n
}

// OpIndexOfReduce returns the op index (the position in the rank's
// recorded op stream — the coordinate Delay.Op uses) of the rank's k-th
// collective, 0-based, or -1 if the rank records fewer than k+1
// collectives. It converts iteration-structured injection points into
// exact op indices: for a program that ends every iteration with one
// collective, iteration i starts at op 0 when i == 0 and at
// OpIndexOfReduce(rank, i-1)+1 otherwise.
func (t *Trace) OpIndexOfReduce(rank, k int) int {
	idx := 0
	for _, c := range t.script[t.sstart[rank]:t.sstart[rank+1]] {
		ops := t.chunkOps[t.cstart[c]:t.cstart[c+1]]
		for i := range ops {
			if ops[i].kind == topReduce {
				if k == 0 {
					return idx
				}
				k--
			}
			idx++
		}
	}
	return -1
}

// Ops returns the total recorded op count (before chunk interning).
func (t *Trace) Ops() int { return t.ops }

// UniqueOps returns the op count after chunk interning — the trace's
// actual memory footprint in ops.
func (t *Trace) UniqueOps() int { return len(t.chunkOps) }

// ReplayParams are the replay-time parameter tables referenced by
// ChargeParam and SendParam ops. Traces recorded without parameterised
// operations replay with zero-value params.
type ReplayParams struct {
	Charges []float64
	Sizes   []int

	// ExtraCycles extends the replay's virtual horizon by that many
	// repetitions of the trace's detected steady-state cycle beyond the
	// recorded count: the replayer loops the recorded cycle bodies (and
	// extrapolates across them when validated), so a short recorded trace
	// serves arbitrarily long iteration counts. Requires a detected cycle
	// and the deterministic unperturbed replay path; Replay returns
	// ErrCannotExtrapolate otherwise. 0 replays exactly as recorded.
	ExtraCycles int
}

// --- recording ---

// traceRec accumulates a trace during a recording run. The event backend
// runs exactly one rank at a time, so the recorder needs no locking.
type traceRec struct {
	n          int
	scriptOnly bool      // CompileClasses: Comm ops stop after recording
	buf        [][]top   // per-rank open chunk (flushed at traceChunkOps)
	scripts    [][]int32 // per-rank chunk-id sequences

	chunkOps []top
	cstart   []int32
	first    map[uint64]int32 // chunk content hash -> latest chunk id with it
	next     []int32          // chunk id -> earlier chunk id with its hash; -1 none

	zeros []float64 // script-only collective results (Comm.reduce)

	lits    []float64
	litIdx  map[float64]int32
	sizes   []int32
	sizeIdx map[int]int32

	nmarks   int
	maxChPar int32
	maxSzPar int32
	ops      int
}

// recChunks is the chunk capacity a recorder starts with. A 2x2 template
// trace at 12 iterations interns about 92 chunks and a 64x64 one about
// 250, so the chunk tables grow once or twice rather than a dozen times.
const recChunks = 64

func newTraceRec(n int) *traceRec {
	return &traceRec{
		n:        n,
		buf:      make([][]top, n),
		scripts:  make([][]int32, n),
		chunkOps: make([]top, 0, recChunks*traceChunkOps),
		cstart:   append(make([]int32, 0, recChunks+1), 0),
		first:    make(map[uint64]int32, recChunks),
		next:     make([]int32, 0, recChunks),
		litIdx:   make(map[float64]int32),
		sizeIdx:  make(map[int]int32),
		maxChPar: -1,
		maxSzPar: -1,
	}
}

func (r *traceRec) push(rank int, o top) {
	if r.buf[rank] == nil {
		r.buf[rank] = make([]top, 0, traceChunkOps)
	}
	r.buf[rank] = append(r.buf[rank], o)
	r.ops++
	if len(r.buf[rank]) == traceChunkOps {
		r.flush(rank)
	}
}

// flush interns the rank's open chunk and appends its id to the rank's
// script. Equal chunks (same content) share one id across all ranks.
func (r *traceRec) flush(rank int) {
	ops := r.buf[rank]
	if len(ops) == 0 {
		return
	}
	h := chunkHash(ops)
	head, ok := r.first[h]
	if !ok {
		head = -1
	}
	id := int32(-1)
	for cand := head; cand >= 0; cand = r.next[cand] {
		if slices.Equal(r.chunkOps[r.cstart[cand]:r.cstart[cand+1]], ops) {
			id = cand
			break
		}
	}
	if id < 0 {
		id = int32(len(r.cstart) - 1)
		if cap(r.chunkOps)-len(r.chunkOps) < len(ops) {
			// Double the pool: append grows a slice this large by 1.25x.
			r.chunkOps = slices.Grow(r.chunkOps, len(r.chunkOps)+len(ops))
		}
		r.chunkOps = append(r.chunkOps, ops...)
		r.cstart = append(r.cstart, int32(len(r.chunkOps)))
		r.next = append(r.next, head)
		r.first[h] = id
	}
	r.scripts[rank] = append(r.scripts[rank], id)
	r.buf[rank] = r.buf[rank][:0]
}

func chunkHash(ops []top) uint64 {
	h := uint64(1469598103934665603) ^ uint64(len(ops))
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for i := range ops {
		o := &ops[i]
		mix(uint64(uint32(o.arg0)))
		mix(uint64(uint32(o.arg1)))
		mix(uint64(uint32(o.arg2)))
		mix(uint64(o.kind))
	}
	return h
}

func (r *traceRec) chargeLit(rank int, sec float64, noisy bool) {
	idx, ok := r.litIdx[sec]
	if !ok {
		idx = int32(len(r.lits))
		r.lits = append(r.lits, sec)
		r.litIdx[sec] = idx
	}
	k := topChargeLit
	if noisy {
		k = topChargeNoisy
	}
	r.push(rank, top{kind: k, arg0: idx})
}

func (r *traceRec) chargeParam(rank, i int) {
	if int32(i) > r.maxChPar {
		r.maxChPar = int32(i)
	}
	r.push(rank, top{kind: topChargeParam, arg0: int32(i)})
}

func (r *traceRec) send(rank, dst, tag, bytes int, paramIdx int32) {
	if paramIdx >= 0 {
		if paramIdx > r.maxSzPar {
			r.maxSzPar = paramIdx
		}
		r.push(rank, top{kind: topSendParam, arg0: int32(dst - rank), arg1: int32(tag), arg2: paramIdx})
		return
	}
	idx, ok := r.sizeIdx[bytes]
	if !ok {
		idx = int32(len(r.sizes))
		r.sizes = append(r.sizes, int32(bytes))
		r.sizeIdx[bytes] = idx
	}
	r.push(rank, top{kind: topSendLit, arg0: int32(dst - rank), arg1: int32(tag), arg2: idx})
}

func (r *traceRec) recv(rank, src, tag int) {
	r.push(rank, top{kind: topRecv, arg0: int32(src - rank), arg1: int32(tag)})
}

func (r *traceRec) reduce(rank, payloadLen int) {
	r.push(rank, top{kind: topReduce, arg0: int32(payloadLen)})
}

// zeroResult is a script-only collective's result: payloadLen zeros in a
// buffer the recorder reuses, since no values flow in a script-only run.
func (r *traceRec) zeroResult(payloadLen int) []float64 {
	if payloadLen > len(r.zeros) {
		r.zeros = make([]float64, payloadLen)
	}
	out := r.zeros[:payloadLen:payloadLen]
	clear(out)
	return out
}

func (r *traceRec) mark(rank, slot int) {
	if slot+1 > r.nmarks {
		r.nmarks = slot + 1
	}
	r.push(rank, top{kind: topMark, arg0: int32(slot)})
}

func (r *traceRec) ckpt(rank, i int) {
	if int32(i) > r.maxChPar {
		r.maxChPar = int32(i)
	}
	r.push(rank, top{kind: topCkpt, arg0: int32(i)})
}

// build finalises the trace: tail chunks are flushed, per-rank scripts
// concatenated into the flat script/sstart layout, the tables put in
// canonical order (canonicalize) and the derived replay state built. A
// class compile runs one rank at a time, in rank order, so it interns in
// canonical order already and skips canonicalize. build fails only when
// the program uses more message streams than a replayer can hold
// (ErrTooManyStreams).
func (r *traceRec) build() (*Trace, error) {
	total := 0
	for rank := 0; rank < r.n; rank++ {
		r.flush(rank)
		total += len(r.scripts[rank])
	}
	t := &Trace{
		n:        r.n,
		chunkOps: r.chunkOps,
		cstart:   r.cstart,
		script:   make([]int32, 0, total),
		sstart:   make([]int32, r.n+1),
		lits:     r.lits,
		sizes:    r.sizes,
		nmarks:   r.nmarks,
		maxChPar: r.maxChPar,
		maxSzPar: r.maxSzPar,
		ops:      r.ops,
	}
	for rank := 0; rank < r.n; rank++ {
		t.sstart[rank] = int32(len(t.script))
		t.script = append(t.script, r.scripts[rank]...)
	}
	t.sstart[r.n] = int32(len(t.script))
	if r.scriptOnly {
		// The pool grows by doubling; a cached trace keeps no slack.
		t.chunkOps = slices.Clone(t.chunkOps)
	} else {
		t.canonicalize()
	}
	if err := t.finalize(); err != nil {
		return nil, err
	}
	t.detectCycle()
	return t, nil
}

// canonicalize puts the chunks and the literal tables in canonical order
// (see the top of this file). Every interned chunk is referenced by some
// rank, so the chunk renumbering is a permutation.
func (t *Trace) canonicalize() {
	nchunks := len(t.cstart) - 1
	remap := make([]int32, nchunks)
	for i := range remap {
		remap[i] = -1
	}
	ops := make([]top, 0, len(t.chunkOps))
	cstart := make([]int32, 1, nchunks+1)
	for i, c := range t.script {
		if remap[c] < 0 {
			remap[c] = int32(len(cstart) - 1)
			ops = append(ops, t.chunkOps[t.cstart[c]:t.cstart[c+1]]...)
			cstart = append(cstart, int32(len(ops)))
		}
		t.script[i] = remap[c]
	}
	t.chunkOps, t.cstart = ops, cstart

	litMap := make([]int32, len(t.lits))
	sizeMap := make([]int32, len(t.sizes))
	var lits []float64
	var sizes []int32
	for i := range ops {
		o := &ops[i]
		switch o.kind {
		case topChargeLit, topChargeNoisy:
			if litMap[o.arg0] == 0 {
				lits = append(lits, t.lits[o.arg0])
				litMap[o.arg0] = int32(len(lits))
			}
			o.arg0 = litMap[o.arg0] - 1
		case topSendLit:
			if sizeMap[o.arg2] == 0 {
				sizes = append(sizes, t.sizes[o.arg2])
				sizeMap[o.arg2] = int32(len(sizes))
			}
			o.arg2 = sizeMap[o.arg2] - 1
		}
	}
	t.lits, t.sizes = lits, sizes
}

// CompileClasses builds the trace a recording run of f on n ranks would
// produce (World.RunRecorded), field for field, without running every rank.
// class maps each rank to its class; f runs once, for the lowest rank of
// each class, on a script-only Comm whose ops go to the recorder and do
// nothing else: no clocks, no message queues, no scheduling and no
// parameter-table reads. Every other rank gets its class representative's
// chunk-id sequence.
//
// The caller keeps the contract that makes this exact: a rank's
// delta-encoded op stream (partners as offsets, table indices, tags) is a
// function of its class alone. f must not read values a script-only run
// does not produce (received payloads, collective results, Comm.Now,
// Comm.Rand); a collective returns zeros in a slice the recorder reuses
// for the next collective. Literal charges record as in a world without
// noise. Cost is O(classes × ops per rank + ranks × chunks per rank).
func CompileClasses(n int, class func(rank int) int, f func(c *Comm) error) (*Trace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mp: world size must be positive, got %d", n)
	}
	rec := newTraceRec(n)
	rec.scriptOnly = true
	w := &World{n: n, rec: rec}
	c := &Comm{}
	type rep struct{ rank, ops int }
	reps := make(map[int]rep)
	last := -1 // the previous representative
	for rank := 0; rank < n; rank++ {
		k := class(rank)
		if rp, ok := reps[k]; ok {
			rec.scripts[rank] = rec.scripts[rp.rank]
			rec.ops += rp.ops
			continue
		}
		if last >= 0 {
			// Classes differ only at the edges: the previous script's
			// length sizes this one, and its emptied chunk buffer serves.
			rec.scripts[rank] = make([]int32, 0, len(rec.scripts[last]))
			rec.buf[rank], rec.buf[last] = rec.buf[last], nil
		}
		before := rec.ops
		*c = Comm{w: w, rank: rank}
		if err := runScript(c, f); err != nil {
			return nil, err
		}
		rec.flush(rank)
		reps[k] = rep{rank, rec.ops - before}
		last = rank
	}
	t, err := rec.build()
	if err != nil {
		return nil, err
	}
	// A class rule that lumps an edge rank in with interior ranks hands it
	// partners outside the world; refuse that here rather than index out
	// of range in a replay.
	if err := t.validate(); err != nil {
		return nil, fmt.Errorf("mp: class rule does not fit the program: %v", err)
	}
	return t, nil
}

// validate checks the structural invariants a recording run guarantees:
// monotone chunk and script tables, chunk ids, op kinds and table indices
// in range, header parameter maxima equal to the largest index the ops
// reference (Replay checks its tables against them), and every send and
// receive partner inside the world. A class compile can break the last
// one when its class rule does not fit the program, so CompileClasses
// checks every trace it builds.
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

// runScript runs f on one script-only Comm, turning a panic into an error
// as the event backend does.
func runScript(c *Comm, f func(c *Comm) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("mp: rank %d panicked: %v", c.rank, p)
		}
	}()
	return f(c)
}

// maxStreamSlots caps a trace's distinct message streams. Every rank of a
// replay holds one stream header per slot, n×D in all, and a gather-shaped
// program makes D grow with n (rank 0 receiving from every rank has
// D = n−1), so an uncapped D would mean n² headers. The wavefront needs 4.
const maxStreamSlots = 64

// ErrTooManyStreams is returned by a recording run (World.Run on the trace
// backend, World.RunRecorded) or a class compile (CompileClasses) when a
// program uses more than maxStreamSlots distinct message streams, (source
// offset, tag) pairs seen from the receiver. The event backend runs such
// programs.
var ErrTooManyStreams = fmt.Errorf("mp: trace uses more than %d distinct message streams", maxStreamSlots)

// buildSlots gives every message stream of the trace a fixed slot: the
// distinct receiver-side keys (source offset, tag) are numbered 0..D−1 in
// order of first appearance in the interned chunks, and each send and
// receive op gets its key's slot, returned parallel to chunkOps. A receive
// keys on its own (src offset, tag); a send on the key its receiver sees,
// (−dst offset, tag). buildFused writes the slots into the fused programs,
// so both replay loops index rank r's stream j at r·D+j in one flat table
// and never search for a stream.
func (t *Trace) buildSlots() ([]uint8, error) {
	keys := make([]uint64, 0, maxStreamSlots) // slot j's key
	slots := make([]uint8, len(t.chunkOps))
	for i := range t.chunkOps {
		o := &t.chunkOps[i]
		var k uint64
		switch o.kind {
		case topRecv:
			k = qkey(int(o.arg0), int(o.arg1))
		case topSendLit, topSendParam:
			k = qkey(-int(o.arg0), int(o.arg1))
		default:
			continue
		}
		s := slices.Index(keys, k)
		if s < 0 {
			if len(keys) == maxStreamSlots {
				return nil, ErrTooManyStreams
			}
			s = len(keys)
			keys = append(keys, k)
		}
		slots[i] = uint8(s)
	}
	t.nslots = len(keys)
	return slots, nil
}

// --- replay ---

// Replay-only rank states, continuing the ev* space: a rank blocked inside
// a collective must not be woken by message delivery.
const rBlockedColl uint8 = 200

// rmsg is one in-flight replay message: its availability time plus its
// receive overhead in seconds, priced at delivery time — the sender knows
// the (src, dst) pair, so the cost class is settled there and the consume
// path adds recv with no further table lookup.
type rmsg struct {
	avail float64
	recv  float64
}

// rstream is one stream slot's FIFO of replay messages; consumed entries
// reset the slice so steady-state capacity is reused. waiting is set while
// the owning rank is parked on a receive from this stream, so a delivery
// decides whether to wake its receiver from the header it already writes.
type rstream struct {
	head    int32
	waiting bool
	msgs    []rmsg
}

// take pops the stream's oldest message. On an empty stream it returns
// false and marks the stream waited on, so the delivery that fills it wakes
// the owning rank. It must stay small enough to inline.
func (st *rstream) take() (rmsg, bool) {
	if st.head >= int32(len(st.msgs)) {
		st.waiting = true
		return rmsg{}, false
	}
	m := st.msgs[st.head]
	st.head++
	if st.head == int32(len(st.msgs)) {
		st.head, st.msgs = 0, st.msgs[:0]
	}
	return m, true
}

// Replayer executes recorded traces. It owns all replay storage and
// reuses it across Replay calls: a warmed replayer re-running the same
// trace performs zero heap allocations. A Replayer is not safe for
// concurrent use; pool replayers, not replays.
type Replayer struct {
	t    *Trace
	opts Options
	cnet ClassNetworkModel // opts.Net with >1 (src,dst) cost class; nil flat
	ncls int               // cost classes priced (1 for flat nets)
	ns   int               // unified size-table width (literals + params)

	// The lanes beyond lane 0: read on every entry to the perturbed loop,
	// so kept beside the fields above.
	nx int

	charges []float64 // params.Charges (aliased, not copied)

	// Unified size tables: literal sizes first, then params.Sizes; bytes
	// holds the ns distinct wire sizes. Every (cost class, size) pair is
	// priced once per replay into the price tables — entry cls*ns+u prices
	// size u at class cls, a flat net degenerating to the single-class
	// prefix — so the op loops do pure array arithmetic whatever the
	// interconnect's shape. A nil net prices every entry at zero.
	bytes    []int32
	sendSec  []float64
	availSec []float64
	recvSec  []float64

	// Per-rank state. The scheduler-hot fields live in one 32-byte record
	// per rank (rk), so a block or wake touches one cache line instead of
	// striding across parallel arrays; streams and RNGs stay out of it.
	//
	// Stream storage is one flat table of n×D headers, D = Trace.nslots:
	// rank r's stream slot j sits at r*D+j. Ops carry their slots from
	// compile time, so a send or receive indexes its stream directly.
	rk      []rrank
	streams []rstream
	nslots  int
	rngs    []rankStream // per-rank noise streams, one slab while a noisy replay runs

	// Scheduling. w is the replay's first worker and, on a serial replay,
	// its only one: it runs every rank. A parallel fused replay
	// (parallel.go) splits the ranks into contiguous ranges over ws, whose
	// helpers and shared state live in par.
	w      rworker
	ws     []*rworker // this replay's workers; ws[0] == &w
	par    *parState  // nil until the replayer's first parallel replay
	serial string     // why an unperturbed replay ran on one worker ("" when it did not)
	extraP int32      // Ps this replay reserved for helper workers (replayPs)

	// The last collective priced (reduceCost): its payload bytes, -1 none,
	// and its cost.
	redBytes int
	redSec   float64

	marks []float64

	// Perturbed-loop state (runRankPerturbed): one prank per rank beside
	// rk, so the fused loop's records stay as they are and unperturbed
	// replays touch none of it. collGen mirrors the event backend's
	// collective generation counter for probe rows.
	pr      []prank
	collGen int

	// Clock lanes (lanes.go): the runs of this pass, lane 0 first; one is
	// Replay's single lane. Lane 0's clock, idle total and collective
	// completion live in rk and pr as on a solo replay; the nx extra lanes'
	// live in xs, rank r's lane k ≥ 1 at r*nx+k-1. lq holds every
	// lane's event queue and checkpoint, rank r's lane k at r*len(lanes)+k.
	// xmax is the open collective's latest arrival per extra lane, and xav
	// the extra lanes' availabilities of each stream's queued messages, nx
	// per message, beside Replayer.streams.
	lanes []Lane
	one   [1]Lane
	lq    []laneq
	xs    []xlane
	xmax  []float64
	xav   [][]float64

	// Steady-state cycle state (tracecycle.go). fusedPath selects the
	// fused loop (one lane, no noise, no perturbation) over the perturbed
	// loop; cycOn tracks a detected cycle through its boundaries; the stat
	// counters feed Stats().
	fusedPath   bool
	cycOn       bool
	cycErr      error
	cycVirt     int     // virtual steady cycles this replay must cover
	cycDone     int     // virtual cycles completed (replayed + extrapolated)
	cycRec      int     // recorded cycle index the current cycle runs from
	cycGen      int     // collective generations closed so far
	cycPrevD    float64 // boundary clock the current cycle opened at
	cycDelta    float64
	cycStreak   int      // consecutive validating cycles with delta cycDelta
	cycOpenIdle bool     // every stream was idle when the current cycle opened
	costs       costBits // lowest set bits of this replay's priced costs

	statReplayed     int
	statExtrapolated int
}

// rrank is one rank's scheduler-hot replay state. A delivery does not
// read it (the stream's waiting flag decides the wake); a wake reads its
// clock and writes its status.
type rrank struct {
	clock        float64
	collDone     float64 // resolved collective completion clock
	spos         int32   // cursor into Trace.script
	opos         int32   // cursor within the current chunk's fused program
	status       uint8
	fsub         uint8 // receives consumed by a parked fused macro (resume sub-step)
	collResolved bool  // collDone is pending consumption by the reduce op
}

// prank is one rank's perturbed-loop state shared by its lanes, plus lane
// 0's idle total: the next event index over all lanes, the op index and
// whether the rank's noise stream is seeded. The loop keeps idle and opn
// in locals while the rank runs and writes them back when it parks or ends.
type prank struct {
	idle   float64 // lane 0's accumulated idle seconds (RunProbe)
	opn    int     // scalar op index of the current fused op's first sub-step
	ev     int     // op index of any lane's next pending delay or fail-stop; noEvent if none
	seeded bool    // Replayer.rngs[rank] is seeded for this replay
}

// noEvent is an event index when no injected event is left.
const noEvent = math.MaxInt

// NewReplayer returns an empty replayer ready for Replay.
func NewReplayer() *Replayer { return &Replayer{} }

// Makespan returns the maximum final clock of the last replay.
func (r *Replayer) Makespan() float64 {
	m := 0.0
	for i := range r.rk {
		if c := r.rk[i].clock; c > m {
			m = c
		}
	}
	return m
}

// Clock returns a rank's final clock after the last replay.
func (r *Replayer) Clock(rank int) float64 { return r.rk[rank].clock }

// Marks returns the mark slots written by the last replay; the slice is
// valid until the next Replay call.
func (r *Replayer) Marks() []float64 { return r.marks }

// Replay executes the trace under the given options and parameter tables.
// Clocks, marks and schedule order are bit-identical to running the
// recorded program on the event backend with the same options and params.
// It is the one-lane case of ReplayLanes.
func (r *Replayer) Replay(t *Trace, opts Options, p ReplayParams) error {
	r.one[0] = Lane{Delays: opts.Delays, Fails: opts.Fails, Probe: opts.Probe, FailLog: opts.FailLog}
	opts.Delays, opts.Fails, opts.Probe, opts.FailLog = nil, nil, nil, nil
	return r.replay(t, opts, p, r.one[:])
}

func (r *Replayer) replay(t *Trace, opts Options, p ReplayParams, lanes []Lane) error {
	replayPs.Add(1)
	defer r.unbind()
	if err := r.prepare(t, opts, p, lanes); err != nil {
		return err
	}
	if len(r.ws) > 1 {
		return r.runParallel()
	}
	return r.run()
}

// unbind releases what a replay holds only while it runs: its Ps in
// replayPs, its noise streams and its lanes' recorders, so a pooled
// replayer holds no rank streams while idle.
func (r *Replayer) unbind() {
	replayPs.Add(-1 - r.extraP)
	r.extraP = 0
	r.rngs = nil
	r.lanes, r.one[0] = nil, Lane{}
}

// errStalled reports a replay in which no rank can run while some have not
// finished. It is unreachable for traces built by a completed recording
// run; it guards against corrupted or hand-built traces.
var errStalled = errors.New("mp: trace replay stalled (incomplete trace)")

// ErrDrawingNet is returned by Replay and ReplayLanes for a network model
// that does not declare DeterministicCosts: a replay prices every (cost
// class, size) pair once and never draws a net cost. The event backend
// runs such models.
var ErrDrawingNet = errors.New("mp: trace replay needs a nil or DeterministicCosts network model")

// run schedules every rank on the replayer's one worker until each has
// finished.
func (r *Replayer) run() error {
	w := &r.w
	for {
		id := w.next()
		if id < 0 {
			if w.doneCount < r.t.n {
				return errStalled
			}
			return nil
		}
		if r.fusedPath {
			w.runRankFused(id)
		} else {
			r.runRankPerturbed(id)
		}
		if r.cycErr != nil {
			return r.cycErr
		}
	}
}

func resizeF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func (r *Replayer) prepare(t *Trace, opts Options, p ReplayParams, lanes []Lane) error {
	if t == nil {
		return errors.New("mp: Replay of a nil trace")
	}
	if int(t.maxChPar) >= len(p.Charges) {
		return fmt.Errorf("mp: trace references charge param %d, table holds %d", t.maxChPar, len(p.Charges))
	}
	if int(t.maxSzPar) >= len(p.Sizes) {
		return fmt.Errorf("mp: trace references size param %d, table holds %d", t.maxSzPar, len(p.Sizes))
	}
	if err := validLanes(t.n, lanes); err != nil {
		return err
	}
	if opts.Net != nil && !netIsDeterministic(opts.Net) {
		return ErrDrawingNet
	}
	sameTrace := r.t == t
	r.opts = opts
	r.lanes = lanes
	r.cnet, r.ncls = classesOf(opts.Net)
	r.charges = p.Charges
	// The fused loop (and with it extrapolation) runs only when one
	// unperturbed lane replays without noise; every other combination
	// takes the perturbed loop.
	r.fusedPath = !perturbing(lanes) && opts.Noise == nil

	nlit := len(t.sizes)
	ns := nlit + len(p.Sizes)
	r.ns = ns
	r.bytes = resizeI32(r.bytes, ns)
	copy(r.bytes, t.sizes)
	for i, b := range p.Sizes {
		r.bytes[nlit+i] = int32(b)
	}
	r.sendSec = resizeF(r.sendSec, r.ncls*ns)
	r.availSec = resizeF(r.availSec, r.ncls*ns)
	r.recvSec = resizeF(r.recvSec, r.ncls*ns)
	if net := opts.Net; net == nil {
		clear(r.sendSec)
		clear(r.availSec)
		clear(r.recvSec)
	} else {
		for i := 0; i < ns; i++ {
			b := int(r.bytes[i])
			if r.cnet == nil {
				r.sendSec[i] = net.SendOverhead(b, nil)
				r.availSec[i] = net.Transit(b, nil)
				r.recvSec[i] = net.RecvOverhead(b, nil)
				continue
			}
			for cls := 0; cls < r.ncls; cls++ {
				r.sendSec[cls*ns+i] = r.cnet.SendOverheadClass(cls, b, nil)
				r.availSec[cls*ns+i] = r.cnet.TransitClass(cls, b, nil)
				r.recvSec[cls*ns+i] = r.cnet.RecvOverheadClass(cls, b, nil)
			}
		}
	}

	n := t.n
	r.nslots = t.nslots
	if len(r.rk) != n || !sameTrace {
		r.rk = make([]rrank, n)
		r.streams = make([]rstream, n*t.nslots)
	} else {
		// Same trace, same slots: message capacity is reused. A replay
		// that failed part-way may have left messages or waiting flags.
		for i := range r.streams {
			st := &r.streams[i]
			st.head, st.waiting = 0, false
			st.msgs = st.msgs[:0]
		}
		for i := 0; i < n; i++ {
			r.rk[i] = rrank{}
		}
	}
	// A noisy replay draws from per-rank streams, made as one slab here
	// and dropped by unbind.
	if opts.Noise != nil {
		r.rngs = make([]rankStream, n)
	}
	// Reset cursors start every rank at its script head.
	r.t = t
	for i := 0; i < n; i++ {
		r.rk[i].spos = t.sstart[i]
		r.rk[i].status = evReady
	}
	r.redBytes = -1
	r.collGen = 0
	r.nx = 0
	if !r.fusedPath {
		r.prepareLanes(n)
	} else if l := lanes[0].FailLog; l != nil {
		l.reset(0)
	}
	r.marks = resizeF(r.marks, t.nmarks)
	for i := range r.marks {
		r.marks[i] = 0
	}
	r.cycOn = false
	r.cycErr = nil
	r.cycVirt, r.cycDone, r.cycRec, r.cycGen = 0, 0, 0, 0
	r.cycPrevD, r.cycDelta = 0, 0
	r.cycStreak, r.cycOpenIdle = 0, false
	r.statReplayed, r.statExtrapolated = 0, 0
	if p.ExtraCycles < 0 {
		return fmt.Errorf("mp: negative ExtraCycles %d", p.ExtraCycles)
	}
	if p.ExtraCycles > 0 && (!t.cyc.detected || !r.fusedPath) {
		return ErrCannotExtrapolate
	}
	if t.cyc.detected && r.fusedPath {
		r.cycOn = true
		r.cycVirt = t.cyc.cycles + p.ExtraCycles
		r.priceCostBits()
	}
	r.startWorkers(r.admit(t))
	return nil
}

// rworker schedules the ranks [lo, lo+n) of a replay with the event
// scheduler's discipline: a handoff slot plus a (key, id) min-heap, the
// key being the rank's clock. A serial replay has one worker over every
// rank. On a parallel replay each worker runs its own range, keyed by
// distance to the range's edges (edgeKey), and a send to another worker's
// rank waits in out until the sending rank parks (parallel.go).
type rworker struct {
	r       *Replayer
	lo, n   int       // owned ranks: [lo, lo+n)
	rk      []rrank   // the replayer's rank records (all ranks)
	streams []rstream // the owned ranks' streams: rank lo+i's slot j at i*nslots+j
	nslots  int

	heap      clockHeap
	slot      int
	slotClock float64
	doneCount int // owned ranks finished

	collArrived int     // owned ranks inside the open collective
	collMax     float64 // their latest arrival clock
	collWords   int32   // payload length of the latest arrival
	collWaiters []int32

	// Parallel replays only (parallel.go).
	idx  int    // position in Replayer.ws
	out  []xmsg // sends to other workers' ranks since the last flush, in send order
	in   []xmsg // scratch: the inbox being applied
	edge bool   // order ranks by distance to the range's edges, not by clock
	loop func() // helper goroutine body (work), made once
}

// reset seeds the worker for a replay over ranks [lo, lo+n): every rank
// runnable at clock zero, nothing in a collective, nothing to flush.
func (w *rworker) reset(r *Replayer, idx, lo, n int, edge bool) {
	w.r, w.idx, w.lo, w.n, w.edge = r, idx, lo, n, edge
	w.rk, w.streams, w.nslots = r.rk, r.streams[lo*r.nslots:(lo+n)*r.nslots], r.nslots
	if cap(w.heap.e) < n {
		w.heap.e = make([]heapEntry, 0, n)
	}
	w.seed(0)
	w.doneCount = 0
	w.collArrived = 0
	w.collWaiters = w.collWaiters[:0]
	w.out = w.out[:0]
}

// wake marks a blocked rank runnable, mirroring the event scheduler's
// handoff-slot discipline exactly (same displacement rule, same frozen
// block-time clocks), so the replay schedule is the event schedule.
func (w *rworker) wake(id int) {
	w.rk[id].status = evReady
	clock := w.key(id, w.rk[id].clock)
	s := w.slot
	if s < 0 {
		w.slot, w.slotClock = id, clock
		return
	}
	if clock < w.slotClock || (clock == w.slotClock && id < s) {
		id, clock, w.slot, w.slotClock = s, w.slotClock, id, clock
	}
	w.heap.push(heapEntry{clock: clock, id: id})
}

// key is rank id's scheduling key at clock.
func (w *rworker) key(id int, clock float64) float64 {
	if w.edge {
		return w.edgeKey(id)
	}
	return clock
}

// seed makes every owned rank runnable at clock, with an empty slot. In
// the serial order the pushes arrive sorted and cost no sifting.
func (w *rworker) seed(clock float64) {
	w.slot = -1
	w.heap.e = w.heap.e[:0]
	for i := w.lo; i < w.lo+w.n; i++ {
		w.heap.push(heapEntry{clock: w.key(i, clock), id: i})
	}
}

// next picks the runnable rank with the smallest (clock, id) from the
// slot or the heap; -1 when none is runnable.
func (w *rworker) next() int {
	for {
		if s := w.slot; s >= 0 {
			if w.heap.len() == 0 || !entryLess(w.heap.top(), heapEntry{clock: w.slotClock, id: s}) {
				w.slot = -1
				return s
			}
		}
		if w.heap.len() == 0 {
			return -1
		}
		e := w.heap.pop()
		if w.rk[e.id].status != evReady {
			continue
		}
		return e.id
	}
}

// deliver appends a message to stream slot of rank dst and wakes dst if
// it is parked on a receive from exactly that stream. A message to another
// worker's rank goes to out instead; the owner applies it after the next
// flush. The stream index is relative to the worker's range, so one
// comparison both tests ownership and bounds the index.
func (w *rworker) deliver(dst int, slot uint8, avail, recv float64) {
	i := (dst-w.lo)*w.nslots + int(slot)
	if uint(i) >= uint(len(w.streams)) {
		w.post(dst, slot, avail, recv)
		return
	}
	st := &w.streams[i]
	st.msgs = append(st.msgs, rmsg{avail: avail, recv: recv})
	if st.waiting {
		st.waiting = false
		w.wake(dst)
	}
}

// post queues a message to another worker's rank for the next flush. It
// stays out of line so that deliver keeps its small serial body. Only a
// corrupted trace sends outside the world.
//
//go:noinline
func (w *rworker) post(dst int, slot uint8, avail, recv float64) {
	if uint(dst) >= uint(w.r.t.n) {
		panic(fmt.Sprintf("mp: replay sends to rank %d of a %d-rank world", dst, w.r.t.n))
	}
	w.out = append(w.out, xmsg{avail: avail, recv: recv, dst: int32(dst), slot: slot})
}

// reduce enters rank id into the open collective generation at clock.
// Until the last participant arrives it queues id as a waiter and returns
// closed == false (the caller parks the rank in rBlockedColl); the last
// arriver closes the generation and gets its completion clock — the
// latest arrival plus the reduction of words float64s, priced exactly as
// the event backend prices it. A worker of a parallel replay never sees
// every participant arrive, so all its ranks park, and the generation
// closes at the workers' barrier (parState.closeColl).
func (w *rworker) reduce(id int, clock float64, words int32) (done float64, closed bool) {
	if w.collArrived == 0 || clock > w.collMax {
		w.collMax = clock
	}
	w.collArrived++
	if w.collArrived < w.r.t.n {
		w.collWords = words
		w.collWaiters = append(w.collWaiters, int32(id))
		return 0, false
	}
	w.collArrived = 0
	return w.collMax + w.r.reduceCost(words), true
}

// reduceCost prices a collective of words float64s, once per payload size
// in a row; a nil net prices it at zero.
func (r *Replayer) reduceCost(words int32) float64 {
	if b := 8 * int(words); b != r.redBytes {
		r.redBytes, r.redSec = b, 0
		if net := r.opts.Net; net != nil {
			r.redSec = net.ReduceCost(r.t.n, b, nil)
		}
	}
	return r.redSec
}

// release hands a closed generation's completion clock to every parked
// participant and wakes them; each consumes it when its reduce op
// re-executes (rrank.collResolved).
func (w *rworker) release(done float64) {
	for _, wid := range w.collWaiters {
		wr := &w.rk[wid]
		wr.collDone = done
		wr.collResolved = true
		w.wake(int(wid))
	}
	w.collWaiters = w.collWaiters[:0]
}

// runRankPerturbed runs one rank's fused program, on every lane of the
// pass, until the rank blocks or finishes. It serves every replay the
// fused loop does not: compute noise, injected delays and fail-stops,
// probes and lane passes. It never extrapolates. A macro runs sub-step by
// sub-step (recv 0, recv 1, charge, send 0, send 1), and sub-step k of a
// macro whose first op has index opn has op index opn+k, so an injected
// event lands before exactly the sub-step its op index names. Delays and
// fail-stops at an op index are consumed at its first execution, so a
// receive or collective that parks and re-executes cannot apply them
// twice. Costs and schedule law are the fused loop's, and every
// lane's clocks are bit-identical to the event backend's run of it.
//
// Lane 0's clock and idle total stay in locals. The extra lanes' are
// updated out of line from the same charge, noise draw or price
// (lanes.go), and a one-lane pass never calls there.
func (r *Replayer) runRankPerturbed(id int) {
	t := r.t
	lits, charges := t.lits, r.charges
	probe := r.lanes[0].Probe
	cnet, ns := r.cnet, r.ns
	sendSec, availSec, recvSec := r.sendSec, r.availSec, r.recvSec
	w := &r.w
	self := &r.rk[id]
	ps := &r.pr[id]
	streams := r.streams[id*r.nslots : (id+1)*r.nslots]
	var x []xlane // the extra lanes; none on a one-lane pass
	if r.nx > 0 {
		x = r.xrow(id)
	}
	clock, idle := self.clock, ps.idle
	sp, op, opn := self.spos, self.opos, ps.opn
	sub := self.fsub
	self.fsub = 0
	sEnd := t.sstart[id+1]
	var chunk []fop
	if sp < sEnd {
		c := t.script[sp]
		chunk = t.fops[t.fstart[c]:t.fstart[c+1]]
	}
	status := evDone
run:
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
		if f.kind == fMacro {
			// Sub-steps in recorded order, priced from the tables.
			at := opn
			if f.nr > 0 && sub == 0 {
				if at == ps.ev {
					clock = r.inject(id, ps, clock)
				}
				m, ok := streams[f.arg0].take()
				if !ok {
					status = evBlocked // fsub stays 0: resume re-executes recv 0
					break run
				}
				cost := m.recv
				if m.avail > clock {
					idle += m.avail - clock
					clock = m.avail
				}
				clock += cost
				if len(x) > 0 {
					r.xrecv(x, id, f.arg0, cost)
				}
				sub = 1
			}
			if f.nr > 1 {
				if at+1 == ps.ev {
					clock = r.inject(id, ps, clock)
				}
				m, ok := streams[f.arg1].take()
				if !ok {
					status = evBlocked
					self.fsub = 1 // recv 0 consumed; resume at recv 1
					break run
				}
				cost := m.recv
				if m.avail > clock {
					idle += m.avail - clock
					clock = m.avail
				}
				clock += cost
				if len(x) > 0 {
					r.xrecv(x, id, f.arg1, cost)
				}
			}
			sub = 0
			at += int(f.nr)
			if at == ps.ev {
				clock = r.inject(id, ps, clock)
			}
			if f.clit != 0 {
				s := lits[f.arg2]
				clock += s
				xcharge(x, s)
			} else if s := charges[f.arg2]; s > 0 {
				s = r.noisy(id, ps, s)
				clock += s
				xcharge(x, s)
			}
			if f.ns > 0 {
				if at+1 == ps.ev {
					clock = r.inject(id, ps, clock)
				}
				dst, u := id+int(f.s0dst), int(f.s0u)
				if cnet != nil {
					u += cnet.ClassOf(id, dst) * ns
				}
				w.deliver(dst, f.s0slot, clock+availSec[u], recvSec[u])
				if len(x) > 0 {
					r.xdeliver(x, dst, f.s0slot, availSec[u], sendSec[u])
				}
				clock += sendSec[u]
			}
			if f.ns > 1 {
				if at+2 == ps.ev {
					clock = r.inject(id, ps, clock)
				}
				dst, u := id+int(f.s1dst), int(f.s1u)
				if cnet != nil {
					u += cnet.ClassOf(id, dst) * ns
				}
				w.deliver(dst, f.s1slot, clock+availSec[u], recvSec[u])
				if len(x) > 0 {
					r.xdeliver(x, dst, f.s1slot, availSec[u], sendSec[u])
				}
				clock += sendSec[u]
			}
			opn = at + 1 + int(f.ns)
			op++
			continue
		}
		if opn == ps.ev {
			clock = r.inject(id, ps, clock)
		}
		switch f.kind {
		case topChargeParam:
			if s := charges[f.arg0]; s > 0 {
				s = r.noisy(id, ps, s)
				clock += s
				xcharge(x, s)
			}
		case topCkpt:
			// Exact charge — checkpoint I/O is not subject to compute noise
			// — then pin the rewind target, as Comm.Checkpoint does.
			if s := charges[f.arg0]; s > 0 {
				clock += s
				xcharge(x, s)
			}
			r.checkpoint(id, clock)
		case topChargeLit:
			s := lits[f.arg0]
			clock += s
			xcharge(x, s)
		case topChargeNoisy:
			s := r.noisy(id, ps, lits[f.arg0])
			clock += s
			xcharge(x, s)
		case fSend:
			clock = r.send(id, id+int(f.arg0), uint8(f.arg1), int(f.arg2), clock, x)
		case topRecv:
			m, ok := streams[f.arg0].take()
			if !ok {
				status = evBlocked
				break run
			}
			cost := m.recv
			if m.avail > clock {
				idle += m.avail - clock
				clock = m.avail
			}
			clock += cost
			if len(x) > 0 {
				r.xrecv(x, id, f.arg0, cost)
			}
		case topReduce:
			if self.collResolved {
				// Resume after the closer resolved the generation; the
				// entry clocks were frozen at park, so the idle deltas match
				// the event backend's done-minus-entry accounting.
				self.collResolved = false
				idle += self.collDone - clock
				clock = self.collDone
				if len(x) > 0 {
					xresume(x)
				}
				break
			}
			if probe != nil {
				probe.record(r.collGen, id, clock, idle)
			}
			if len(x) > 0 {
				r.xrecord(id, x)
			}
			done, closed := r.laneReduce(id, clock, x, f.arg0)
			if !closed {
				status = rBlockedColl
				break run
			}
			r.collGen++
			w.release(done)
			idle += done - clock
			clock = done
			if len(x) > 0 {
				r.xclose(x)
			}
		case topMark:
			r.marks[f.arg0] = clock
		}
		opn++
		op++
	}
	self.clock = clock
	self.spos, self.opos = sp, op
	self.status = status
	ps.idle, ps.opn = idle, opn
	if status == evDone {
		self.opos = 0
		w.doneCount++
	}
}

// noisy returns the positive compute charge s as the replay applies it:
// drawn from the rank's noise stream, or s itself without noise. The
// stream is seeded at the rank's first draw to the seed the event backend
// gives the rank (on a rankSource, which draws what rand.NewSource does),
// and a rank draws in program order, so the draws are the event
// backend's. One draw serves every lane.
func (r *Replayer) noisy(id int, ps *prank, s float64) float64 {
	n := r.opts.Noise
	if n == nil {
		return s
	}
	rs := &r.rngs[id]
	if !ps.seeded {
		rs.seed(r.opts.Seed + int64(id)*0x9E3779B9)
		ps.seeded = true
	}
	return n.Perturb(s, &rs.rng)
}

// send prices rank id's send of unified size index u to dst at clock,
// delivers it to dst's stream slot on every lane and returns lane 0's
// clock, advancing the extra lanes' (x) in place.
func (r *Replayer) send(id, dst int, slot uint8, u int, clock float64, x []xlane) float64 {
	if r.cnet != nil {
		u += r.cnet.ClassOf(id, dst) * r.ns
	}
	r.w.deliver(dst, slot, clock+r.availSec[u], r.recvSec[u])
	if len(x) > 0 {
		r.xdeliver(x, dst, slot, r.availSec[u], r.sendSec[u])
	}
	return clock + r.sendSec[u]
}
