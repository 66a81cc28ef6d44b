package mp

// The trace-compiled replay backend (Options.Scheduler == SchedulerTrace).
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
// The backend therefore has two phases:
//
//   - Recording: the first Run executes the rank function for real on the
//     event machinery, while each Comm operation appends one compact op to
//     the recording rank's script: sends and receives with their partner
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
//   - Replay: subsequent Reset+Run cycles execute the recorded script in
//     the Replayer, a goroutine-free state machine that mirrors the event
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
// NetworkModel: for DeterministicCosts models each distinct size is priced
// once per replay into flat arrays, so the per-op loop does no interface
// calls at all; for RNG-using models every op draws from per-rank streams
// in program order — exactly the order the event backend draws in — keeping
// replays bit-identical even under jitter.
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
// makes both encode to the same bytes. Decoding does not require it, so
// artifacts written in schedule order still load.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
)

// SchedulerTrace selects the trace-compiled replay backend: the first Run
// records the program on the event machinery, later Runs replay the
// recorded script without goroutines or channels. See the comment above.
const SchedulerTrace = "trace"

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

	// Derived replay acceleration state, built by finalize() in both
	// constructors (recording and decoding); immutable like the rest.
	nslots       int        // distinct message streams per rank (buildSlots)
	oslot        []uint8    // stream slot of each chunkOps send or receive, parallel to chunkOps
	fops         []fop      // fused programs, per chunk (see tracecycle.go)
	fstart       []int32    // chunk c's fused ops are fops[fstart[c]:fstart[c+1]]
	nmacroUnique int        // interned fused macro count
	fopsTotal    int        // fused dispatches per full replay
	macroTotal   int        // macro dispatches per full replay
	redSizes     []int      // distinct collective payload byte counts
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
	index    map[uint64][]int32 // chunk content hash -> candidate chunk ids

	lits    []float64
	litIdx  map[float64]int32
	sizes   []int32
	sizeIdx map[int]int32

	nmarks   int
	maxChPar int32
	maxSzPar int32
	ops      int
}

func newTraceRec(n int) *traceRec {
	return &traceRec{
		n:        n,
		buf:      make([][]top, n),
		scripts:  make([][]int32, n),
		cstart:   []int32{0},
		index:    make(map[uint64][]int32),
		litIdx:   make(map[float64]int32),
		sizeIdx:  make(map[int]int32),
		maxChPar: -1,
		maxSzPar: -1,
	}
}

func (r *traceRec) push(rank int, o top) {
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
	var id int32 = -1
	for _, cand := range r.index[h] {
		if chunkEqual(r.chunkOps[r.cstart[cand]:r.cstart[cand+1]], ops) {
			id = cand
			break
		}
	}
	if id < 0 {
		id = int32(len(r.cstart) - 1)
		r.chunkOps = append(r.chunkOps, ops...)
		r.cstart = append(r.cstart, int32(len(r.chunkOps)))
		r.index[h] = append(r.index[h], id)
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

func chunkEqual(a, b []top) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
// canonical order (canonicalize) and the derived replay state built. It
// fails only when the program uses more message streams than a replayer
// can hold (ErrTooManyStreams).
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
	t.canonicalize()
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
// produce (World.RunRecorded), byte for byte, without running every rank.
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
// Comm.Rand), and literal charges record as in a world without noise. Cost
// is O(classes × ops per rank + ranks × chunks per rank).
func CompileClasses(n int, class func(rank int) int, f func(c *Comm) error) (*Trace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mp: world size must be positive, got %d", n)
	}
	rec := newTraceRec(n)
	rec.scriptOnly = true
	w := &World{n: n, rec: rec}
	type rep struct{ rank, ops int }
	reps := make(map[int]rep)
	for rank := 0; rank < n; rank++ {
		k := class(rank)
		if rp, ok := reps[k]; ok {
			rec.scripts[rank] = rec.scripts[rp.rank]
			rec.ops += rp.ops
			continue
		}
		before := rec.ops
		if err := runScript(&Comm{w: w, rank: rank}, f); err != nil {
			return nil, err
		}
		rec.flush(rank)
		reps[k] = rep{rank, rec.ops - before}
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
// backend, World.RunRecorded) or a class compile (CompileClasses) and
// wrapped in artifact.ErrFormat by DecodeTrace when a program uses more
// than maxStreamSlots distinct message streams, (source offset, tag) pairs
// seen from the receiver. The event backend runs such programs.
var ErrTooManyStreams = fmt.Errorf("mp: trace uses more than %d distinct message streams", maxStreamSlots)

// buildSlots gives every message stream of the trace a fixed slot: the
// distinct receiver-side keys (source offset, tag) are numbered 0..D−1 in
// order of first appearance in the interned chunks, and each send and
// receive op gets its key's slot in oslot. A receive keys on its own
// (src offset, tag); a send on the key its receiver sees, (−dst offset,
// tag). Both replay loops then index rank r's stream j at r·D+j in one
// flat table and never search for a stream. The slots live beside the
// ops rather than in top: a wider top slows every recorded op.
func (t *Trace) buildSlots() error {
	keys := make([]uint64, 0, maxStreamSlots) // slot j's key
	t.oslot = make([]uint8, len(t.chunkOps))
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
				return ErrTooManyStreams
			}
			s = len(keys)
			keys = append(keys, k)
		}
		t.oslot[i] = uint8(s)
	}
	t.nslots = len(keys)
	return nil
}

// --- replay ---

// Replay-only rank states, continuing the ev* space: a rank blocked inside
// a collective must not be woken by message delivery.
const rBlockedColl uint8 = 200

// rmsg is one in-flight replay message: its availability time plus the
// receive-side pricing, resolved at delivery time — the sender knows the
// (src, dst) pair, so the cost class is settled here and the consume path
// never re-derives it. Under a deterministic net aux IS the receive
// overhead in seconds (the consume path adds it with no further table
// lookup); under an RNG-using net aux carries the class-resolved unified
// table index cls*ns+u (exactly representable: indices are small) and the
// receiver prices at completion, preserving draw order.
type rmsg struct {
	avail float64
	aux   float64
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
	det  bool              // opts.Net is nil or DeterministicCosts
	cnet ClassNetworkModel // opts.Net with >1 (src,dst) cost class; nil flat
	ncls int               // cost classes priced (1 for flat nets)
	ns   int               // unified size-table width (literals + params)

	charges []float64 // params.Charges (aliased, not copied)

	// Unified size tables: literal sizes first, then params.Sizes; bytes
	// holds the ns distinct wire sizes. With a deterministic net every
	// (cost class, size) pair is priced once per replay into the price
	// tables — entry cls*ns+u prices size u at class cls, a flat net
	// degenerating to the single-class prefix — so the op loop does pure
	// array arithmetic whatever the interconnect's shape.
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
	rngs    []*rand.Rand
	rngOK   []bool

	heap      clockHeap
	slot      int
	slotClock float64
	doneCount int

	collArrived int
	collMax     float64
	collWaiters []int32
	collRng     *rand.Rand
	collRngOK   bool
	redMemo     sizeCost // reduce-cost memo keyed by payload bytes (det nets)

	marks []float64

	// Fault-injection cursors and probe state (Options.Delays/Fails/
	// Probe), in parallel slices rather than rrank so the unperturbed hot
	// path — and its zero-allocation guarantee — is untouched. collGen
	// mirrors the event backend's collective generation counter for probe
	// rows. Only the general loop reads this state; the fused loop never
	// runs a perturbed replay. failing gates the fail-stop machinery (fqs
	// cursors, ckpts rewind targets) within it.
	injecting bool
	failing   bool
	dqs       [][]Delay
	fqs       [][]failCursor
	ckpts     []float64
	opns      []int32
	idles     []float64
	collGen   int

	// Steady-state cycle state (tracecycle.go). fusedPath selects the
	// fused loop (deterministic costs, no perturbation) over the general
	// loop; cycOn tracks a detected cycle through its boundaries; the stat
	// counters feed Stats(). The plan memo fields cache last-cycle
	// boundary clocks of completed replays keyed by their exact inputs.
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

	plans    [planSlots]steadyPlan
	planNext int
	planHit  int // matching plan slot for this replay; -1 none
	planD    float64
	planGot  bool
	planRed  []float64 // scratch: priced collective costs for fingerprints
}

// rrank is one rank's scheduler-hot replay state. A delivery does not
// read it (the stream's waiting flag decides the wake); a wake reads its
// clock and writes its status.
type rrank struct {
	clock        float64
	collDone     float64 // resolved collective completion clock
	spos         int32   // cursor into Trace.script
	opos         int32   // cursor within the current chunk (fused index on the fused path)
	status       uint8
	fsub         uint8 // receives consumed by a parked fused macro (resume sub-step)
	collResolved bool  // collDone is pending consumption by the reduce op
}

// NewReplayer returns an empty replayer ready for Replay.
func NewReplayer() *Replayer { return &Replayer{slot: -1} }

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
func (r *Replayer) Replay(t *Trace, opts Options, p ReplayParams) error {
	if err := r.prepare(t, opts, p); err != nil {
		return err
	}
	for {
		id := r.next()
		if id < 0 {
			if r.doneCount == t.n {
				if r.planGot && r.planHit < 0 {
					r.planStore()
				}
				return nil
			}
			// Unreachable for traces built by a completed recording run;
			// guards against corrupted or hand-built traces.
			return errors.New("mp: trace replay stalled (incomplete trace)")
		}
		r.runRank(id)
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

func (r *Replayer) prepare(t *Trace, opts Options, p ReplayParams) error {
	if t == nil {
		return errors.New("mp: Replay of a nil trace")
	}
	if int(t.maxChPar) >= len(p.Charges) {
		return fmt.Errorf("mp: trace references charge param %d, table holds %d", t.maxChPar, len(p.Charges))
	}
	if int(t.maxSzPar) >= len(p.Sizes) {
		return fmt.Errorf("mp: trace references size param %d, table holds %d", t.maxSzPar, len(p.Sizes))
	}
	if err := validDelays(t.n, opts.Delays); err != nil {
		return err
	}
	if err := validFailStops(t.n, opts.Fails); err != nil {
		return err
	}
	sameTrace := r.t == t
	r.opts = opts
	r.det = opts.Net == nil || netIsDeterministic(opts.Net)
	r.cnet, r.ncls = classesOf(opts.Net)
	r.charges = p.Charges

	nlit := len(t.sizes)
	ns := nlit + len(p.Sizes)
	r.ns = ns
	r.bytes = resizeI32(r.bytes, ns)
	copy(r.bytes, t.sizes)
	for i, b := range p.Sizes {
		r.bytes[nlit+i] = int32(b)
	}
	if net := opts.Net; net != nil && r.det {
		r.sendSec = resizeF(r.sendSec, r.ncls*ns)
		r.availSec = resizeF(r.availSec, r.ncls*ns)
		r.recvSec = resizeF(r.recvSec, r.ncls*ns)
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
		r.rngs = make([]*rand.Rand, n)
		r.rngOK = make([]bool, n)
		if cap(r.heap.e) < n {
			r.heap.e = make([]heapEntry, 0, n)
		}
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
			r.rngOK[i] = false
		}
	}
	// Reset cursors start every rank at its script head; the heap is
	// seeded in id order, which already satisfies the (clock, id) ordering
	// at clock zero.
	r.t = t
	r.heap.e = r.heap.e[:0]
	for i := 0; i < n; i++ {
		r.rk[i].spos = t.sstart[i]
		r.rk[i].status = evReady
		r.heap.e = append(r.heap.e, heapEntry{clock: 0, id: i})
	}
	r.slot = -1
	r.doneCount = 0
	r.collArrived = 0
	r.collWaiters = r.collWaiters[:0]
	r.collRngOK = false
	r.redMemo = sizeCost{bytes: -1}
	r.collGen = 0
	r.injecting = len(opts.Delays) > 0 || len(opts.Fails) > 0
	r.failing = len(opts.Fails) > 0
	r.dqs = nil
	r.fqs = nil
	if r.injecting {
		r.dqs = rankDelays(n, opts.Delays)
		if r.dqs == nil {
			r.dqs = make([][]Delay, n)
		}
	}
	if r.failing {
		r.fqs = rankFails(n, opts.Fails)
		r.ckpts = resizeF(r.ckpts, n)
		for i := 0; i < n; i++ {
			r.ckpts[i] = 0
		}
	}
	if l := opts.FailLog; l != nil {
		l.reset(len(opts.Fails))
	}
	if r.injecting || opts.Probe != nil {
		r.opns = resizeI32(r.opns, n)
		r.idles = resizeF(r.idles, n)
		for i := 0; i < n; i++ {
			r.opns[i] = 0
			r.idles[i] = 0
		}
	}
	if p := opts.Probe; p != nil {
		p.reset(n)
	}
	r.marks = resizeF(r.marks, t.nmarks)
	for i := range r.marks {
		r.marks[i] = 0
	}
	// Steady-state cycle gating: the fused loop (and with it extrapolation)
	// runs only when costs are deterministic and nothing perturbs the
	// replay; every other combination takes the general loop.
	r.fusedPath = r.det && !r.injecting && opts.Probe == nil && opts.Noise == nil
	r.cycOn = false
	r.cycErr = nil
	r.cycVirt, r.cycDone, r.cycRec, r.cycGen = 0, 0, 0, 0
	r.cycPrevD, r.cycDelta = 0, 0
	r.cycStreak, r.cycOpenIdle = 0, false
	r.statReplayed, r.statExtrapolated = 0, 0
	r.planHit = -1
	r.planGot = false
	if p.ExtraCycles < 0 {
		return fmt.Errorf("mp: negative ExtraCycles %d", p.ExtraCycles)
	}
	if p.ExtraCycles > 0 && (!t.cyc.detected || !r.fusedPath) {
		return ErrCannotExtrapolate
	}
	if t.cyc.detected && r.fusedPath {
		r.cycOn = true
		r.cycVirt = t.cyc.cycles + p.ExtraCycles
		r.planScan()
		r.priceCostBits()
	}
	return nil
}

// rng returns the rank's replay RNG stream, seeded exactly as the live
// backends seed theirs, so RNG-using cost models and noise draw identical
// sequences in identical per-rank program order.
func (r *Replayer) rng(id int) *rand.Rand {
	if !r.rngOK[id] {
		seed := r.opts.Seed + int64(id)*0x9E3779B9
		if r.rngs[id] == nil {
			r.rngs[id] = rand.New(rand.NewSource(seed))
		} else {
			r.rngs[id].Seed(seed)
		}
		r.rngOK[id] = true
	}
	return r.rngs[id]
}

// collRngStream is the collective-pricing stream (same seed derivation as
// the event backend's dedicated collective RNG).
func (r *Replayer) collRngStream() *rand.Rand {
	if !r.collRngOK {
		seed := r.opts.Seed ^ 0x1F3D5B79
		if r.collRng == nil {
			r.collRng = rand.New(rand.NewSource(seed))
		} else {
			r.collRng.Seed(seed)
		}
		r.collRngOK = true
	}
	return r.collRng
}

// wake marks a blocked rank runnable, mirroring the event scheduler's
// handoff-slot discipline exactly (same displacement rule, same frozen
// block-time clocks), so the replay schedule is the event schedule.
func (r *Replayer) wake(id int) {
	r.rk[id].status = evReady
	clock := r.rk[id].clock
	s := r.slot
	if s < 0 {
		r.slot, r.slotClock = id, clock
		return
	}
	if clock < r.slotClock || (clock == r.slotClock && id < s) {
		id, clock, r.slot, r.slotClock = s, r.slotClock, id, clock
	}
	r.heap.push(heapEntry{clock: clock, id: id})
}

// next picks the runnable rank with the smallest (clock, id) from the
// slot or the heap; -1 when none is runnable.
func (r *Replayer) next() int {
	for {
		if s := r.slot; s >= 0 {
			if r.heap.len() == 0 || !entryLess(r.heap.top(), heapEntry{clock: r.slotClock, id: s}) {
				r.slot = -1
				return s
			}
		}
		if r.heap.len() == 0 {
			return -1
		}
		e := r.heap.pop()
		if r.rk[e.id].status != evReady {
			continue
		}
		return e.id
	}
}

// deliver appends a message to stream slot of rank dst and wakes dst if
// it is parked on a receive from exactly that stream.
func (r *Replayer) deliver(dst int, slot uint8, avail, aux float64) {
	st := &r.streams[dst*r.nslots+int(slot)]
	st.msgs = append(st.msgs, rmsg{avail: avail, aux: aux})
	if st.waiting {
		st.waiting = false
		r.wake(dst)
	}
}

// reduce enters rank id into the open collective generation at clock.
// Until the last participant arrives it queues id as a waiter and returns
// closed == false (the caller parks the rank in rBlockedColl); the last
// arriver closes the generation and gets its completion clock — the
// latest arrival plus the reduction of words float64s, priced exactly as
// the event backend prices it.
func (r *Replayer) reduce(id int, clock float64, words int32) (done float64, closed bool) {
	if r.collArrived == 0 || clock > r.collMax {
		r.collMax = clock
	}
	r.collArrived++
	if r.collArrived < r.t.n {
		r.collWaiters = append(r.collWaiters, int32(id))
		return 0, false
	}
	r.collArrived = 0
	done = r.collMax
	if net := r.opts.Net; net != nil {
		bytes := 8 * int(words)
		if r.det {
			if r.redMemo.bytes != bytes {
				r.redMemo = sizeCost{bytes: bytes, sec: net.ReduceCost(r.t.n, bytes, nil)}
			}
			done += r.redMemo.sec
		} else {
			done += net.ReduceCost(r.t.n, bytes, r.collRngStream())
		}
	}
	return done, true
}

// release hands a closed generation's completion clock to every parked
// participant and wakes them; each consumes it when its reduce op
// re-executes (rrank.collResolved).
func (r *Replayer) release(done float64) {
	for _, wid := range r.collWaiters {
		wr := &r.rk[wid]
		wr.collDone = done
		wr.collResolved = true
		r.wake(int(wid))
	}
	r.collWaiters = r.collWaiters[:0]
}

// runRank runs one rank until it blocks or finishes, on the fused loop
// when the replay takes the fused path (deterministic costs, nothing
// perturbed: macro dispatch and steady-state extrapolation, tracecycle.go)
// and on the general loop otherwise.
func (r *Replayer) runRank(id int) {
	if r.fusedPath {
		r.runRankFused(id)
	} else {
		r.runRankGeneral(id)
	}
}

// runRankGeneral executes one rank's scalar script ops until the rank
// blocks or finishes. It serves every replay off the fused path: RNG-drawing
// cost models (which draw per op in recorded program order) and perturbed
// replays, with fault injection, compute noise and probe accounting woven
// into the arms. With all of those off it reduces to plain array
// arithmetic. Clocks follow the event scheduler's law, so every replay is
// bit-identical to the event backend under the same options.
func (r *Replayer) runRankGeneral(id int) {
	t := r.t
	net := r.opts.Net
	noise := r.opts.Noise
	det := r.det
	cnet, ns := r.cnet, r.ns
	lits, charges := t.lits, r.charges
	sendSec, availSec, recvSec := r.sendSec, r.availSec, r.recvSec
	self := &r.rk[id]
	streams := r.streams[id*r.nslots : (id+1)*r.nslots]
	clock := self.clock
	sp, op := self.spos, self.opos
	sEnd := t.sstart[id+1]
	// Fault-injection cursor and probe accumulator, in registers for the
	// loop and written back on park/finish. Delays for an op index are
	// consumed in full at its first execution, so the park-and-re-execute
	// paths (receive, collective) cannot double-apply them.
	probe := r.opts.Probe
	inj := r.injecting
	failing := r.failing
	flog := r.opts.FailLog
	var (
		dq       []Delay
		fq       []failCursor
		lastCkpt float64
		opn      int32
		idle     float64
	)
	if inj {
		dq, opn = r.dqs[id], r.opns[id]
	}
	if failing {
		fq, lastCkpt = r.fqs[id], r.ckpts[id]
	}
	if probe != nil {
		idle = r.idles[id]
	}
	var chunk []top
	var slots []uint8 // chunk's stream slots
	if sp < sEnd {
		c := t.script[sp]
		chunk = t.chunkOps[t.cstart[c]:t.cstart[c+1]]
		slots = t.oslot[t.cstart[c]:t.cstart[c+1]]
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
			chunk = t.chunkOps[t.cstart[c]:t.cstart[c+1]]
			slots = t.oslot[t.cstart[c]:t.cstart[c+1]]
			continue
		}
		o := &chunk[op]
		if inj {
			for len(dq) > 0 && dq[0].Op == int(opn) {
				clock += dq[0].Seconds
				dq = dq[1:]
			}
			// Failures land after co-located delays, mirroring
			// Comm.injectFaults: the delay's damage is part of the rework a
			// failure at the same op re-executes.
			for len(fq) > 0 && fq[0].op == opn {
				f := fq[0]
				fq = fq[1:]
				rework := clock - lastCkpt
				if flog != nil {
					flog.events[f.slot] = FailEvent{
						Rank: id, Op: int(f.op), At: clock,
						LastCkpt: lastCkpt, Rework: rework, Restart: f.restart,
						Applied: true,
					}
				}
				clock += rework + f.restart
			}
		}
		switch o.kind {
		case topChargeParam:
			if s := charges[o.arg0]; s > 0 {
				if noise != nil {
					s = noise.Perturb(s, r.rng(id))
				}
				clock += s
			}
		case topCkpt:
			// Exact charge — checkpoint I/O is not subject to compute noise
			// — then pin the rewind target, as Comm.Checkpoint does.
			if s := charges[o.arg0]; s > 0 {
				clock += s
			}
			lastCkpt = clock
		case topChargeLit:
			clock += lits[o.arg0]
		case topChargeNoisy:
			s := lits[o.arg0]
			if noise != nil {
				s = noise.Perturb(s, r.rng(id))
			}
			clock += s
		case topSendLit, topSendParam:
			u := int(o.arg2)
			if o.kind == topSendParam {
				u += len(t.sizes)
			}
			dst := id + int(o.arg0)
			start := clock
			avail := start
			var aux float64 // unread when net == nil
			if net != nil {
				ui := u // class-resolved table index: cls*ns + size index
				if cnet != nil {
					ui += cnet.ClassOf(id, dst) * ns
				}
				if det {
					clock = start + sendSec[ui]
					avail = start + availSec[ui]
					aux = recvSec[ui]
				} else {
					rng := r.rng(id)
					b := int(r.bytes[u])
					if cnet != nil {
						cls := ui / ns
						clock = start + cnet.SendOverheadClass(cls, b, rng)
						avail = start + cnet.TransitClass(cls, b, rng)
					} else {
						clock = start + net.SendOverhead(b, rng)
						avail = start + net.Transit(b, rng)
					}
					aux = float64(ui)
				}
			}
			r.deliver(dst, slots[op], avail, aux)
		case topRecv:
			m, ok := streams[slots[op]].take()
			if !ok {
				// Park at this op; when woken, the outer loop re-enters
				// runRank and the receive re-executes with the message
				// queued.
				status = evBlocked
				break run
			}
			if m.avail > clock {
				if probe != nil {
					idle += m.avail - clock
				}
				clock = m.avail
			}
			if net != nil {
				if det {
					clock += m.aux
				} else {
					ui := int(m.aux)
					if cnet != nil {
						clock += cnet.RecvOverheadClass(ui/ns, int(r.bytes[ui%ns]), r.rng(id))
					} else {
						clock += net.RecvOverhead(int(r.bytes[ui]), r.rng(id))
					}
				}
			}
		case topReduce:
			if self.collResolved {
				// Resume after the closer resolved the generation; the
				// entry clock was frozen at park, so the idle delta matches
				// the event backend's done-minus-entry accounting.
				self.collResolved = false
				if probe != nil {
					idle += self.collDone - clock
				}
				clock = self.collDone
				break
			}
			if probe != nil {
				probe.record(r.collGen, id, clock, idle)
			}
			done, closed := r.reduce(id, clock, o.arg0)
			if !closed {
				// Park inside the collective; the closing rank resolves the
				// generation and the re-executed op consumes it on resume.
				status = rBlockedColl
				break run
			}
			r.collGen++
			r.release(done)
			if probe != nil {
				idle += done - clock
			}
			clock = done
		case topMark:
			r.marks[o.arg0] = clock
		}
		op++
		if inj {
			opn++
		}
	}
	self.clock = clock
	self.spos, self.opos = sp, op
	self.status = status
	if status == evDone {
		self.opos = 0
		r.doneCount++
	}
	if inj {
		r.dqs[id], r.opns[id] = dq, opn
	}
	if failing {
		r.fqs[id], r.ckpts[id] = fq, lastCkpt
	}
	if probe != nil {
		r.idles[id] = idle
	}
}
