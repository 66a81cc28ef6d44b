// Package mp is an MPI-like message-passing runtime for in-process parallel
// programs. Ranks exchange typed messages through blocking point-to-point
// sends/receives and collectives.
//
// The runtime doubles as a virtual-time cluster simulator: when a World is
// created with a NetworkModel, every rank carries a virtual clock (seconds)
// that advances through explicit compute charges and through the network
// model's send/receive/transit costs. Receive completion respects causality:
// a message cannot be consumed before its availability time, which is the
// sender's clock at the start of the send plus the one-way transit time.
// This is the substrate both for "measured" cluster-simulation runs (driven
// by ground-truth platform models, internal/platform) and for PACE model
// evaluation (driven by fitted hardware models, internal/hwmodel).
//
// Ranks execute under a cooperative event-driven run loop (event.go): one
// rank runs at a time, ordered by a virtual-clock min-heap, and hands
// control off directly when it blocks; message delivery is a plain slice
// append with no locks. A run is fully deterministic regardless of
// GOMAXPROCS — including the floating-point accumulation order of
// collectives — and deadlocks are detected exactly (no runnable rank while
// some are still blocked). A World runs its program once, on that loop;
// World.RunRecorded also records the run's communication script, which
// a Replayer replays goroutine-free under other cost tables (trace.go).
// A lone large deterministic replay uses one idle core more: it splits its
// ranks over two workers whose clocks are bit-identical to the serial
// replay's (parallel.go).
package mp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// NetworkModel prices message-passing operations in seconds. Implementations
// may use the supplied per-rank RNG to add deterministic jitter; rng is never
// nil — except for models that implement DeterministicCosts and report true,
// which have declared their costs pure functions of the size and must ignore
// the RNG (the runtime then passes nil and memoizes per size). A nil
// NetworkModel on the World means all costs are zero (purely functional
// execution).
type NetworkModel interface {
	// SendOverhead is the time the sending processor is busy in a blocking
	// standard-mode send of the given wire size.
	SendOverhead(bytes int, rng *rand.Rand) float64
	// RecvOverhead is the time the receiving processor is busy completing a
	// receive once the message is available.
	RecvOverhead(bytes int, rng *rand.Rand) float64
	// Transit is the one-way end-to-end delay from send start until the
	// message is available at the receiver.
	Transit(bytes int, rng *rand.Rand) float64
	// ReduceCost is the time a p-rank reduction/barrier of the given payload
	// adds beyond synchronising at the latest participant's clock.
	ReduceCost(p, bytes int, rng *rand.Rand) float64
}

// ComputeNoise perturbs compute charges, modelling OS interference and other
// run-to-run variation. Implementations must be pure functions of their
// arguments and the RNG stream so that simulations are reproducible. A
// run calls Perturb in schedule order, interleaving ranks, and so does a
// trace replay; each rank's charges are in program order on both. Both
// give the same draws because each rank draws from its own stream, seeded
// alike: the run's on rand.NewSource, the replay's on a source with the
// same state and outputs but a cheaper Seed (rankSource).
type ComputeNoise interface {
	Perturb(seconds float64, rng *rand.Rand) float64
}

// DeterministicCosts is an optional NetworkModel extension. A model that
// reports true declares all four cost methods pure functions of their size
// arguments (no RNG use): the runtime then skips per-rank RNG materialisation
// on the message path and caches one priced size per curve per rank, which is
// a near-100% hit rate for block-structured workloads like the wavefront.
// A trace replay (Replayer) takes only such models.
type DeterministicCosts interface {
	CostsDeterministic() bool
}

// ClassNetworkModel is an optional NetworkModel extension for hierarchical
// interconnects: point-to-point costs depend on a (src, dst) cost class —
// same node, same cluster, cross-cluster WAN — as well as the wire size.
//
// ClassOf must be a pure, symmetric function of the rank pair, and the
// class methods pure functions of (class, size) modulo the supplied RNG —
// the same contract NetworkModel's size-only methods carry per size. The
// runtime resolves the class of every send at the sender (ClassOf(src,
// dst)) and of every receive at delivery (same pair, same class), so a
// live run and a trace replay price identically. ReduceCost keeps pricing
// collectives whole — a hierarchical model folds its tiers into that one
// number (e.g. a tree that reduces within nodes before crossing them).
//
// A model reporting NetClasses() == 1 is flat; the runtime then ignores
// the class machinery entirely and keeps its single-class fast paths, so
// wrapping a flat network in this interface costs nothing. The size-only
// NetworkModel methods must price class 0 (used by class-unaware callers
// such as two-rank benchmark worlds).
type ClassNetworkModel interface {
	NetworkModel
	// NetClasses returns the number of distinct cost classes ClassOf can
	// produce; it must be at least 1 and constant for the model's lifetime.
	NetClasses() int
	// ClassOf resolves a rank pair to its cost class in [0, NetClasses()).
	ClassOf(src, dst int) int
	// SendOverheadClass, RecvOverheadClass and TransitClass are the
	// class-resolved forms of the NetworkModel methods.
	SendOverheadClass(class, bytes int, rng *rand.Rand) float64
	RecvOverheadClass(class, bytes int, rng *rand.Rand) float64
	TransitClass(class, bytes int, rng *rand.Rand) float64
}

// classesOf reports the class model and class count of a network model: a
// ClassNetworkModel with more than one class, or (nil, 1) for flat models
// — including class models that degenerate to a single class, which keep
// the flat fast paths.
func classesOf(net NetworkModel) (ClassNetworkModel, int) {
	if cn, ok := net.(ClassNetworkModel); ok {
		if n := cn.NetClasses(); n > 1 {
			return cn, n
		}
	}
	return nil, 1
}

// netIsDeterministic reports whether the model opted into the
// DeterministicCosts fast path.
func netIsDeterministic(net NetworkModel) bool {
	if net == nil {
		return false
	}
	dc, ok := net.(DeterministicCosts)
	return ok && dc.CostsDeterministic()
}

// Options configure a World.
type Options struct {
	// Net prices messages and collectives; nil is zero-cost (functional)
	// transport. A World runs any model. A trace replay (Replayer) takes
	// nil or a DeterministicCosts model only and refuses one that draws its
	// costs with ErrDrawingNet.
	Net   NetworkModel
	Noise ComputeNoise // nil: charges applied exactly
	Seed  int64        // base seed for per-rank RNG streams
	// Delays are injected one-off delays (fault injection); each charges
	// extra virtual time to one rank immediately before one of its
	// recordable operations. Both backends apply them identically.
	Delays []Delay
	// Fails are injected fail-stop failures; each kills one rank
	// immediately before one of its recordable operations and recovers it
	// from its last checkpoint (Comm.Checkpoint) with a restart charge.
	// Both backends apply them identically; see failstop.go.
	Fails []FailStop
	// FailLog, when non-nil, records every applied failure of the run
	// (reset by Run/Replay), one slot per Fails entry.
	FailLog *FailLog
	// Probe, when non-nil, records per-rank clock and idle-time timelines
	// at every collective generation during the run (reset by Run/Replay).
	Probe *RunProbe
}

// World is a fixed-size group of ranks. A world runs once: Run (or
// RunRecorded) on a world that has already run is an error, so every
// evaluation builds a fresh world.
type World struct {
	n      int
	opts   Options
	detNet bool              // opts.Net opted into the DeterministicCosts fast path
	cnet   ClassNetworkModel // opts.Net with >1 (src,dst) cost class; nil for flat
	ran    bool              // set by Run and RunRecorded
	clocks []float64
	ev     *evWorld // the event-scheduler instance

	// rec is the trace recorder of a RunRecorded (or CompileClasses) run;
	// nil otherwise (see trace.go).
	rec *traceRec

	// Parameter tables read by ChargeParam/SendParam (SetParams) and the
	// mark slots written by Comm.Mark.
	paramCharges []float64
	paramSizes   []int
	marks        [MaxMarks]float64

	// rkDelays and rkFails are Options.Delays / Options.Fails partitioned
	// into per-rank op-ordered queues; Comms consume private cursors into
	// them.
	rkDelays [][]Delay
	rkFails  [][]failCursor
}

// NewWorld creates a world of n ranks. n must be positive.
func NewWorld(n int, opts Options) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mp: world size must be positive, got %d", n)
	}
	if err := validDelays(n, opts.Delays); err != nil {
		return nil, err
	}
	if err := validFailStops(n, opts.Fails); err != nil {
		return nil, err
	}
	w := &World{n: n, opts: opts, clocks: make([]float64, n)}
	w.detNet = netIsDeterministic(opts.Net)
	w.cnet, _ = classesOf(opts.Net)
	w.rkDelays = rankDelays(n, opts.Delays)
	w.rkFails = rankFails(n, opts.Fails)
	w.ev = newEvWorld(w)
	return w, nil
}

// initComm initialises a fresh rank's Comm. The RNG is materialised on
// first use, so untouched streams (the common case under deterministic
// cost models) cost nothing.
func (w *World) initComm(c *Comm, rank int) {
	c.w = w
	c.rank = rank
	c.seed = w.opts.Seed + int64(rank)*0x9E3779B9
	c.det = w.detNet
	c.cnet = w.cnet
	c.sendC = sizeCost{bytes: -1}
	c.recvC = sizeCost{bytes: -1}
	c.transC = sizeCost{bytes: -1}
	if w.rkDelays != nil {
		c.dq = w.rkDelays[rank]
	}
	if w.rkFails != nil {
		c.fq = w.rkFails[rank]
	}
	c.inj = len(c.dq) > 0 || len(c.fq) > 0
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.n }

// Makespan returns the maximum final virtual clock across ranks after Run
// has returned. With no network model and no charges it is zero.
func (w *World) Makespan() float64 {
	m := 0.0
	for _, c := range w.clocks {
		m = math.Max(m, c)
	}
	return m
}

// Clock returns the final virtual clock of a rank after Run has returned.
func (w *World) Clock(rank int) float64 { return w.clocks[rank] }

// errAborted is the panic value used to unwind blocked ranks when the
// scheduler finds the world deadlocked; Run converts it into an error.
var errAborted = errors.New("mp: run aborted: deadlock (no rank can make progress)")

// errRanTwice is returned by Run and RunRecorded on a world that has
// already run.
var errRanTwice = errors.New("mp: world already run; a World runs once, build a new one")

// Run executes f once per rank on the event scheduler and waits for all
// ranks. The first non-nil error (or recovered panic) is returned. Final
// virtual clocks remain available via Clock/Makespan. A world runs once.
func (w *World) Run(f func(c *Comm) error) error {
	if err := w.start(); err != nil {
		return err
	}
	return w.runEvent(f)
}

// RunRecorded runs f once like Run while recording each rank's operation
// sequence, returning the trace for replay elsewhere (NewReplayer). The
// world's clocks are valid afterwards exactly as for Run. A failed run
// (deadlock, rank error, panic) returns no trace.
func (w *World) RunRecorded(f func(c *Comm) error) (*Trace, error) {
	if err := w.start(); err != nil {
		return nil, err
	}
	w.rec = newTraceRec(w.n)
	err := w.runEvent(f)
	rec := w.rec
	w.rec = nil
	if err != nil {
		return nil, err
	}
	return rec.build()
}

// start marks the world run and resets the run's probe and fail log.
func (w *World) start() error {
	if w.ran {
		return errRanTwice
	}
	w.ran = true
	if p := w.opts.Probe; p != nil {
		p.reset(w.n, 0)
	}
	if l := w.opts.FailLog; l != nil {
		l.reset(len(w.opts.Fails))
	}
	return nil
}

// SetParams attaches the parameter tables read by Comm.ChargeParam and
// Comm.SendParam (and by trace replays of programs recorded with them).
// The slices are aliased, not copied. Set them before Run.
func (w *World) SetParams(charges []float64, sizes []int) {
	w.paramCharges = charges
	w.paramSizes = sizes
}

// Marks returns the world's mark slots (Comm.Mark) after Run; unwritten
// slots are zero. The returned slice aliases the world's storage.
func (w *World) Marks() []float64 { return w.marks[:] }

// sizeCost memoizes one priced (class, size) pair for one cost curve;
// bytes == -1 marks it empty (flat models always price class 0).
// Block-structured workloads send a handful of distinct sizes, so a
// single entry hits almost always and replaces an interface dispatch per
// operation with two integer compares.
type sizeCost struct {
	bytes int
	class int
	sec   float64
}

// Comm is a rank's handle on the world. It is valid only inside the function
// passed to Run and must not be shared across goroutines. Under
// CompileClasses a Comm is script-only: each op is recorded and does
// nothing else, so clocks stay zero and receives and collectives return
// zeros.
type Comm struct {
	w         *World
	rank      int
	clock     float64
	seed      int64
	rng       *rand.Rand        // materialised lazily; see rand()
	det       bool              // world's net model declared DeterministicCosts
	cnet      ClassNetworkModel // world's net model with >1 cost class; nil flat
	bcastRoot bool              // set while this rank is the root of a Bcast

	// Per-curve single-size memos for the DeterministicCosts fast path.
	sendC, recvC, transC sizeCost

	// Fault-injection cursors (Options.Delays / Options.Fails) and probe
	// idle accumulator: opn counts recordable operations, dq/fq are the
	// rank's pending delays and failures, lastCkpt is the clock of the
	// most recent Comm.Checkpoint (the failure rewind target), and inj
	// gates the whole machinery behind one predictable branch per op.
	opn      int32
	dq       []Delay
	fq       []failCursor
	lastCkpt float64
	idle     float64
	inj      bool
}

// injectFaults charges every injected delay and fail-stop failure
// scheduled at the rank's current operation index and advances the
// counter. Each recordable operation calls it exactly once, mirroring
// what a trace records, so op indices mean the same instant on every
// backend. Delays land first: their damage is part of the segment a
// co-located failure re-executes.
func (c *Comm) injectFaults() {
	for len(c.dq) > 0 && c.dq[0].Op == int(c.opn) {
		c.clock += c.dq[0].Seconds
		c.dq = c.dq[1:]
	}
	for len(c.fq) > 0 && c.fq[0].op == c.opn {
		f := c.fq[0]
		c.fq = c.fq[1:]
		rework := c.clock - c.lastCkpt
		if l := c.w.opts.FailLog; l != nil {
			l.events[f.slot] = FailEvent{
				Rank: c.rank, Op: int(f.op), At: c.clock,
				LastCkpt: c.lastCkpt, Rework: rework, Restart: f.restart,
				Applied: true,
			}
		}
		c.clock += rework + f.restart
	}
	c.opn++
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.n }

// Now returns the rank's current virtual clock in seconds. It must stay a
// leaf accessor (no interface hops, nothing that defeats inlining): it sits
// on the per-block fast path of template evaluation.
func (c *Comm) Now() float64 { return c.clock }

// rand returns the rank's RNG stream, materialising it on first use.
// Deferring this keeps RNG-free runs (deterministic cost models, no noise)
// from paying the ~5KB source allocation and 1,841-step seeding chain per
// rank.
func (c *Comm) rand() *rand.Rand {
	if c.rng == nil {
		// rand.NewSource on purpose: the independent reference for rankSource.
		c.rng = rand.New(rand.NewSource(c.seed))
	}
	return c.rng
}

// Rand returns the rank's deterministic RNG stream.
func (c *Comm) Rand() *rand.Rand { return c.rand() }

// Charge advances the rank's virtual clock by the given compute time,
// applying the world's noise model if any. Negative charges are ignored.
func (c *Comm) Charge(seconds float64) {
	if seconds <= 0 {
		return
	}
	if rec := c.w.rec; rec != nil {
		// Recorded pre-noise: replays re-perturb from the rank stream, so
		// the draw order (and every later draw) matches the live run.
		rec.chargeLit(c.rank, seconds, c.w.opts.Noise != nil)
		if rec.scriptOnly {
			return
		}
	}
	if c.inj {
		c.injectFaults()
	}
	if n := c.w.opts.Noise; n != nil {
		seconds = n.Perturb(seconds, c.rand())
	}
	c.clock += seconds
}

// ChargeExact advances the clock without noise; used by model evaluation,
// which is deterministic by definition. Like Now it must stay a leaf
// function — it is called once per (angle, k) block per rank.
func (c *Comm) ChargeExact(seconds float64) {
	if seconds > 0 {
		if rec := c.w.rec; rec != nil {
			rec.chargeLit(c.rank, seconds, false)
			if rec.scriptOnly {
				return
			}
		}
		if c.inj {
			c.injectFaults()
		}
		c.clock += seconds
	}
}

// ChargeParam advances the clock by entry i of the world's charge
// parameter table (World.SetParams), applying the world's noise model if
// any (model evaluation runs with no noise configured, so its charges
// stay exact). Unlike ChargeExact the table *index* — not the value — is
// what a trace records, so a recorded program replays correctly under
// swapped tables.
func (c *Comm) ChargeParam(i int) {
	if rec := c.w.rec; rec != nil {
		rec.chargeParam(c.rank, i)
		if rec.scriptOnly {
			return
		}
	}
	if c.inj {
		c.injectFaults()
	}
	if s := c.w.paramCharges[i]; s > 0 {
		if n := c.w.opts.Noise; n != nil {
			s = n.Perturb(s, c.rand())
		}
		c.clock += s
	}
}

// SendParam is SendN with the wire size drawn from entry i of the world's
// size parameter table (World.SetParams); traces record the index.
func (c *Comm) SendParam(dst, tag, i int) {
	c.sendN(dst, tag, 0, nil, int32(i))
}

// Mark records the rank's current clock in the world's mark slot (read
// back via World.Marks after Run). Slots are single-writer: at most one
// rank may write a given slot during a run. slot must be < MaxMarks.
func (c *Comm) Mark(slot int) {
	if rec := c.w.rec; rec != nil {
		rec.mark(c.rank, slot)
		if rec.scriptOnly {
			return
		}
	}
	if c.inj {
		c.injectFaults()
	}
	c.w.marks[slot] = c.clock
}

// Checkpoint is a recordable operation marking a recovery point: it
// charges entry i of the world's charge parameter table as checkpoint
// write cost — exactly, since checkpoint I/O is not subject to compute
// noise — and then pins the rank's clock as the rewind target of any later
// fail-stop failure (Options.Fails). Traces record the table index, so a
// recorded program replays correctly under swapped checkpoint costs.
func (c *Comm) Checkpoint(i int) {
	if rec := c.w.rec; rec != nil {
		rec.ckpt(c.rank, i)
		if rec.scriptOnly {
			return
		}
	}
	if c.inj {
		c.injectFaults()
	}
	if s := c.w.paramCharges[i]; s > 0 {
		c.clock += s
	}
	c.lastCkpt = c.clock
}

// Send delivers data to dst under tag. It blocks only for the (virtual) send
// overhead, like an MPI standard-mode send of a buffered message. The wire
// size is 8*len(data) bytes.
func (c *Comm) Send(dst, tag int, data []float64) {
	c.SendN(dst, tag, 8*len(data), data)
}

// SendN is Send with an explicit wire size, allowing skeleton executions to
// charge realistic message costs without materialising payloads. data may be
// nil; if not nil it is copied so the caller may reuse the buffer.
func (c *Comm) SendN(dst, tag, bytes int, data []float64) {
	c.sendN(dst, tag, bytes, data, -1)
}

// sendN is the shared send path; paramIdx >= 0 marks a SendParam whose
// size-table index (rather than the literal size) is recorded in traces,
// and whose size is read from the table only once the op is not script-only.
func (c *Comm) sendN(dst, tag, bytes int, data []float64, paramIdx int32) {
	if dst < 0 || dst >= c.w.n {
		panic(fmt.Errorf("mp: rank %d sending to invalid rank %d", c.rank, dst))
	}
	if dst == c.rank {
		panic(fmt.Errorf("mp: rank %d sending to itself", c.rank))
	}
	if rec := c.w.rec; rec != nil {
		rec.send(c.rank, dst, tag, bytes, paramIdx)
		if rec.scriptOnly {
			return
		}
	}
	if paramIdx >= 0 {
		bytes = c.w.paramSizes[paramIdx]
	}
	if c.inj {
		c.injectFaults()
	}
	start := c.clock
	avail := start
	if net := c.w.opts.Net; net != nil {
		cls := 0
		if c.cnet != nil {
			cls = c.cnet.ClassOf(c.rank, dst)
		}
		if c.det {
			if c.sendC.bytes != bytes || c.sendC.class != cls {
				c.sendC = sizeCost{bytes: bytes, class: cls, sec: c.sendCost(net, cls, bytes, nil)}
			}
			c.clock = start + c.sendC.sec
			if c.transC.bytes != bytes || c.transC.class != cls {
				c.transC = sizeCost{bytes: bytes, class: cls, sec: c.transitCost(net, cls, bytes, nil)}
			}
			avail = start + c.transC.sec
		} else {
			rng := c.rand()
			c.clock = start + c.sendCost(net, cls, bytes, rng)
			avail = start + c.transitCost(net, cls, bytes, rng)
		}
	}
	var cp []float64
	if data != nil {
		cp = make([]float64, len(data))
		copy(cp, data)
	}
	c.w.ev.deliver(dst, qkey(c.rank, tag), bytes, cp, avail)
}

// sendCost, transitCost and recvCost price one operation at the resolved
// cost class: through the class methods for multi-class models, the
// size-only NetworkModel methods otherwise. They stay leaf-sized so the
// common flat path inlines to the original single interface dispatch.
func (c *Comm) sendCost(net NetworkModel, cls, bytes int, rng *rand.Rand) float64 {
	if c.cnet != nil {
		return c.cnet.SendOverheadClass(cls, bytes, rng)
	}
	return net.SendOverhead(bytes, rng)
}

func (c *Comm) transitCost(net NetworkModel, cls, bytes int, rng *rand.Rand) float64 {
	if c.cnet != nil {
		return c.cnet.TransitClass(cls, bytes, rng)
	}
	return net.Transit(bytes, rng)
}

func (c *Comm) recvCost(net NetworkModel, cls, bytes int, rng *rand.Rand) float64 {
	if c.cnet != nil {
		return c.cnet.RecvOverheadClass(cls, bytes, rng)
	}
	return net.RecvOverhead(bytes, rng)
}

// Recv blocks until a message from src with the given tag is available and
// returns its payload (nil for payload-free sends). Messages between a given
// pair of ranks with the same tag are non-overtaking.
func (c *Comm) Recv(src, tag int) []float64 {
	data, _ := c.RecvN(src, tag)
	return data
}

// RecvN is Recv that also reports the wire size of the received message.
func (c *Comm) RecvN(src, tag int) ([]float64, int) {
	if src < 0 || src >= c.w.n {
		panic(fmt.Errorf("mp: rank %d receiving from invalid rank %d", c.rank, src))
	}
	if rec := c.w.rec; rec != nil {
		rec.recv(c.rank, src, tag)
		if rec.scriptOnly {
			return nil, 0
		}
	}
	if c.inj {
		c.injectFaults()
	}
	data, bytes, avail := c.w.ev.receive(c, src, tag)
	// Causality holds regardless of the cost model: the receive cannot
	// complete before the message is available.
	if avail > c.clock {
		if c.w.opts.Probe != nil {
			c.idle += avail - c.clock
		}
		c.clock = avail
	}
	if net := c.w.opts.Net; net != nil {
		cls := 0
		if c.cnet != nil {
			cls = c.cnet.ClassOf(src, c.rank)
		}
		if c.det {
			if c.recvC.bytes != bytes || c.recvC.class != cls {
				c.recvC = sizeCost{bytes: bytes, class: cls, sec: c.recvCost(net, cls, bytes, nil)}
			}
			c.clock += c.recvC.sec
		} else {
			c.clock += c.recvCost(net, cls, bytes, c.rand())
		}
	}
	return data, bytes
}

// Barrier blocks until all ranks have entered it. Under a network model all
// clocks synchronise to the latest participant plus the reduction cost.
func (c *Comm) Barrier() {
	c.reduce(nil, 0)
}

// AllreduceMax returns the maximum of x across all ranks; all clocks
// synchronise as for Barrier.
func (c *Comm) AllreduceMax(x float64) float64 {
	out := c.reduce([]float64{x}, reduceMax)
	return out[0]
}

// AllreduceSum returns the sum of x across all ranks.
func (c *Comm) AllreduceSum(x float64) float64 {
	out := c.reduce([]float64{x}, reduceSum)
	return out[0]
}

// AllreduceSumSlice element-wise sums xs across ranks; all ranks must pass
// slices of the same length. The result is a fresh slice.
func (c *Comm) AllreduceSumSlice(xs []float64) []float64 {
	return c.reduce(xs, reduceSum)
}

// Bcast distributes the root rank's values to every rank. All ranks must
// pass slices of the same length (as in MPI, receivers know the message
// shape); the result is a fresh slice holding the root's data. Clocks
// synchronise as for the other collectives.
func (c *Comm) Bcast(root int, xs []float64) []float64 {
	if root < 0 || root >= c.w.n {
		panic(fmt.Errorf("mp: rank %d broadcasting from invalid root %d", c.rank, root))
	}
	c.bcastRoot = c.rank == root
	defer func() { c.bcastRoot = false }()
	return c.reduce(xs, reduceRoot)
}

const (
	reduceSum = iota + 1
	reduceMax
	reduceRoot
)

// reduceAccumulate folds one rank's contribution into the accumulator.
// root marks the calling rank as the Bcast root.
func reduceAccumulate(acc, data []float64, op int, root bool) {
	for i, v := range data {
		switch op {
		case reduceSum:
			acc[i] += v
		case reduceMax:
			acc[i] = math.Max(acc[i], v)
		case reduceRoot:
			if root {
				acc[i] = v
			}
		}
	}
}

// reduce performs a blocking all-reduce. op 0 means barrier (data ignored).
func (c *Comm) reduce(data []float64, op int) []float64 {
	if rec := c.w.rec; rec != nil {
		rec.reduce(c.rank, len(data))
		if rec.scriptOnly {
			// No values flow in a script-only run; the caller still gets a
			// slice of the collective's length.
			return rec.zeroResult(len(data))
		}
	}
	if c.inj {
		c.injectFaults()
	}
	return c.w.ev.reduce(c, data, op)
}

// RunWorld is a convenience wrapper: create a world, run f, and return the
// world for clock inspection along with any error.
func RunWorld(n int, opts Options, f func(c *Comm) error) (*World, error) {
	w, err := NewWorld(n, opts)
	if err != nil {
		return nil, err
	}
	if err := w.Run(f); err != nil {
		return w, err
	}
	return w, nil
}

// SortedClocks returns the final per-rank clocks in ascending order; useful
// for load-imbalance diagnostics in tests and reports.
func (w *World) SortedClocks() []float64 {
	out := append([]float64(nil), w.clocks...)
	sort.Float64s(out)
	return out
}
