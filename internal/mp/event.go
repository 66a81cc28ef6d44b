package mp

// The event-driven virtual-time scheduler: the run loop of every World
// (World.Run, and the recording run of World.RunRecorded). It is the
// one-shot reference every trace replay is checked against.
//
// Ranks run as cooperative coroutines: exactly one goroutine holds the
// execution token at any moment, and a rank that blocks (a receive with no
// matching message, a collective waiting for stragglers) hands the token
// directly to the next runnable rank — the one with the smallest virtual
// clock. Message delivery is a plain slice append; there are no mutexes,
// condition variables or broadcast wake-ups anywhere on the path. Because
// the interleaving is fully determined by the virtual clocks (ties broken
// by rank id), a run's output — including floating-point accumulation
// order in collectives — is bit-identical across repeated runs and
// GOMAXPROCS settings.
//
// Run-to-completion handoff: the scheduler keeps the next runnable rank in
// a dedicated slot (ev.slot) beside the clock min-heap. A rank woken by a
// message delivery (the overwhelmingly common case in a wavefront, where
// the sender's delivery is what unblocks the unique minimum-clock rank)
// parks in the slot instead of being pushed through the heap; when the
// sender eventually blocks, the token is handed straight to the slot with
// zero heap traffic. The heap only sees ranks displaced from the slot by
// an even-earlier wake-up, so steady-state block/wake cycles cost one
// comparison instead of a push+pop pair of log-depth sift operations.
// scheduleNext still always resumes the exact minimum-(clock, id) runnable
// rank, so the schedule — and therefore every clock — is unchanged.
//
// Memory layout: per-rank state is split into two parallel arrays. evInbox
// holds only what a *sender* touches when delivering into another rank —
// status, the awaited stream key, and the stream table — at ~48 bytes per
// rank, so the whole delivery-hot working set of even an 8000-rank world
// stays cache-resident. evRank carries everything else (the resume
// channel, collective snapshot, the embedded Comm), which only the rank
// itself and the scheduler touch.
//
// All run state lives in one evWorld allocated with the World.
//
// Per-rank virtual-clock arithmetic (costs, causality, fault injection)
// lives in the shared Comm methods (Comm.SendN/RecvN/reduce); this file
// only queues messages and orders ranks. It is the independent reference
// the trace replayer is checked against bit for bit (sched_test.go).
//
// Deadlocks are detected exactly: when no rank is runnable and some are
// still blocked, no message can ever arrive, so the scheduler aborts the
// blocked ranks immediately with errAborted — including ranks parked
// *inside* a collective that the remaining ranks will never join.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Rank states of the event scheduler.
const (
	evReady   uint8 = iota // runnable, queued in the clock heap or slot
	evRunning              // holds the execution token
	evBlocked              // parked on a receive or collective
	evDone                 // rank function returned or panicked
)

// qmsg is one queued message in a stream. The stream key already encodes
// (src, tag) and payloads live in the stream's side array, so a queued
// message is 16 bytes — delivery into a remote rank's queue is the single
// hottest memory traffic of the event backend, and skeleton/template
// workloads (payload-free sends) dirty exactly one cache line per four
// deliveries. Wire sizes are stored as int32: virtual messages above 2 GiB
// are outside any modelled regime.
type qmsg struct {
	avail   float64 // virtual time at which the receiver may consume it
	bytes   int32
	dataIdx int32 // index into msgStream.data, or -1 for payload-free
}

// msgStream is a FIFO of messages for one (src, tag) pair: appended at
// the tail, consumed from head. When drained it resets to reuse capacity,
// so steady-state delivery is allocation- and memmove-free. The data side
// array is touched only by payload-carrying messages and stays nil for
// skeleton traffic.
type msgStream struct {
	key  uint64
	msgs []qmsg
	head int
	data [][]float64
}

// qkey packs a (src, tag) pair into one stream key. It must stay a leaf
// function (no closures, no interface hops): it sits on the per-block
// fast path of every send and receive and is expected to inline.
func qkey(src, tag int) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(tag))
}

// evInbox is the delivery-hot slice of one rank's state; see the package
// comment on layout.
type evInbox struct {
	status  uint8
	inColl  bool    // blocked inside a collective
	wantKey uint64  // the stream a blocked receive waits for
	clock   float64 // the rank's clock, frozen at block time (valid while not running)

	// streams holds incoming messages by (src, tag), flattened into a
	// value slice: ranks talk to a handful of peers (the wavefront uses at
	// most four streams), where an inline linear scan beats both a map and
	// a pointer slice. Streams are addressed by index, never by held
	// pointer — the backing array moves when a new stream is added.
	streams []msgStream
}

// streamIndex returns the index of the rank's (src, tag) stream, creating
// it on first use. Callers re-derive the *msgStream from the index after
// any operation that can add streams (blocking included) — the backing
// array may have moved.
func (ib *evInbox) streamIndex(k uint64) int {
	for i := range ib.streams {
		if ib.streams[i].key == k {
			return i
		}
	}
	ib.streams = append(ib.streams, msgStream{key: k})
	return len(ib.streams) - 1
}

// evRank is the cold remainder of a rank's cooperative execution state:
// only the rank itself (while running) and the scheduler (on handoff)
// touch it.
type evRank struct {
	id     int
	resume chan struct{} // buffered(1) token handoff

	// Snapshot of the collective outcome, written by the generation's
	// closing rank before this rank is woken (the closer may race ahead
	// into the next generation before this rank resumes).
	collRes  []float64
	collDone float64

	err  error
	comm Comm
}

// evColl is the lock-free, generation-counted collective state of the
// event backend. A drawing net's collective costs draw from a dedicated RNG
// stream, not the closing rank's, so pricing does not depend on which rank
// arrives last; the stream is nil under a nil or DeterministicCosts net.
type evColl struct {
	n       int
	arrived int
	gen     int // completed generations; the probe's row index
	op      int
	acc     []float64
	maxTime float64
	rng     *rand.Rand
	waiters []int // rank ids, in arrival order
}

// evWorld is the event scheduler instance of one World.
type evWorld struct {
	w         *World
	f         func(c *Comm) error // the current run's rank function
	ranks     []evRank
	boxes     []evInbox
	heap      clockHeap
	slot      int           // run-to-completion handoff slot (rank id; -1 empty)
	slotClock float64       // the slot rank's frozen clock
	master    chan struct{} // buffered(1); signalled when every rank has finished
	doneCount int
	aborting  bool
	coll      evColl
}

// newEvWorld builds the scheduler state for a world.
func newEvWorld(w *World) *evWorld {
	ev := &evWorld{w: w, slot: -1, master: make(chan struct{}, 1)}
	ev.coll.n = w.n
	if w.opts.Net != nil && !w.detNet {
		// Only a drawing net reads the collective stream; DeterministicCosts
		// models take a nil one, as on the message path.
		ev.coll.rng = rand.New(rand.NewSource(w.opts.Seed ^ 0x1F3D5B79))
	}
	ev.ranks = make([]evRank, w.n)
	ev.boxes = make([]evInbox, w.n)
	ev.heap.e = make([]heapEntry, 0, w.n)
	for i := range ev.ranks {
		r := &ev.ranks[i]
		r.id = i
		r.resume = make(chan struct{}, 1)
		w.initComm(&r.comm, i)
	}
	return ev
}

// runEvent executes f once per rank under the event scheduler.
func (w *World) runEvent(f func(c *Comm) error) error {
	ev := w.ev
	ev.f = f
	for i := range ev.ranks {
		ev.boxes[i].status = evReady
		// All clocks are zero at start, so appending in id order already
		// satisfies the heap invariant — no sifting needed.
		ev.heap.e = append(ev.heap.e, heapEntry{clock: 0, id: i})
		go ev.runRank(&ev.ranks[i])
	}
	ev.scheduleNext() // hand the token to rank 0
	<-ev.master
	ev.f = nil
	for i := range ev.ranks {
		if err := ev.ranks[i].err; err != nil {
			return err
		}
	}
	return nil
}

// runRank is a rank's goroutine body: wait for the token, run the rank
// function, and pass the token on when done.
func (ev *evWorld) runRank(r *evRank) {
	<-r.resume
	defer func() {
		if p := recover(); p != nil {
			if err, ok := p.(error); ok && errors.Is(err, errAborted) {
				r.err = err
			} else {
				r.err = fmt.Errorf("mp: rank %d panicked: %v", r.id, p)
			}
		}
		ev.finishRank(r)
	}()
	r.err = ev.f(&r.comm)
	ev.w.clocks[r.id] = r.comm.clock
}

// wake marks a blocked rank runnable. The slot holds the earliest woken
// rank; a later wake with a smaller (clock, id) displaces the incumbent
// into the heap. Each ready rank lives in exactly one place — the slot or
// the heap — so scheduleNext's minimum is exact. Clocks come from the
// evInbox records (frozen at block time), so the whole wake path stays on
// the delivery-hot array.
func (ev *evWorld) wake(id int, ib *evInbox) {
	ib.status = evReady
	clock := ib.clock
	s := ev.slot
	if s < 0 {
		ev.slot, ev.slotClock = id, clock
		return
	}
	if clock < ev.slotClock || (clock == ev.slotClock && id < s) {
		// Displace the incumbent into the heap.
		id, clock, ev.slot, ev.slotClock = s, ev.slotClock, id, clock
	}
	ev.heap.push(heapEntry{clock: clock, id: id})
}

// scheduleNext hands the execution token to the runnable rank with the
// smallest (clock, id), drawn from the slot or the heap. All
// scheduler-state mutation happens before the handoff send, so the
// resumed rank sees a consistent view; the caller must not touch
// scheduler state afterwards. Returns false when no rank is runnable.
func (ev *evWorld) scheduleNext() bool {
	for {
		if s := ev.slot; s >= 0 {
			if ev.heap.len() == 0 || !entryLess(ev.heap.top(), heapEntry{clock: ev.slotClock, id: s}) {
				// Fast path: the slot rank is the minimum — zero heap ops.
				ev.slot = -1
				ev.boxes[s].status = evRunning
				ev.ranks[s].resume <- struct{}{}
				return true
			}
		}
		if ev.heap.len() == 0 {
			return false
		}
		e := ev.heap.pop()
		if ev.boxes[e.id].status != evReady {
			continue // stale entry; re-compare the slot against the new top
		}
		ev.boxes[e.id].status = evRunning
		ev.ranks[e.id].resume <- struct{}{}
		return true
	}
}

// block parks the calling rank until another rank wakes it, freezing its
// clock into the evInbox record for the wake path. If nothing is runnable
// the world is deadlocked; every blocked rank (the caller included) is
// aborted.
func (ev *evWorld) block(r *evRank) {
	ib := &ev.boxes[r.id]
	ib.status = evBlocked
	ib.clock = r.comm.clock
	if !ev.scheduleNext() {
		ev.stalled()
	}
	<-r.resume
	if ev.aborting {
		panic(errAborted)
	}
}

// finishRank retires a rank and passes the token on; the last rank to
// finish releases the master goroutine.
func (ev *evWorld) finishRank(r *evRank) {
	ev.boxes[r.id].status = evDone
	ev.doneCount++
	if ev.doneCount == ev.w.n {
		ev.master <- struct{}{}
		return
	}
	if !ev.scheduleNext() {
		ev.stalled()
	}
}

// stalled handles the no-runnable-rank case: every live rank is parked on
// a message or collective that can never complete. All blocked ranks are
// made runnable and unwound with errAborted as each receives the token.
// The resume channels are buffered, so the caller may hand the token to
// itself and then collect it in block().
func (ev *evWorld) stalled() {
	ev.aborting = true
	for i := range ev.boxes {
		if ib := &ev.boxes[i]; ib.status == evBlocked {
			ev.wake(i, ib)
		}
	}
	ev.scheduleNext()
}

// deliver appends a message to the destination's (src, tag) stream and
// wakes the destination if it is blocked waiting for exactly that stream.
// The woken receiver usually lands in the handoff slot: when the sender
// later blocks, the token passes to it directly.
func (ev *evWorld) deliver(dst int, k uint64, bytes int, data []float64, avail float64) {
	ib := &ev.boxes[dst]
	q := &ib.streams[ib.streamIndex(k)]
	dataIdx := int32(-1)
	if data != nil {
		q.data = append(q.data, data)
		dataIdx = int32(len(q.data) - 1)
	}
	q.msgs = append(q.msgs, qmsg{avail: avail, bytes: int32(bytes), dataIdx: dataIdx})
	if ib.status == evBlocked && !ib.inColl && ib.wantKey == k {
		ev.wake(dst, ib)
	}
}

// receive returns the payload, wire size and availability time of the
// next queued message of the (src, tag) stream, blocking the rank until
// one arrives. Per-stream FIFO consumption gives the non-overtaking
// guarantee directly.
func (ev *evWorld) receive(c *Comm, src, tag int) ([]float64, int, float64) {
	ib := &ev.boxes[c.rank]
	k := qkey(src, tag)
	qi := ib.streamIndex(k)
	for {
		q := &ib.streams[qi]
		if q.head < len(q.msgs) {
			m := q.msgs[q.head]
			var data []float64
			if m.dataIdx >= 0 {
				data = q.data[m.dataIdx]
				q.data[m.dataIdx] = nil // release the payload for GC
			}
			q.head++
			if q.head == len(q.msgs) {
				q.msgs = q.msgs[:0]
				q.head = 0
				if q.data != nil {
					q.data = q.data[:0]
				}
			}
			return data, int(m.bytes), m.avail
		}
		ib.wantKey = k
		ev.block(&ev.ranks[c.rank])
	}
}

// reduce is the event backend's blocking all-reduce. The closing rank
// snapshots the result and completion clock into every waiter before
// waking it, so back-to-back generations cannot cross-talk even though
// the closer keeps running immediately.
func (ev *evWorld) reduce(c *Comm, data []float64, op int) []float64 {
	cl := &ev.coll
	if p := ev.w.opts.Probe; p != nil {
		p.record(cl.gen, c.rank, c.clock, c.idle)
	}
	entry := c.clock
	if cl.arrived == 0 {
		cl.op = op
		cl.maxTime = c.clock
		if data != nil {
			cl.acc = append(cl.acc[:0], data...)
		} else {
			cl.acc = cl.acc[:0]
		}
	} else {
		if op != cl.op {
			panic(fmt.Errorf("mp: rank %d joined collective with mismatched op", c.rank))
		}
		if data != nil {
			if len(data) != len(cl.acc) {
				panic(fmt.Errorf("mp: rank %d collective length mismatch: %d vs %d", c.rank, len(data), len(cl.acc)))
			}
			reduceAccumulate(cl.acc, data, op, c.bcastRoot)
		}
		cl.maxTime = math.Max(cl.maxTime, c.clock)
	}
	cl.arrived++
	if cl.arrived == cl.n {
		// Last participant closes the generation and prices the
		// collective from the dedicated RNG stream.
		result := append([]float64(nil), cl.acc...)
		done := cl.maxTime
		if net := ev.w.opts.Net; net != nil {
			done += net.ReduceCost(cl.n, 8*len(cl.acc), cl.rng)
		}
		cl.arrived = 0
		cl.gen++
		for _, id := range cl.waiters {
			wr := &ev.ranks[id]
			wr.collRes = result
			wr.collDone = done
			ev.wake(id, &ev.boxes[id])
		}
		cl.waiters = cl.waiters[:0]
		if ev.w.opts.Probe != nil {
			c.idle += done - entry
		}
		c.clock = done
		return result
	}
	r := &ev.ranks[c.rank]
	ev.boxes[c.rank].inColl = true
	cl.waiters = append(cl.waiters, c.rank)
	ev.block(r)
	ev.boxes[c.rank].inColl = false
	res := r.collRes
	r.collRes = nil
	if ev.w.opts.Probe != nil {
		c.idle += r.collDone - entry
	}
	c.clock = r.collDone
	return res
}

// --- virtual-clock min-heap of runnable ranks ---

type heapEntry struct {
	clock float64
	id    int
}

// clockHeap is a binary min-heap ordered by (clock, id). Each rank has at
// most one live entry; stale entries are skipped by the status check in
// scheduleNext.
type clockHeap struct {
	e []heapEntry
}

func (h *clockHeap) len() int { return len(h.e) }

// top peeks the minimum entry; callers must check len() > 0 first.
func (h *clockHeap) top() heapEntry { return h.e[0] }

// entryLess orders heap entries by (clock, id). Like qkey it must stay a
// branch-only leaf so the per-handoff comparisons inline.
func entryLess(a, b heapEntry) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.id < b.id)
}

func (h *clockHeap) push(x heapEntry) {
	h.e = append(h.e, x)
	i := len(h.e) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(h.e[i], h.e[parent]) {
			break
		}
		h.e[i], h.e[parent] = h.e[parent], h.e[i]
		i = parent
	}
}

func (h *clockHeap) pop() heapEntry {
	top := h.e[0]
	last := len(h.e) - 1
	h.e[0] = h.e[last]
	h.e = h.e[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.e) && entryLess(h.e[l], h.e[small]) {
			small = l
		}
		if r < len(h.e) && entryLess(h.e[r], h.e[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.e[i], h.e[small] = h.e[small], h.e[i]
		i = small
	}
	return top
}
