package mp

// Parallel fused replay: a large deterministic, unperturbed replay runs on
// more than one worker, each a goroutine that schedules a contiguous range
// of ranks with its own clock heap and handoff slot and runs the one fused
// loop (runRankFused) over them.
//
// Why the clocks cannot change. On the fused path every message stream has
// exactly one sender and is read in FIFO order, so each receive consumes
// the same message whatever order ranks run in; collectives combine arrival
// clocks with max, which is exact and order-free; nothing draws a random
// number; and admission requires every mark slot to have one writer rank.
// Each rank's clocks are therefore a function of the trace and the prices
// alone, and the serial replay's min-(clock, id) order is only one of many
// schedules that produce them. A parallel worker picks its ranks by their
// distance to the edge of its range that borders another worker
// (edgeKey), so the ranks that feed the other worker run first.
//
// Messages. A send to a rank of another worker is appended to the sending
// worker's out batch. The batch is flushed, under parState.mu, when the
// sending rank parks or finishes; the owning worker applies its inbox in
// flush order when it runs out of runnable ranks. One sender per stream
// keeps every stream in send order.
//
// Collectives. A worker's ranks never see every participant arrive, so
// they all park in the collective; a worker whose ranks have all arrived
// stops at a barrier. The last worker to stop closes the generation while
// the others wait: it folds the workers' arrival maxima, prices the
// reduction and runs the cycle engine (cycBoundary: binade validation,
// jumps, repositioning and the cycle counters). Workers
// flush before they stop, so streamsIdle, which also counts unapplied
// inboxes, sees every message in flight, exactly as at a serial close.
//
// Termination. A stopped worker waits for work (wWait), the barrier (wColl)
// or the end (wDone). The worker whose stop leaves no worker running, and
// no waiting worker with unapplied messages, decides: all at the barrier
// closes the collective, all done ends the replay, anything else is a
// stall. Waits poll a version counter and yield the P every spinYield
// polls, so a waiting worker cannot starve the one it waits for, even
// under GOMAXPROCS(1).
//
// Admission (Replayer.admit, called from prepare). A replay runs on
// parWorkers workers only when it takes the fused path, no mark slot has
// two writer ranks, the trace dispatches more than parMinFusedOps fused ops
// and a process-wide count of the Ps that replays occupy leaves one idle
// for the helper. Everything else, every perturbed replay included, runs
// serially on the replayer's one worker.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Reasons a fused replay ran on one worker (ReplayStats.Serial).
const (
	SerialSmallTrace = "small_trace" // too few fused ops to pay for a second worker
	SerialNoIdleCPU  = "no_idle_cpu" // no P left idle by the replays in flight
	SerialSharedMark = "shared_mark" // two ranks write one mark slot
)

// parMinFusedOps is the fused-op total (Trace.FusedOps) a trace must exceed
// to replay on two workers. The largest trace a P <= 256 template shape
// compiles at 20 iterations (16x16, two angle blocks, five k blocks)
// dispatches 443,429 fused ops, and the smallest predict_replay shape (a
// 12-iteration 32x32 trace) 1,066,003; the bound sits between them, so the
// small shapes that many clients predict at once keep to one P each. On a
// 2-vCPU AMD EPYC VM a second worker took a 12-iteration 16x16 replay
// (266,003 fused ops) from 1.71 to 1.55 ms and a 32x32 one from 8.3 to 4.6
// ms.
const parMinFusedOps = 1 << 19

// parWorkers is the worker count of an admitted parallel replay.
const parWorkers = 2

// replayPs counts the Ps that replays occupy process-wide: one for every
// Replay call in flight and one for every helper worker.
var replayPs atomic.Int32

// testWorkers, when positive, sends every fused replay without a shared
// mark slot to that many workers (at most one per rank), whatever its size
// and the idle Ps. Tests set it; nothing else does.
var testWorkers int

// admit decides how many workers the prepared replay runs on, records why
// a fused replay stays serial, and reserves the helpers' Ps.
func (r *Replayer) admit(t *Trace) int {
	r.serial = ""
	if !r.fusedPath {
		return 1
	}
	if t.sharedMark {
		r.serial = SerialSharedMark
		return 1
	}
	k := min(testWorkers, t.n)
	if testWorkers == 0 {
		if t.fopsTotal <= parMinFusedOps {
			r.serial = SerialSmallTrace
			return 1
		}
		k = parWorkers
	}
	if k < 2 {
		return 1
	}
	r.extraP = int32(k - 1)
	if replayPs.Add(r.extraP) > int32(runtime.GOMAXPROCS(0)) && testWorkers == 0 {
		replayPs.Add(-r.extraP)
		r.extraP = 0
		r.serial = SerialNoIdleCPU
		return 1
	}
	return k
}

// startWorkers seeds the replay's k workers over contiguous rank ranges.
func (r *Replayer) startWorkers(k int) {
	r.ws = append(r.ws[:0], &r.w)
	n := r.t.n
	if k < 2 {
		r.w.reset(r, 0, 0, n, false)
		return
	}
	if r.par == nil {
		r.par = &parState{}
	}
	p := r.par
	for len(p.helpers) < k-1 {
		w := &rworker{}
		w.loop = func() {
			defer p.wg.Done()
			defer func() {
				if v := recover(); v != nil {
					p.abort(v)
				}
			}()
			w.work()
		}
		p.helpers = append(p.helpers, w)
	}
	r.ws = append(r.ws, p.helpers[:k-1]...)
	for i, w := range r.ws {
		lo := i * n / k
		w.reset(r, i, lo, (i+1)*n/k-lo, true)
	}
	p.reset(k)
}

// edgeKey is rank id's scheduling key on a parallel worker: its distance
// to the nearer edge of the worker's range that borders another worker.
func (w *rworker) edgeKey(id int) float64 {
	d := w.n
	if w.lo > 0 {
		d = id - w.lo
	}
	if w.lo+w.n < w.r.t.n {
		d = min(d, w.lo+w.n-1-id)
	}
	return float64(d)
}

// xmsg is a message on its way to another worker's rank.
type xmsg struct {
	avail, recv float64 // as in rmsg
	dst         int32
	slot        uint8
}

// Worker states (parState.state).
const (
	wRun  uint8 = iota // running ranks, or about to
	wWait              // no runnable rank: waits for messages
	wColl              // every owned rank is inside the open collective
	wDone              // every owned rank has finished
)

// parState is what the workers of a parallel replay share. Everything but
// ver is guarded by mu.
type parState struct {
	mu       sync.Mutex
	ver      atomic.Uint32 // bumped by every change a stopped worker waits for
	box      [][]xmsg      // box[i]: messages flushed to worker i, in flush order
	state    []uint8       // per worker: wRun, wWait, wColl or wDone
	gen      int           // collective generations closed at the barrier
	done     float64       // the last closed generation's completion clock
	over     bool          // every rank finished, the replay stalled, cycErr is set or a worker panicked
	stalled  bool
	panicked any // a helper's panic value, raised again by runParallel

	helpers []*rworker // workers 1.., reused across replays
	wg      sync.WaitGroup
}

func (p *parState) reset(k int) {
	for len(p.box) < k {
		p.box = append(p.box, nil)
	}
	p.box = p.box[:k]
	for i := range p.box {
		p.box[i] = p.box[i][:0]
	}
	p.state = append(p.state[:0], make([]uint8, k)...) // every worker wRun
	p.gen, p.done = 0, 0
	p.over, p.stalled, p.panicked = false, false, nil
}

// abort ends the replay for every worker after a panic; a stopped worker
// returns, a running one returns at its next stop.
func (p *parState) abort(v any) {
	p.mu.Lock()
	if p.panicked == nil {
		p.panicked = v
	}
	p.over = true
	p.ver.Add(1)
	p.mu.Unlock()
}

// boxesEmpty reports whether every flushed message has been applied. The
// caller holds mu or is the only worker running.
func (p *parState) boxesEmpty() bool {
	for _, b := range p.box {
		if len(b) > 0 {
			return false
		}
	}
	return true
}

// runParallel runs the prepared replay on its workers: helpers on their
// own goroutines, worker 0 on the caller's. A panic on any worker (a bug or
// a corrupted trace) ends the replay for every worker and is raised again
// on the caller's goroutine once the helpers have exited, as a serial
// replay would raise it.
func (r *Replayer) runParallel() error {
	p := r.par
	p.wg.Add(len(r.ws) - 1)
	for _, w := range r.ws[1:] {
		go w.loop()
	}
	defer func() {
		if v := recover(); v != nil {
			p.abort(v)
			p.wg.Wait()
			panic(v)
		}
	}()
	r.w.work()
	p.wg.Wait()
	switch {
	case p.panicked != nil:
		panic(p.panicked)
	case p.stalled:
		return errStalled
	}
	return r.cycErr
}

// work runs the worker's ranks until the replay is over, flushing the
// messages a rank sent to other workers when it parks or finishes.
func (w *rworker) work() {
	for {
		id := w.next()
		if id < 0 {
			if !w.stop() {
				return
			}
			continue
		}
		w.runRankFused(id)
		if len(w.out) > 0 {
			w.flush()
		}
	}
}

// flush posts the worker's out batch to the owners' inboxes.
func (w *rworker) flush() {
	p, ws := w.r.par, w.r.ws
	p.mu.Lock()
	for _, m := range w.out {
		j := 0
		for j+1 < len(ws) && int(m.dst) >= ws[j+1].lo {
			j++
		}
		p.box[j] = append(p.box[j], m)
	}
	p.ver.Add(1)
	p.mu.Unlock()
	w.out = w.out[:0]
}

// stop is called when none of the worker's ranks can run. It publishes the
// worker's state, decides the replay's next step if no worker is left
// running, and waits until the worker has work again: messages in its
// inbox (applied before it returns) or a closed collective (whose waiters
// it wakes). It returns false when the replay is over.
func (w *rworker) stop() bool {
	p := w.r.par
	st := wWait
	switch {
	case w.doneCount == w.n:
		st = wDone
	case w.collArrived == w.n:
		st = wColl
	}
	p.mu.Lock()
	gen := p.gen
	p.state[w.idx] = st
	if p.settled() {
		p.settle(w.r)
	}
	for {
		if p.over {
			p.mu.Unlock()
			return false
		}
		released := p.gen != gen
		if released || (st == wWait && len(p.box[w.idx]) > 0) {
			p.state[w.idx] = wRun
			w.in, p.box[w.idx] = p.box[w.idx], w.in[:0]
			done := p.done
			p.mu.Unlock()
			for _, m := range w.in {
				w.deliver(int(m.dst), m.slot, m.avail, m.recv)
			}
			w.in = w.in[:0]
			if released {
				w.release(done)
			}
			return true
		}
		v := p.ver.Load()
		p.mu.Unlock()
		awaitChange(&p.ver, v)
		p.mu.Lock()
	}
}

// settled reports whether no worker can make progress on its own: none is
// running and none that waits for messages has any.
func (p *parState) settled() bool {
	for i, s := range p.state {
		if s == wRun || (s == wWait && len(p.box[i]) > 0) {
			return false
		}
	}
	return true
}

// settle decides a settled replay's next step: close the collective every
// worker waits at, end the replay when every rank has finished, or stall.
// The caller holds mu. The close runs without it, since no other worker
// runs until it is published, so a panic inside the cycle engine leaves
// the mutex free for abort.
func (p *parState) settle(r *Replayer) {
	coll, done := true, true
	for _, s := range p.state {
		coll = coll && s == wColl
		done = done && s == wDone
	}
	switch {
	case coll:
		p.mu.Unlock()
		closed := r.closeColl()
		p.mu.Lock()
		p.done = closed
		p.gen++
		clear(p.state) // every worker wRun: each wakes its waiters
		p.over = r.cycErr != nil
	case done:
		p.over = true
	default:
		p.over, p.stalled = true, true
	}
	p.ver.Add(1)
}

// closeColl closes the collective generation every rank has entered: it
// folds the workers' latest arrivals with max, prices the reduction and
// runs the cycle engine, and returns the completion clock. The workers'
// waiters are left for each worker to wake; after a reposition there are
// none.
func (r *Replayer) closeColl() float64 {
	clock, words := r.ws[0].collMax, r.ws[0].collWords
	for _, w := range r.ws {
		if w.collMax > clock {
			clock = w.collMax
		}
		w.collArrived = 0
	}
	done := clock + r.reduceCost(words)
	if r.cycOn {
		r.cycBoundary(done)
	}
	return done
}

// spinYield is how many polls a waiting worker makes between yields of its
// P.
const spinYield = 64

// awaitChange polls v until it differs from old.
func awaitChange(v *atomic.Uint32, old uint32) {
	for i := 1; v.Load() == old; i++ {
		if i%spinYield == 0 {
			runtime.Gosched()
		}
	}
}
