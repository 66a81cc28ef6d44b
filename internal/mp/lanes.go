package mp

// Clock lanes: several runs of one trace replayed in one pass of the
// perturbed loop.
//
// A matched set's runs (a baseline and its perturbed variants) execute the
// same ops per rank, take the same messages from the same streams in the
// same order, pay the same prices and read the same noise draws; only their
// clock values differ. A lane pass therefore walks the fused program once
// and carries one clock per run ("lane"): the script cursors, the rank
// status, the noise cursor, every noise draw, each stream's FIFO position
// and the schedule are shared, while each lane keeps its own clock, idle
// total, checkpoint, collective completion, message availabilities,
// injected events and recorders.
//
// The scheduler keys on lane 0's clock (rrank.clock), so lane 0 runs the
// exact event schedule of its solo replay. Lanes ≥ 1 are exact too, because
// no clock depends on the schedule (DESIGN.md "Parallel fused replay"):
// every stream has one sender and is read in FIFO order, collectives
// combine arrivals with max, noise draws follow per-rank program order, and
// delays and fail-stops are addressed by op index and change time only. The
// one exception is a mark slot with two writer ranks, whose final value is
// the later writer in schedule order; a lane pass therefore exposes lane
// 0's marks only.

import (
	"errors"
	"slices"
)

// Lane is one run of a lane pass: its injected events and recorders. The
// zero Lane is an unperturbed run.
type Lane struct {
	Delays  []Delay
	Fails   []FailStop
	Probe   *RunProbe // reset by the pass; nil records nothing
	FailLog *FailLog  // reset by the pass; nil records nothing
}

// ReplayLanes replays t once per lane in a single pass, under the options
// and parameter tables every lane shares. opts must leave Delays, Fails,
// Probe and FailLog empty: they are per lane. Every lane's clocks, probe
// rows and fail log are bit-identical to a solo Replay of that run; marks
// are lane 0's. Read lane results with LaneClock and LaneMakespan (lane 0
// also through Clock and Makespan). Replay is the one-lane case.
func (r *Replayer) ReplayLanes(t *Trace, opts Options, p ReplayParams, lanes []Lane) error {
	if len(lanes) == 0 {
		return errors.New("mp: a lane replay needs at least one lane")
	}
	if len(opts.Delays) > 0 || len(opts.Fails) > 0 || opts.Probe != nil || opts.FailLog != nil {
		return errors.New("mp: a lane replay takes delays, fail-stops and recorders per lane, not in Options")
	}
	return r.replay(t, opts, p, lanes)
}

// LaneClock returns a rank's final clock in one lane of the last replay.
func (r *Replayer) LaneClock(lane, rank int) float64 {
	if lane == 0 {
		return r.rk[rank].clock
	}
	return r.xs[rank*r.nx+lane-1].clock
}

// LaneMakespan returns the maximum final clock of one lane of the last
// replay.
func (r *Replayer) LaneMakespan(lane int) float64 {
	m := 0.0
	for i := range r.rk {
		if c := r.LaneClock(lane, i); c > m {
			m = c
		}
	}
	return m
}

// laneq is one lane's pending injected events at one rank, plus the
// lane's checkpoint clock there (the fail-stop rewind target).
type laneq struct {
	dq       []Delay      // pending delays, by op index
	fq       []failCursor // pending fail-stops, by op index
	ev       int          // op index of the next pending delay or fail-stop; noEvent if none
	lastCkpt float64
}

// nextEvent returns the op index of the lane's next pending delay or
// fail-stop.
func (q *laneq) nextEvent() int {
	ev := noEvent
	if len(q.dq) > 0 {
		ev = q.dq[0].Op
	}
	if len(q.fq) > 0 && int(q.fq[0].op) < ev {
		ev = int(q.fq[0].op)
	}
	return ev
}

// validLanes rejects a pass any of whose lanes carries malformed events.
func validLanes(n int, lanes []Lane) error {
	for i := range lanes {
		if err := validDelays(n, lanes[i].Delays); err != nil {
			return err
		}
		if err := validFailStops(n, lanes[i].Fails); err != nil {
			return err
		}
	}
	return nil
}

// perturbing reports whether a pass over these lanes needs the perturbed
// loop: more than one lane, or a lane with events or a probe. (A fail log
// without fail-stops records nothing.)
func perturbing(lanes []Lane) bool {
	l := &lanes[0]
	return len(lanes) > 1 || len(l.Delays) > 0 || len(l.Fails) > 0 || l.Probe != nil
}

// prepareLanes sets up the perturbed loop's per-rank and per-lane state
// for a pass over r.lanes on a trace of n ranks: empty extra-lane clock
// tables and streams, event queues, and reset recorders.
func (r *Replayer) prepareLanes(n int) {
	nl := len(r.lanes)
	nx := nl - 1
	r.nx = nx
	if cap(r.xs) < n*nx {
		r.xs = make([]xlane, n*nx)
	}
	r.xs = r.xs[:n*nx]
	clear(r.xs)
	r.xmax = zeroTo(r.xmax[:0], nx)
	if nx > 0 {
		// Lane stores keep their capacity across traces: a pooled
		// replayer's next pass reuses it whatever shape it replays.
		if ns := len(r.streams); len(r.xav) < ns {
			r.xav = slices.Grow(r.xav, ns-len(r.xav))[:ns]
		}
		for i := range r.xav {
			r.xav[i] = r.xav[i][:0]
		}
	}
	if cap(r.pr) < n {
		r.pr = make([]prank, n)
	}
	r.pr = r.pr[:n]
	if cap(r.lq) < n*nl {
		r.lq = make([]laneq, n*nl)
	}
	r.lq = r.lq[:n*nl]
	for k := range r.lanes {
		l := &r.lanes[k]
		dqs, fqs := rankDelays(n, l.Delays), rankFails(n, l.Fails)
		for i := 0; i < n; i++ {
			var q laneq
			if dqs != nil {
				q.dq = dqs[i]
			}
			if fqs != nil {
				q.fq = fqs[i]
			}
			q.ev = q.nextEvent()
			r.lq[i*nl+k] = q
		}
		if l.FailLog != nil {
			l.FailLog.reset(len(l.Fails))
		}
		if l.Probe != nil {
			l.Probe.reset(n, r.t.gens)
		}
	}
	for i := range r.pr {
		ps := prank{ev: noEvent}
		for _, q := range r.lq[i*nl : (i+1)*nl] {
			ps.ev = min(ps.ev, q.ev)
		}
		r.pr[i] = ps
	}
}

// xlane is one extra lane's clock state at one rank.
type xlane struct {
	clock float64
	idle  float64 // accumulated idle seconds (RunProbe)
	done  float64 // resolved collective completion clock
}

// xrow returns rank id's extra lanes.
func (r *Replayer) xrow(id int) []xlane {
	nx := r.nx
	return r.xs[id*nx : (id+1)*nx]
}

// inject applies, on every lane whose next event is the rank's next event
// index ps.ev, the delays and then the fail-stops pending there, in
// Comm.injectFaults' order (a delay's damage is part of the rework a
// failure at the same op re-executes). clock is lane 0's clock; it returns
// lane 0's, advances the extra lanes' in place and advances ps.ev.
func (r *Replayer) inject(id int, ps *prank, clock float64) float64 {
	at := ps.ev
	nl := len(r.lanes)
	q := r.lq[id*nl : (id+1)*nl]
	x := r.xrow(id)
	ev := noEvent
	for k := range q {
		if q[k].ev == at {
			if k == 0 {
				clock = r.injectLane(id, k, &q[k], at, clock)
			} else {
				x[k-1].clock = r.injectLane(id, k, &q[k], at, x[k-1].clock)
			}
		}
		ev = min(ev, q[k].ev)
	}
	ps.ev = ev
	return clock
}

// injectLane applies one lane's events at op index at to its clock.
func (r *Replayer) injectLane(id, lane int, q *laneq, at int, clock float64) float64 {
	for len(q.dq) > 0 && q.dq[0].Op == at {
		clock += q.dq[0].Seconds
		q.dq = q.dq[1:]
	}
	for len(q.fq) > 0 && int(q.fq[0].op) == at {
		f := q.fq[0]
		q.fq = q.fq[1:]
		rework := clock - q.lastCkpt
		if l := r.lanes[lane].FailLog; l != nil {
			l.events[f.slot] = FailEvent{
				Rank: id, Op: int(f.op), At: clock,
				LastCkpt: q.lastCkpt, Rework: rework, Restart: f.restart,
				Applied: true,
			}
		}
		clock += rework + f.restart
	}
	q.ev = q.nextEvent()
	return clock
}

// checkpoint pins every lane's rewind target at rank id to its clock,
// lane 0's being clock.
//
//go:noinline
func (r *Replayer) checkpoint(id int, clock float64) {
	nl := len(r.lanes)
	q := r.lq[id*nl : (id+1)*nl]
	q[0].lastCkpt = clock
	for k, l := range r.xrow(id) {
		q[k+1].lastCkpt = l.clock
	}
}

// xrecord writes the collective entry state of rank id's extra lanes x
// into their probes.
func (r *Replayer) xrecord(id int, x []xlane) {
	for k := range x {
		if p := r.lanes[k+1].Probe; p != nil {
			p.record(r.collGen, id, x[k].clock, x[k].idle)
		}
	}
}

// laneReduce enters rank id into the open collective generation with lane
// 0 at clock and its extra lanes x at theirs. Until the last participant
// arrives it queues id as a waiter and returns closed == false. The last
// arriver closes the generation: the reduction is priced once and added to
// each lane's latest arrival, every waiter's extra lanes get their
// completion clocks (xlane.done), and the caller gets lane 0's, with the
// extra lanes' left in r.xmax.
func (r *Replayer) laneReduce(id int, clock float64, x []xlane, words int32) (done float64, closed bool) {
	w := &r.w
	first := w.collArrived == 0
	if first || clock > w.collMax {
		w.collMax = clock
	}
	if len(x) > 0 {
		r.xarrive(x, first)
	}
	w.collArrived++
	if w.collArrived < r.t.n {
		w.collWords = words
		w.collWaiters = append(w.collWaiters, int32(id))
		return 0, false
	}
	w.collArrived = 0
	cost := r.reduceCost(words)
	if len(x) > 0 {
		r.xcloseColl(cost)
	}
	return w.collMax + cost, true
}

// xarrive folds a rank's extra lanes x into the open collective's latest
// arrivals; first marks the generation's first arrival.
func (r *Replayer) xarrive(x []xlane, first bool) {
	for k := range x {
		if c := x[k].clock; first || c > r.xmax[k] {
			r.xmax[k] = c
		}
	}
}

// xcloseColl turns the closing generation's extra-lane arrivals into
// completion clocks, adding the reduction's cost, and hands them to every
// waiter.
func (r *Replayer) xcloseColl(cost float64) {
	for k := range r.xmax {
		r.xmax[k] += cost
	}
	for _, wid := range r.w.collWaiters {
		for k, d := range r.xmax {
			r.xs[int(wid)*r.nx+k].done = d
		}
	}
}

// xresume moves a rank's extra lanes x to the completion clocks of the
// collective they parked in, counting the wait as idle.
//
//go:noinline
func xresume(x []xlane) {
	for k := range x {
		x[k].idle += x[k].done - x[k].clock
		x[k].clock = x[k].done
	}
}

// xclose moves the closing rank's extra lanes x to the completion clocks
// laneReduce left in r.xmax, counting the wait as idle.
//
//go:noinline
func (r *Replayer) xclose(x []xlane) {
	for k, d := range r.xmax {
		x[k].idle += d - x[k].clock
		x[k].clock = d
	}
}

// xcharge charges s to a rank's extra lanes x (none on a one-lane pass).
func xcharge(x []xlane, s float64) {
	for k := range x {
		x[k].clock += s
	}
}

// xdeliver appends the availabilities of the message a rank's extra lanes
// x send to dst's stream slot, each lane's clock plus the transit avail,
// and charges each lane the send overhead busy.
//
//go:noinline
func (r *Replayer) xdeliver(x []xlane, dst int, slot uint8, avail, busy float64) {
	i := dst*r.nslots + int(slot)
	q := r.xav[i]
	for k := range x {
		c := x[k].clock
		q = append(q, c+avail)
		x[k].clock = c + busy
	}
	r.xav[i] = q
}

// xrecv completes the extra lanes' (x) receive of the message rank id
// just took from its stream slot: each lane waits for its own
// availability, counting the wait as idle, then pays the receive overhead
// cost. The message sat at the stream's head before the take, or was its
// last when the take emptied the stream; then the lane store empties too.
func (r *Replayer) xrecv(x []xlane, id int, slot int32, cost float64) {
	si := id*r.nslots + int(slot)
	nx := len(x)
	q := r.xav[si]
	off, emptied := len(q)-nx, true
	if head := int(r.streams[si].head); head > 0 {
		off, emptied = (head-1)*nx, false
	}
	av := q[off : off+nx]
	for k, a := range av {
		c := x[k].clock
		if a > c {
			x[k].idle += a - c
			c = a
		}
		x[k].clock = c + cost
	}
	if emptied {
		r.xav[si] = q[:0]
	}
}
