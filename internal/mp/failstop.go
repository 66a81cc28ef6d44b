package mp

// Fail-stop failures with checkpoint/restart recovery.
//
// A FailStop pins a permanent rank loss to one recordable operation of one
// rank, using the same op indexing as Delay: the per-rank operation counter
// counts exactly the operations a trace records, so one index means the
// same program instant on the event backend and in a trace replay. Recovery follows the message-logging model: the failed
// rank restarts from its last checkpoint (Comm.Checkpoint) and re-executes
// the lost segment locally — peers are not rolled back and no messages are
// re-communicated, so a failure is a pure local clock charge of
//
//	rework  = clock at failure − clock at last checkpoint
//	restart = FailStop.Restart (rejoin cost: relaunch, checkpoint read)
//
// applied immediately before the failed op executes. Because the charge is
// plain clock arithmetic, the bit-identical-clock guarantee between the
// event backend and trace replay extends to fail-stop runs for free.
// Without a checkpoint the rank rewinds to time zero (restart from program
// start). Several
// failures may target the same (rank, op) slot; the segment is re-executed
// once per failure. Delays scheduled at the same op are charged first, so
// injected-delay damage is part of the rework a co-located failure repeats.

import (
	"fmt"
	"math"
	"sort"
)

// FailStop is one injected fail-stop failure: Rank dies immediately before
// its Op-th recordable operation, rewinds to its last checkpoint, and
// rejoins after re-executing the lost work plus Restart seconds.
type FailStop struct {
	Rank    int
	Op      int
	Restart float64
}

// validFailStops rejects out-of-range or non-finite failure specs up
// front, so a malformed scenario fails loudly instead of silently never
// firing.
func validFailStops(n int, fails []FailStop) error {
	for _, f := range fails {
		if f.Rank < 0 || f.Rank >= n {
			return fmt.Errorf("mp: fail-stop rank %d out of range [0,%d)", f.Rank, n)
		}
		if f.Op < 0 {
			return fmt.Errorf("mp: fail-stop op %d negative (rank %d)", f.Op, f.Rank)
		}
		if f.Restart < 0 || math.IsNaN(f.Restart) || math.IsInf(f.Restart, 0) {
			return fmt.Errorf("mp: fail-stop restart %v invalid (rank %d op %d)", f.Restart, f.Rank, f.Op)
		}
	}
	return nil
}

// failCursor is one pending failure in a rank's consumable queue; slot is
// the failure's index in the caller's spec, which doubles as its FailLog
// event slot (single writer per slot).
type failCursor struct {
	op      int32
	slot    int32
	restart float64
}

// rankFails partitions failures into per-rank queues ordered by op index.
// The returned slices are private copies consumed as cursors, like
// rankDelays.
func rankFails(n int, fails []FailStop) [][]failCursor {
	if len(fails) == 0 {
		return nil
	}
	order := make([]int, len(fails))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := fails[order[i]], fails[order[j]]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Op < b.Op
	})
	sorted := make([]failCursor, len(fails))
	ranks := make([]int, len(fails))
	for i, oi := range order {
		f := fails[oi]
		sorted[i] = failCursor{op: int32(f.Op), slot: int32(oi), restart: f.Restart}
		ranks[i] = f.Rank
	}
	per := make([][]failCursor, n)
	lo := 0
	for hi := 1; hi <= len(sorted); hi++ {
		if hi == len(sorted) || ranks[hi] != ranks[lo] {
			per[ranks[lo]] = sorted[lo:hi:hi]
			lo = hi
		}
	}
	return per
}

// FailEvent is the accounting record of one applied failure: where it
// struck, what it rewound to, and what it cost.
type FailEvent struct {
	Rank     int
	Op       int
	At       float64 // rank's clock when the failure struck (after co-located delays)
	LastCkpt float64 // clock of the checkpoint rewound to (0 if none yet)
	Rework   float64 // re-executed seconds: At - LastCkpt
	Restart  float64 // rejoin cost charged on top of the rework
	Applied  bool    // false if the rank finished before reaching Op
}

// FailLog records every applied failure of a run, one preallocated slot
// per FailStop spec in the order the caller gave them. Run/Replay reset
// it; slots are single-writer, so reads are safe once the run returns. A
// spec whose op index lies beyond the rank's program leaves its slot with
// Applied == false.
type FailLog struct {
	events []FailEvent
}

func (l *FailLog) reset(n int) {
	if cap(l.events) < n {
		l.events = make([]FailEvent, n)
		return
	}
	l.events = l.events[:n]
	for i := range l.events {
		l.events[i] = FailEvent{}
	}
}

// Events returns the recorded failure events, aliasing the log's storage.
func (l *FailLog) Events() []FailEvent { return l.events }

// Applied counts the failures that actually fired.
func (l *FailLog) Applied() int {
	n := 0
	for i := range l.events {
		if l.events[i].Applied {
			n++
		}
	}
	return n
}

// ReworkSeconds sums the re-executed work across applied failures.
func (l *FailLog) ReworkSeconds() float64 {
	s := 0.0
	for i := range l.events {
		if l.events[i].Applied {
			s += l.events[i].Rework
		}
	}
	return s
}

// RestartSeconds sums the rejoin costs across applied failures.
func (l *FailLog) RestartSeconds() float64 {
	s := 0.0
	for i := range l.events {
		if l.events[i].Applied {
			s += l.events[i].Restart
		}
	}
	return s
}
