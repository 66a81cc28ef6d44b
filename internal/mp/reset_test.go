package mp

import (
	"strings"
	"testing"
)

// TestWorldResetReplaysBitIdentical is the pooling correctness harness:
// a Reset world must replay the exact run — same seeds, same jitter
// streams, same clocks — on both backends, and a reused trace world must
// still agree bit for bit with a fresh event world.
func TestWorldResetReplaysBitIdentical(t *testing.T) {
	for _, sched := range schedulers {
		w, err := NewWorld(12, Options{
			Net:       alphaBeta{alpha: 2e-5, beta: 1e-8},
			Noise:     jitterNoise{0.05},
			Seed:      4242,
			Scheduler: sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		prog := wavefrontProgram(4, 3, 5)
		if err := w.Run(prog); err != nil {
			t.Fatal(err)
		}
		ref := w.SortedClocks()
		refSpan := w.Makespan()
		for reuse := 0; reuse < 3; reuse++ {
			w.Reset()
			if err := w.Run(prog); err != nil {
				t.Fatalf("%s reuse %d: %v", sched, reuse, err)
			}
			if w.Makespan() != refSpan {
				t.Fatalf("%s reuse %d: makespan %v != %v", sched, reuse, w.Makespan(), refSpan)
			}
			got := w.SortedClocks()
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s reuse %d: clock[%d] = %v, want %v", sched, reuse, i, got[i], ref[i])
				}
			}
		}
	}

	// Cross-backend: a reused trace world versus a fresh event world.
	fresh := runWavefront(t, SchedulerEvent, 4242)
	tw, err := NewWorld(12, Options{
		Net:       alphaBeta{alpha: 2e-5, beta: 1e-8},
		Noise:     jitterNoise{0.05},
		Seed:      4242,
		Scheduler: SchedulerTrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		if rep > 0 {
			tw.Reset()
		}
		if err := tw.Run(wavefrontProgram(4, 3, 5)); err != nil {
			t.Fatal(err)
		}
	}
	if fresh.Makespan() != tw.Makespan() {
		t.Fatalf("cross-backend after reuse: %v != %v", tw.Makespan(), fresh.Makespan())
	}
}

// TestWorldRunTwiceWithoutResetErrors pins the reuse contract: Run on a
// dirty world must fail loudly instead of silently continuing clocks.
func TestWorldRunTwiceWithoutResetErrors(t *testing.T) {
	for _, sched := range schedulers {
		w, err := NewWorld(2, Options{Scheduler: sched})
		if err != nil {
			t.Fatal(err)
		}
		noop := func(c *Comm) error { return nil }
		if err := w.Run(noop); err != nil {
			t.Fatal(err)
		}
		err = w.Run(noop)
		if err == nil || !strings.Contains(err.Error(), "Reset") {
			t.Fatalf("%s: second Run = %v, want already-run error", sched, err)
		}
		w.Reset()
		if err := w.Run(noop); err != nil {
			t.Fatalf("%s: Run after Reset = %v", sched, err)
		}
	}
}

// TestEventAbortInsideCollective drives the event scheduler into a
// deadlock where some ranks are parked *inside* a collective: the abort
// must unwind them (not just plain receives) and the world must be
// reusable after Reset.
func TestEventAbortInsideCollective(t *testing.T) {
	w, err := NewWorld(3, Options{Scheduler: SchedulerEvent})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() < 2 {
			c.AllreduceSum(1) // waits forever: rank 2 never joins
		} else {
			c.Recv(0, 99) // never sent
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected deadlock abort with ranks inside a collective")
	}

	// A rank exiting without joining the collective is the same stall.
	w.Reset()
	err = w.Run(func(c *Comm) error {
		if c.Rank() < 2 {
			c.Barrier()
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected abort when a rank exits past a collective")
	}

	// The aborted world must recover fully on Reset.
	w.Reset()
	err = w.Run(func(c *Comm) error {
		if got := c.AllreduceSum(float64(c.Rank())); got != 3 {
			t.Errorf("sum after recovery = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("world did not recover from aborts: %v", err)
	}
}

// ringProgram is the steady-state allocation workload: pure point-to-point
// traffic (collectives allocate their fresh result slices by contract).
func ringProgram(msgs int) func(c *Comm) error {
	return func(c *Comm) error {
		n := c.Size()
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		for i := 0; i < msgs; i++ {
			c.ChargeExact(1e-6)
			c.SendN(next, 0, 1024, nil)
			c.RecvN(prev, 0)
		}
		return nil
	}
}

// TestEventSteadyStateZeroAllocs is the ISSUE's allocation acceptance: a
// reused event world must run with zero heap allocations per message
// operation (here: zero for the entire Reset+Run cycle).
func TestEventSteadyStateZeroAllocs(t *testing.T) {
	w, err := NewWorld(8, Options{
		Net:       alphaBeta{alpha: 1e-6, beta: 1e-9},
		Seed:      7,
		Scheduler: SchedulerEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	prog := ringProgram(50)
	// Warm the world: first runs materialise RNGs, stream tables and the
	// runtime's goroutine free lists.
	for i := 0; i < 3; i++ {
		if i > 0 {
			w.Reset()
		}
		if err := w.Run(prog); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		w.Reset()
		if err := w.Run(prog); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Reset+Run allocations = %v per cycle (%d message ops), want 0", avg, 8*50*2)
	}
}

// BenchmarkWorldReuseRun measures the pooled Reset+Run cycle; with
// ReportAllocs it documents the zero-allocation steady state (each op is
// a full 8-rank, 800-message-op virtual-time run).
func BenchmarkWorldReuseRun(b *testing.B) {
	w, err := NewWorld(8, Options{
		Net:       alphaBeta{alpha: 1e-6, beta: 1e-9},
		Seed:      7,
		Scheduler: SchedulerEvent,
	})
	if err != nil {
		b.Fatal(err)
	}
	prog := ringProgram(50)
	if err := w.Run(prog); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		if err := w.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(8*50*2), "msg_ops/op")
}
