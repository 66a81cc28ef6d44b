package mp

import (
	"errors"
	"testing"
)

// TestWorldRunTwiceWithoutResetErrors pins the run-once contract: Run or
// RunRecorded on a world that has already run must fail loudly instead of
// silently continuing its clocks.
func TestWorldRunTwiceWithoutResetErrors(t *testing.T) {
	noop := func(c *Comm) error { return nil }
	for name, first := range map[string]func(w *World) error{
		"Run":         func(w *World) error { return w.Run(noop) },
		"RunRecorded": func(w *World) error { _, err := w.RunRecorded(noop); return err },
	} {
		w, err := NewWorld(2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := first(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(noop); !errors.Is(err, errRanTwice) {
			t.Fatalf("after %s: second Run = %v, want %v", name, err, errRanTwice)
		}
		if _, err := w.RunRecorded(noop); !errors.Is(err, errRanTwice) {
			t.Fatalf("after %s: RunRecorded = %v, want %v", name, err, errRanTwice)
		}
	}
}

// TestEventAbortInsideCollective drives the event scheduler into a
// deadlock where some ranks are parked *inside* a collective: the abort
// must unwind them (not just plain receives).
func TestEventAbortInsideCollective(t *testing.T) {
	run := func(f func(c *Comm) error) error {
		w, err := NewWorld(3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return w.Run(f)
	}
	err := run(func(c *Comm) error {
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
	err = run(func(c *Comm) error {
		if c.Rank() < 2 {
			c.Barrier()
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected abort when a rank exits past a collective")
	}
}

// ringProgram is pure point-to-point ring traffic, the replay allocation
// workload (collectives allocate their fresh result slices by contract).
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
