package mp

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// alphaBeta is a simple latency/bandwidth model for tests: every operation
// costs alpha + beta*bytes seconds, with transit twice that. It never reads
// its rng, so it declares DeterministicCosts.
type alphaBeta struct{ alpha, beta float64 }

func (alphaBeta) CostsDeterministic() bool { return true }

func (m alphaBeta) SendOverhead(b int, _ *rand.Rand) float64 { return m.alpha + m.beta*float64(b) }
func (m alphaBeta) RecvOverhead(b int, _ *rand.Rand) float64 { return m.alpha + m.beta*float64(b) }
func (m alphaBeta) Transit(b int, _ *rand.Rand) float64      { return 2 * (m.alpha + m.beta*float64(b)) }
func (m alphaBeta) ReduceCost(p, b int, _ *rand.Rand) float64 {
	return float64(p) * (m.alpha + m.beta*float64(b))
}

func TestNewWorldRejectsBadSize(t *testing.T) {
	if _, err := NewWorld(0, Options{}); err == nil {
		t.Error("expected error for size 0")
	}
	if _, err := NewWorld(-3, Options{}); err == nil {
		t.Error("expected error for negative size")
	}
}

func TestPointToPointDelivery(t *testing.T) {
	w, err := NewWorld(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			got := c.Recv(0, 7)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				return fmt.Errorf("got %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	_, err := RunWorld(2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // must not be observed by the receiver
		} else {
			if got := c.Recv(0, 0); got[0] != 42 {
				return fmt.Errorf("payload mutated: %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagSelectivity(t *testing.T) {
	// Receiver asks for tag 2 first even though tag 1 was sent first.
	_, err := RunWorld(2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 2, []float64{2})
		} else {
			if got := c.Recv(0, 2); got[0] != 2 {
				return fmt.Errorf("tag 2 payload = %v", got)
			}
			if got := c.Recv(0, 1); got[0] != 1 {
				return fmt.Errorf("tag 1 payload = %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonOvertakingSameTag(t *testing.T) {
	const n = 50
	_, err := RunWorld(2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 0, []float64{float64(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				if got := c.Recv(0, 0); got[0] != float64(i) {
					return fmt.Errorf("message %d overtaken: got %v", i, got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendToSelfPanicsToError(t *testing.T) {
	err := mustWorld(t, 1).Run(func(c *Comm) error {
		c.Send(0, 0, nil)
		return nil
	})
	if err == nil {
		t.Fatal("expected error from self-send")
	}
}

func TestSendInvalidRank(t *testing.T) {
	err := mustWorld(t, 2).Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(5, 0, nil)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error from invalid destination")
	}
}

func mustWorld(t *testing.T, n int) *World {
	t.Helper()
	w, err := NewWorld(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBarrierSynchronisesClocks(t *testing.T) {
	w, err := NewWorld(4, Options{Net: alphaBeta{alpha: 1e-6}})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		c.ChargeExact(float64(c.Rank())) // rank r is r seconds busy
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 3 + 4*1e-6 // latest participant + reduce cost
	for r := 0; r < 4; r++ {
		if math.Abs(w.Clock(r)-want) > 1e-12 {
			t.Errorf("rank %d clock = %v, want %v", r, w.Clock(r), want)
		}
	}
}

func TestAllreduce(t *testing.T) {
	_, err := RunWorld(5, Options{}, func(c *Comm) error {
		r := float64(c.Rank())
		if got := c.AllreduceMax(r); got != 4 {
			return fmt.Errorf("max = %v", got)
		}
		if got := c.AllreduceSum(r); got != 10 {
			return fmt.Errorf("sum = %v", got)
		}
		vec := c.AllreduceSumSlice([]float64{1, r})
		if vec[0] != 5 || vec[1] != 10 {
			return fmt.Errorf("vec = %v", vec)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedCollectives(t *testing.T) {
	// Many back-to-back generations must not cross-talk.
	_, err := RunWorld(8, Options{}, func(c *Comm) error {
		for i := 0; i < 100; i++ {
			want := float64(i * 8)
			if got := c.AllreduceSum(float64(i)); got != want {
				return fmt.Errorf("round %d: sum = %v, want %v", i, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeCausality(t *testing.T) {
	// Receiver that is idle must not complete the receive before the
	// message's transit has elapsed.
	net := alphaBeta{alpha: 0.5} // send 0.5s, transit 1s, recv 0.5s
	w, err := NewWorld(2, Options{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.ChargeExact(10)
			c.Send(1, 0, []float64{1})
			if got := c.Now(); math.Abs(got-10.5) > 1e-12 {
				return fmt.Errorf("sender clock = %v, want 10.5", got)
			}
		} else {
			c.Recv(0, 0)
			// available at 10+1=11, plus 0.5 recv overhead
			if got := c.Now(); math.Abs(got-11.5) > 1e-12 {
				return fmt.Errorf("receiver clock = %v, want 11.5", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Makespan(); math.Abs(got-11.5) > 1e-12 {
		t.Errorf("makespan = %v, want 11.5", got)
	}
}

func TestBusyReceiverDominates(t *testing.T) {
	// If the receiver is busier than the transit, its own clock dominates.
	net := alphaBeta{alpha: 0.5}
	w, err := NewWorld(2, Options{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1})
		} else {
			c.ChargeExact(100)
			c.Recv(0, 0)
			if got := c.Now(); math.Abs(got-100.5) > 1e-12 {
				return fmt.Errorf("receiver clock = %v, want 100.5", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = w
}

func TestSendNWireSize(t *testing.T) {
	// Skeleton sends declare a wire size without a payload; cost must follow
	// the declared size.
	net := alphaBeta{beta: 1e-6}
	w, err := NewWorld(2, Options{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.SendN(1, 0, 1000, nil)
		} else {
			data, bytes := c.RecvN(0, 0)
			if data != nil {
				return fmt.Errorf("expected nil payload, got %v", data)
			}
			if bytes != 1000 {
				return fmt.Errorf("bytes = %d", bytes)
			}
			if got := c.Now(); math.Abs(got-3e-3) > 1e-12 { // transit 2ms + recv 1ms
				return fmt.Errorf("clock = %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChargeNoiseDeterminism(t *testing.T) {
	run := func() float64 {
		w, err := NewWorld(3, Options{Noise: jitterNoise{0.1}, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(c *Comm) error {
			for i := 0; i < 100; i++ {
				c.Charge(0.01)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return w.Makespan()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("noise not deterministic: %v vs %v", a, b)
	}
	if math.Abs(a-1.0) > 0.5 {
		t.Errorf("noisy makespan wildly off: %v", a)
	}
}

type jitterNoise struct{ frac float64 }

func (j jitterNoise) Perturb(s float64, rng *rand.Rand) float64 {
	return s * (1 + j.frac*(2*rng.Float64()-1))
}

func TestChargeIgnoresNegative(t *testing.T) {
	w := mustWorld(t, 1)
	if err := w.Run(func(c *Comm) error {
		c.Charge(-5)
		c.ChargeExact(-5)
		if c.Now() != 0 {
			return fmt.Errorf("clock = %v", c.Now())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRingPipelineVirtualTime(t *testing.T) {
	// A 1-D pipeline: rank r receives from r-1, works 1s, sends to r+1.
	// Makespan must be n seconds (fill) with zero-cost network.
	const n = 8
	w, err := NewWorld(n, Options{Net: alphaBeta{}})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() > 0 {
			c.Recv(c.Rank()-1, 0)
		}
		c.ChargeExact(1)
		if c.Rank() < n-1 {
			c.Send(c.Rank()+1, 0, nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Makespan(); math.Abs(got-n) > 1e-12 {
		t.Errorf("pipeline makespan = %v, want %v", got, float64(n))
	}
	clocks := w.SortedClocks()
	for i := 1; i < len(clocks); i++ {
		if clocks[i] < clocks[i-1] {
			t.Error("SortedClocks not ascending")
		}
	}
}

func TestManyRanksStress(t *testing.T) {
	// A 500-rank ring exchange shakes out races under -race.
	const n = 500
	var total atomic.Int64
	_, err := RunWorld(n, Options{}, func(c *Comm) error {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		c.Send(next, 0, []float64{float64(c.Rank())})
		got := c.Recv(prev, 0)
		total.Add(int64(got[0]))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != n*(n-1)/2 {
		t.Errorf("total = %d", total.Load())
	}
}

func TestPropertyVirtualClocksMonotone(t *testing.T) {
	// Property: random charge/send/recv schedules never move a clock
	// backwards, and makespan >= every rank's total charged compute.
	f := func(seed int64, steps uint8) bool {
		n := 4
		work := make([]float64, n)
		w, err := NewWorld(n, Options{Net: alphaBeta{alpha: 1e-5, beta: 1e-8}, Seed: seed})
		if err != nil {
			return false
		}
		nsteps := int(steps%20) + 1
		err = w.Run(func(c *Comm) error {
			rng := rand.New(rand.NewSource(seed + int64(c.Rank())))
			last := 0.0
			for i := 0; i < nsteps; i++ {
				d := rng.Float64() * 0.01
				c.ChargeExact(d)
				work[c.Rank()] += d
				if c.Now() < last {
					return fmt.Errorf("clock went backwards")
				}
				last = c.Now()
				// Everyone exchanges with the next rank each round
				// (deterministic pattern, no deadlock).
				next := (c.Rank() + 1) % n
				prev := (c.Rank() + n - 1) % n
				c.Send(next, i, nil)
				c.Recv(prev, i)
				if c.Now() < last {
					return fmt.Errorf("clock went backwards after recv")
				}
				last = c.Now()
			}
			return nil
		})
		if err != nil {
			return false
		}
		for r := 0; r < n; r++ {
			if w.Clock(r) < work[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCollectiveOpMismatchIsError(t *testing.T) {
	// One rank in AllreduceMax while another enters AllreduceSum is a
	// program error; the runtime must surface it rather than hang.
	w, err := NewWorld(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.AllreduceMax(1)
		} else {
			c.AllreduceSum(1)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestCollectiveLengthMismatchIsError(t *testing.T) {
	w, err := NewWorld(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.AllreduceSumSlice([]float64{1, 2})
		} else {
			c.AllreduceSumSlice([]float64{1})
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestRecvInvalidSourceIsError(t *testing.T) {
	err := mustWorld(t, 1).Run(func(c *Comm) error {
		c.Recv(9, 0)
		return nil
	})
	if err == nil {
		t.Fatal("expected invalid source error")
	}
}

func TestBcast(t *testing.T) {
	const root = 2
	_, err := RunWorld(4, Options{}, func(c *Comm) error {
		buf := []float64{0, 0}
		if c.Rank() == root {
			buf = []float64{3.14, 2.71}
		}
		got := c.Bcast(root, buf)
		if got[0] != 3.14 || got[1] != 2.71 {
			return fmt.Errorf("rank %d: bcast = %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	err := mustWorld(t, 2).Run(func(c *Comm) error {
		c.Bcast(5, []float64{1})
		return nil
	})
	if err == nil {
		t.Fatal("expected invalid root error")
	}
}

func TestBcastRepeatedRoots(t *testing.T) {
	// Every rank takes a turn as root across rounds.
	const n = 4
	_, err := RunWorld(n, Options{}, func(c *Comm) error {
		for round := 0; round < n; round++ {
			v := 0.0
			if c.Rank() == round {
				v = float64(100 + round)
			}
			got := c.Bcast(round, []float64{v})
			if got[0] != float64(100+round) {
				return fmt.Errorf("round %d rank %d: %v", round, c.Rank(), got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
