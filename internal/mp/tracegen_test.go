package mp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The extrapolation generator: random periodic programs (a prefix, then a
// body that repeats every iteration with each of its segments closed by a
// collective, then a closing collective) priced by a deterministic net
// whose costs sit on and next to binade edges, including exact half-ulp
// ties of the binades the horizon crosses. A trace recorded at a short
// horizon and replayed with ExtraCycles must match a full event-backend
// run of the long horizon on every rank clock and every mark slot.

// edgeCosts draws priced costs near binade edges. Costs are about
// 2^scale; tie costs are exact half-ulp ties of a binade in [tieLo, tieHi].
type edgeCosts struct {
	rng          *rand.Rand
	scale        int
	tieLo, tieHi int
}

func (g *edgeCosts) draw() float64 {
	j := g.scale - g.rng.Intn(4)
	p := math.Ldexp(1, j)
	switch g.rng.Intn(7) {
	case 0:
		return p // an exact power of two: clocks land on binade edges
	case 1:
		return math.Nextafter(p, 0)
	case 2:
		return math.Nextafter(p, math.Inf(1))
	case 3, 4:
		// (m + 1/2)·u for the ulp u of binade E: its lowest set bit is u/2,
		// so adding it to any clock in that binade is a round-half-even tie.
		// E > j keeps m below 2^52, so the cost is exact.
		e := g.tieLo + g.rng.Intn(g.tieHi-g.tieLo+1)
		u := math.Ldexp(1, e-52)
		m := math.Floor(p / u * (0.5 + g.rng.Float64()))
		return (m + 0.5) * u
	case 5:
		return float64(1+g.rng.Intn(15)) * math.Ldexp(1, j-4) // few-bit dyadic
	default:
		return p * (0.5 + g.rng.Float64())
	}
}

// edgeNet is a deterministic net whose per-size costs come from edgeCosts.
// Wire sizes index genSizes; collectives price by payload (barrier or
// one-word reduction).
type edgeNet struct {
	send, recv, transit [len(genSizes)]float64
	reduce              [2]float64
}

var genSizes = [...]int{64, 512, 4096}

func sizeIndex(b int) int {
	for i, s := range genSizes {
		if s == b {
			return i
		}
	}
	panic(fmt.Sprintf("edgeNet: unexpected wire size %d", b))
}

func (m *edgeNet) SendOverhead(b int, _ *rand.Rand) float64 { return m.send[sizeIndex(b)] }
func (m *edgeNet) RecvOverhead(b int, _ *rand.Rand) float64 { return m.recv[sizeIndex(b)] }
func (m *edgeNet) Transit(b int, _ *rand.Rand) float64      { return m.transit[sizeIndex(b)] }
func (m *edgeNet) ReduceCost(_, b int, _ *rand.Rand) float64 {
	if b == 0 {
		return m.reduce[0]
	}
	return m.reduce[1]
}
func (m *edgeNet) CostsDeterministic() bool { return true }

// Generated step kinds.
const (
	stepCharge   = iota // ChargeExact of a per-rank literal
	stepParam           // ChargeParam
	stepCkpt            // Checkpoint (a param-priced charge)
	stepRing            // send to the next rank, receive from the previous
	stepBoth            // ring exchange in both directions
	stepPipeline        // receive from the previous rank, charge, send on: a wavefront
	stepMark            // one fixed rank writes a mark slot
	numStepKinds
)

type genStep struct {
	kind int
	lit  []float64 // per-rank literal charge (stepCharge, stepPipeline)
	idx  int       // param index (stepParam, stepCkpt); mark slot (stepMark)
	who  int       // mark writer
	size [2]int    // wire sizes
}

// genProgram is one generated periodic program.
type genProgram struct {
	n       int
	prefix  []genStep
	body    [][]genStep // segments; each is closed by a collective
	barrier []bool      // segment closes with a barrier (else a one-word reduction)
	charges []float64   // param table
}

func newGenProgram(rng *rand.Rand, costs *edgeCosts) *genProgram {
	g := &genProgram{n: 2 + rng.Intn(7)}
	g.charges = make([]float64, 4)
	for i := range g.charges {
		g.charges[i] = costs.draw()
	}
	if rng.Intn(4) == 0 {
		g.charges[rng.Intn(len(g.charges))] = -costs.draw() // ignored by ChargeParam
	}
	nextMark := 1
	step := func(allowMark bool) genStep {
		s := genStep{kind: rng.Intn(numStepKinds)}
		if s.kind == stepMark && (!allowMark || nextMark >= MaxMarks) {
			s.kind = stepCharge
		}
		s.size = [2]int{genSizes[rng.Intn(len(genSizes))], genSizes[rng.Intn(len(genSizes))]}
		switch s.kind {
		case stepCharge, stepPipeline:
			s.lit = make([]float64, g.n)
			c := costs.draw()
			for r := range s.lit {
				s.lit[r] = c
				if rng.Intn(3) == 0 {
					s.lit[r] = costs.draw()
				}
			}
		case stepParam, stepCkpt:
			s.idx = rng.Intn(len(g.charges))
		case stepMark:
			s.idx, s.who = nextMark, rng.Intn(g.n)
			nextMark++
		}
		return s
	}
	for i := rng.Intn(4); i >= 0; i-- {
		g.prefix = append(g.prefix, step(false))
	}
	g.prefix = append(g.prefix, genStep{kind: stepMark, idx: 0, who: 0})
	for s := 1 + rng.Intn(2); s > 0; s-- {
		var seg []genStep
		for i := 1 + rng.Intn(5); i > 0; i-- {
			seg = append(seg, step(true))
		}
		g.body = append(g.body, seg)
		g.barrier = append(g.barrier, rng.Intn(2) == 0)
	}
	return g
}

func (g *genProgram) exec(c *Comm, steps []genStep, tag0 int) {
	r, n := c.Rank(), c.Size()
	next, prev := (r+1)%n, (r+n-1)%n
	for i := range steps {
		s := &steps[i]
		tag := 2 * (tag0 + i)
		switch s.kind {
		case stepCharge:
			c.ChargeExact(s.lit[r])
		case stepParam:
			c.ChargeParam(s.idx)
		case stepCkpt:
			c.Checkpoint(s.idx)
		case stepRing:
			c.SendN(next, tag, s.size[0], nil)
			c.RecvN(prev, tag)
		case stepBoth:
			c.SendN(next, tag, s.size[0], nil)
			c.SendN(prev, tag+1, s.size[1], nil)
			c.RecvN(prev, tag)
			c.RecvN(next, tag+1)
		case stepPipeline:
			if r > 0 {
				c.RecvN(r-1, tag)
			}
			c.ChargeExact(s.lit[r])
			if r < n-1 {
				c.SendN(r+1, tag, s.size[0], nil)
			}
		case stepMark:
			if r == s.who {
				c.Mark(s.idx)
			}
		}
	}
}

func (g *genProgram) program(iters int) func(c *Comm) error {
	return func(c *Comm) error {
		g.exec(c, g.prefix, 0)
		c.AllreduceMax(0)
		for it := 0; it < iters; it++ {
			tag := len(g.prefix)
			for s, seg := range g.body {
				g.exec(c, seg, tag)
				tag += len(seg)
				if g.barrier[s] {
					c.Barrier()
				} else {
					c.AllreduceMax(1)
				}
			}
		}
		c.AllreduceSum(1)
		return nil
	}
}

func (g *genProgram) world(net NetworkModel) (*World, error) {
	w, err := NewWorld(g.n, Options{Net: net})
	if err != nil {
		return nil, err
	}
	w.SetParams(g.charges, nil)
	return w, nil
}

// TestTraceExtrapolationGeneratedPrograms is the extrapolation generator.
func TestTraceExtrapolationGeneratedPrograms(t *testing.T) {
	trials, maxExtra := 48, 10000
	if testing.Short() {
		trials, maxExtra = 12, 2000
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(7000 + trial)
		rng := rand.New(rand.NewSource(seed))
		scale := -14 + rng.Intn(10)
		// A cycle costs a few to a few dozen 2^scale; 10^4 of them span
		// about 18 binades above scale.
		costs := &edgeCosts{rng: rng, scale: scale, tieLo: scale + 1, tieHi: scale + 18}
		g := newGenProgram(rng, costs)
		var net NetworkModel
		if trial%4 != 0 {
			m := &edgeNet{}
			for i := range genSizes {
				m.send[i], m.recv[i], m.transit[i] = costs.draw(), costs.draw(), costs.draw()
			}
			m.reduce[0], m.reduce[1] = costs.draw(), costs.draw()
			net = m
		}
		base := 4 + rng.Intn(5)
		w, err := g.world(net)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := w.RunRecorded(g.program(base))
		if err != nil {
			t.Fatal(err)
		}
		if !tr.CycleDetected() || tr.CyclePeriod() != len(g.body) {
			t.Fatalf("seed %d: cycle detected=%v period=%d, want period %d",
				seed, tr.CycleDetected(), tr.CyclePeriod(), len(g.body))
		}
		r := NewReplayer()
		for _, extra := range []int{0, 1 + rng.Intn(10), 10 + rng.Intn(300), maxExtra - rng.Intn(maxExtra/10)} {
			iters := base + extra
			ref, err := g.world(net)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Run(g.program(iters)); err != nil {
				t.Fatal(err)
			}
			if err := r.Replay(tr, Options{Net: net}, ReplayParams{Charges: g.charges, ExtraCycles: extra}); err != nil {
				t.Fatalf("seed %d iters=%d: %v", seed, iters, err)
			}
			for i := 0; i < g.n; i++ {
				if got, want := r.Clock(i), ref.Clock(i); got != want {
					t.Fatalf("seed %d iters=%d: clock[%d] = %v (%x), want %v (%x); stats %+v",
						seed, iters, i, got, math.Float64bits(got), want, math.Float64bits(want), r.Stats())
				}
			}
			for m, want := range ref.Marks() {
				got := 0.0 // slots past the trace's last mark are never written
				if m < len(r.Marks()) {
					got = r.Marks()[m]
				}
				if got != want {
					t.Fatalf("seed %d iters=%d: mark[%d] = %v, want %v", seed, iters, m, got, want)
				}
			}
		}
	}
}
