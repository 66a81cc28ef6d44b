package sweep

import (
	"fmt"

	"pacesweep/internal/grid"
	"pacesweep/internal/mp"
	"pacesweep/internal/sn"
)

// Message tags for the two face streams. Messages between a rank pair are
// non-overtaking per tag, and the block loop structure is deterministic, so
// fixed tags suffice (as in the original code's use of a single tag per
// direction).
const (
	tagEW = 1 // x-face blocks travelling in the sweep's i direction
	tagNS = 2 // y-face blocks travelling in the sweep's j direction
)

// SolveSerial runs the solver on a single processor and returns the global
// solution.
func SolveSerial(p Problem) (*Result, error) {
	return SolveParallel(p, grid.Decomp{PX: 1, PY: 1}, mp.Options{})
}

// SolveParallel runs the full functional solve over a PX x PY processor
// array, one mp rank per processor, and gathers the global scalar flux. The
// mp options select the transport: zero-value options give a purely
// functional run; a network model adds virtual-time accounting (Makespan).
func SolveParallel(p Problem, d grid.Decomp, opts mp.Options) (*Result, error) {
	p = p.Normalize()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	subs, err := grid.Partition(p.Grid, d)
	if err != nil {
		return nil, err
	}
	w, err := mp.NewWorld(d.Size(), opts)
	if err != nil {
		return nil, err
	}

	type rankOut struct {
		flux     []float64
		iters    int
		fluxErr  float64
		balance  Balance
		counters Counters
	}
	outs := make([]rankOut, d.Size())

	err = w.Run(func(c *mp.Comm) error {
		sub := subs[c.Rank()]
		ls := newLocal(p, sub)
		iters, lastErr := runIterations(c, ls, d, sub)
		src, abs, leak := ls.localBalance()
		bal := Balance{
			Source:     c.AllreduceSum(src),
			Absorption: c.AllreduceSum(abs),
			Leakage:    c.AllreduceSum(leak),
		}
		outs[c.Rank()] = rankOut{
			flux:     ls.flux,
			iters:    iters,
			fluxErr:  lastErr,
			balance:  bal,
			counters: ls.counters,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Flux:       make([]float64, p.Grid.Cells()),
		Iterations: outs[0].iters,
		FluxErr:    outs[0].fluxErr,
		Balance:    outs[0].balance,
		Makespan:   w.Makespan(),
	}
	for r, o := range outs {
		res.Counters.Add(o.counters)
		sub := subs[r]
		for k := 0; k < sub.NZ; k++ {
			for j := 0; j < sub.NY; j++ {
				gBase := (k*p.Grid.NY+(sub.Y0+j))*p.Grid.NX + sub.X0
				lBase := (k*sub.NY + j) * sub.NX
				copy(res.Flux[gBase:gBase+sub.NX], o.flux[lBase:lBase+sub.NX])
			}
		}
	}
	return res, nil
}

// runIterations drives the source-iteration loop for one rank and returns
// the iteration count and final flux change.
func runIterations(c *mp.Comm, ls *local, d grid.Decomp, sub grid.Sub) (int, float64) {
	p := ls.p
	maxIters := p.Iterations
	fixed := maxIters > 0
	if !fixed {
		maxIters = p.MaxIterations
	}
	var df float64
	it := 0
	for it = 1; it <= maxIters; it++ {
		finalIter := fixed && it == maxIters
		ls.source()
		sweepIteration(c, ls, d, sub, finalIter)
		df = c.AllreduceMax(ls.fluxErr())
		if !fixed && df < p.Epsi {
			// One more pass with leakage accounting would double-count the
			// last sweep; instead rerun accounting-only on the converged
			// state by accepting the small residual. The fixed-iteration
			// configuration (the paper's) accounts exactly.
			break
		}
	}
	if it > maxIters {
		it = maxIters
	}
	return it, df
}

// sweepIteration performs the 8-octant pipelined sweep of one source
// iteration: for each octant (in corner-pair order), for each angle block,
// for each k block: receive upstream faces, sweep the block, send
// downstream faces.
func sweepIteration(c *mp.Comm, ls *local, d grid.Decomp, sub grid.Sub, finalIter bool) {
	p := ls.p
	nab := p.AngleBlocks()
	for _, o := range sn.Octants() {
		ls.setOctant(o)
		upX, downX, upY, downY := d.UpstreamDownstream(sub.IX, sub.IY, o.SX, o.SY)
		kbs := p.kbOrder(o)
		for ab := 0; ab < nab; ab++ {
			ls.initPhiK(o, ab, finalIter)
			for bi, kb := range kbs {
				var ewIn, nsIn []float64
				if upX >= 0 {
					ewIn = c.Recv(upX, tagEW)
				}
				if upY >= 0 {
					nsIn = c.Recv(upY, tagNS)
				}
				ewOut, nsOut := ls.sweepBlock(o, ab, kb, ewIn, nsIn, finalIter)
				if downX >= 0 {
					c.Send(downX, tagEW, ewOut)
					ls.counters.MessagesSent++
					ls.counters.BytesSent += int64(8 * len(ewOut))
				} else if finalIter {
					ls.leakEW(ab, kb, ewOut)
				}
				if downY >= 0 {
					c.Send(downY, tagNS, nsOut)
					ls.counters.MessagesSent++
					ls.counters.BytesSent += int64(8 * len(nsOut))
				} else if finalIter {
					ls.leakNS(ab, kb, nsOut)
				}
				if bi == len(kbs)-1 {
					ls.finishPhiK(o, ab, finalIter)
				}
			}
		}
	}
}

// MessageSizes returns the wire sizes in bytes of one block's east-west and
// north-south face messages for a rank with the given local extents: the
// benchmark's jt*mk*mmi and it*mk*mmi double-precision arrays. Ragged final
// blocks are smaller; these are the full-block sizes used by the skeleton
// and the analytic models.
func (p Problem) MessageSizes(nxLocal, nyLocal int) (ewBytes, nsBytes int) {
	return 8 * nyLocal * p.MK * p.MMI, 8 * nxLocal * p.MK * p.MMI
}

// String summarises a problem configuration.
func (p Problem) String() string {
	return fmt.Sprintf("sweep3d[%v S%d mk=%d mmi=%d iters=%d]",
		p.Grid, p.Quad.N, p.MK, p.MMI, p.Iterations)
}
