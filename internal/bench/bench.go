// Package bench implements the hardware benchmarking side of the PACE
// method against simulated platforms: serial-kernel profiling (the paper's
// PAPI measurements on 1x1 and 1x2 decompositions, Section 4.3) and the MPI
// micro-benchmark with Eq. 3 curve fitting (Section 4.4). Its output is a
// fitted hwmodel.Model; it never leaks ground-truth parameters directly —
// everything passes through simulated measurement.
package bench

import (
	"fmt"
	"math/rand"

	"pacesweep/internal/clc"
	"pacesweep/internal/grid"
	"pacesweep/internal/hwmodel"
	"pacesweep/internal/mp"
	"pacesweep/internal/platform"
	"pacesweep/internal/stats"
	"pacesweep/internal/sweep"
)

// KernelProfile reports the simulated PAPI profiling of the serial kernel.
type KernelProfile struct {
	CellsPerProc int
	Flops        float64 // counted operations (hardware counters)
	Seconds      float64 // elapsed (virtual) time
	MFLOPS       float64 // achieved rate
	MFLOPS1x2    float64 // the 1x2 decomposition check run
}

// truthCosts builds the simulator-side skeleton costs for a run on the
// given platform. parallel selects production-run conditions versus a
// dedicated profiling run.
func truthCosts(pl platform.Platform, cellsPerProc int, parallel bool) sweep.Costs {
	perFlop := pl.SecondsPerCellAngle(1, cellsPerProc, parallel)
	return sweep.Costs{
		CellAngle:   sweep.FlopsPerCellAngle * perFlop,
		SourceCell:  sweep.FlopsPerSourceCell * perFlop,
		FluxErrCell: sweep.FlopsPerFluxErrCell * perFlop,
	}
}

// MeasureOptions configure a simulated production measurement.
type MeasureOptions struct {
	Seed int64
}

// Measure runs the problem on the simulated cluster (production conditions:
// truth rate bias, OS noise, network jitter, run-level background load) and
// returns the "measured" wall time in seconds. This is the substitute for
// the paper's actual cluster runs.
func Measure(pl platform.Platform, p sweep.Problem, d grid.Decomp, opt MeasureOptions) (float64, error) {
	p = p.Normalize()
	subs, err := grid.Partition(p.Grid, d)
	if err != nil {
		return 0, err
	}
	cellsPerProc := subs[0].Cells()
	parallel := d.Size() > 1
	costs := truthCosts(pl, cellsPerProc, parallel)
	// Skeleton measurement is a pure virtual-time workload, run
	// deterministically by the event scheduler.
	opts := mp.Options{Net: pl.NetModel(true), Seed: opt.Seed}
	if n := pl.Noise(); n != nil {
		opts.Noise = n
	}
	res, err := sweep.RunSkeleton(p, d, costs, opts)
	if err != nil {
		return 0, err
	}
	disturb := pl.Truth.RunDisturbance(rand.New(rand.NewSource(opt.Seed ^ 0x5DEECE66D)))
	return res.Makespan * (1 + disturb), nil
}

// ProfileKernel profiles the serial kernel on a dedicated node: a 1x1 run
// of one processor's subgrid (and a 1x2 check run), with hardware counters
// giving the flop count and the virtual clock the elapsed time. Mirrors
// the paper's benchmarking procedure exactly.
func ProfileKernel(pl platform.Platform, perProc grid.Global, base sweep.Problem, seed int64) (KernelProfile, error) {
	p := base.Normalize()
	p.Grid = perProc
	p = p.Normalize()
	cells := int(perProc.Cells())
	costs := truthCosts(pl, cells, false)
	opts := mp.Options{Seed: seed}
	if n := pl.Noise(); n != nil {
		opts.Noise = n
	}
	res, err := sweep.RunSkeleton(p, grid.Decomp{PX: 1, PY: 1}, costs, opts)
	if err != nil {
		return KernelProfile{}, err
	}
	flops := res.Counters.Flops()
	prof := KernelProfile{
		CellsPerProc: cells,
		Flops:        flops,
		Seconds:      res.Makespan,
		MFLOPS:       flops / res.Makespan / 1e6,
	}

	// The 1x2 check run of the paper: two processors, same per-processor
	// load, production conditions. Used as a sanity check that the serial
	// rate transfers; reported but not used in the fitted model.
	g2 := grid.Global{NX: 2 * perProc.NX, NY: perProc.NY, NZ: perProc.NZ}
	p2 := base.Normalize()
	p2.Grid = g2
	p2 = p2.Normalize()
	costs2 := truthCosts(pl, cells, true)
	opts2 := mp.Options{Net: pl.NetModel(true), Seed: seed + 1}
	if n := pl.Noise(); n != nil {
		opts2.Noise = n
	}
	res2, err := sweep.RunSkeleton(p2, grid.Decomp{PX: 2, PY: 1}, costs2, opts2)
	if err != nil {
		return KernelProfile{}, err
	}
	prof.MFLOPS1x2 = res2.Counters.Flops() / res2.Makespan / 1e6 / 2
	return prof, nil
}

// CommPoint is one timed message operation.
type CommPoint struct {
	Bytes          int
	SendMicros     float64
	RecvMicros     float64
	PingPongMicros float64
}

// DefaultMessageSizes is the benchmark's sweep of message sizes: powers of
// two from 8 bytes to 1 MiB plus the odd sizes the application actually
// uses.
func DefaultMessageSizes() []int {
	var out []int
	for s := 8; s <= 1<<20; s *= 2 {
		out = append(out, s)
	}
	out = append(out, 12000, 6000, 3000, 1500) // jt*mk*mmi*8-style sizes
	return out
}

// MPIBench times sends, receives and ping-pongs of increasing sizes on the
// simulated interconnect (with its jitter), taking the median of reps
// repetitions — the "MPI benchmark program" of Section 4.4. The two probe
// ranks land on the same node (class 0); to benchmark a deeper tier of a
// hierarchical platform, pass pl.FlattenedAt(level) — the simulation
// equivalent of pinning the benchmark processes to different nodes or
// clusters.
func MPIBench(pl platform.Platform, sizes []int, reps int, seed int64) ([]CommPoint, error) {
	if reps <= 0 {
		reps = 5
	}
	points := make([]CommPoint, len(sizes))
	for i, size := range sizes {
		send := make([]float64, 0, reps)
		recv := make([]float64, 0, reps)
		pp := make([]float64, 0, reps)
		for r := 0; r < reps; r++ {
			s, rv, p, err := timeOnce(pl, size, seed+int64(i*1000+r))
			if err != nil {
				return nil, err
			}
			send = append(send, s)
			recv = append(recv, rv)
			pp = append(pp, p)
		}
		points[i] = CommPoint{
			Bytes:          size,
			SendMicros:     stats.Median(send) * 1e6,
			RecvMicros:     stats.Median(recv) * 1e6,
			PingPongMicros: stats.Median(pp) * 1e6,
		}
	}
	return points, nil
}

// timeOnce runs one two-rank benchmark exchange and extracts the three
// timings from virtual clock deltas, the way a real benchmark brackets MPI
// calls with timers.
func timeOnce(pl platform.Platform, bytes int, seed int64) (send, recv, pingpong float64, err error) {
	var sendT, recvT, ppT float64
	w, err := mp.NewWorld(2, mp.Options{Net: pl.NetModel(true), Seed: seed})
	if err != nil {
		return 0, 0, 0, err
	}
	err = w.Run(func(c *mp.Comm) error {
		data := make([]float64, (bytes+7)/8)
		// Timed send: rank 0 -> rank 1.
		if c.Rank() == 0 {
			t0 := c.Now()
			c.SendN(1, 0, bytes, data)
			sendT = c.Now() - t0
		} else {
			// Wait long enough that the message has surely arrived, then
			// time the receive alone.
			c.ChargeExact(1)
			t0 := c.Now()
			c.RecvN(0, 0)
			recvT = c.Now() - t0
		}
		c.Barrier()
		// Ping-pong: round trip timed at rank 0.
		if c.Rank() == 0 {
			t0 := c.Now()
			c.SendN(1, 1, bytes, data)
			c.RecvN(1, 2)
			ppT = c.Now() - t0
		} else {
			c.RecvN(0, 1)
			c.SendN(0, 2, bytes, data)
		}
		return nil
	})
	return sendT, recvT, ppT, err
}

// FitEq3 fits one Eq. 3 piecewise curve (microseconds versus bytes) to
// benchmark samples.
func FitEq3(points []CommPoint, pick func(CommPoint) float64) (platform.Piecewise, error) {
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, pt := range points {
		xs[i] = float64(pt.Bytes)
		ys[i] = pick(pt)
	}
	seg, err := stats.SegmentedFit(xs, ys)
	if err != nil {
		return platform.Piecewise{}, err
	}
	return platform.Piecewise{
		A: int(seg.A), B: seg.B, C: seg.C, D: seg.D, E: seg.E,
	}, nil
}

// fitLevel runs the MPI benchmark against one (possibly flattened)
// platform view and fits the three Eq. 3 curves.
func fitLevel(pl platform.Platform, reps int, seed int64) (send, recv, pp platform.Piecewise, err error) {
	points, err := MPIBench(pl, DefaultMessageSizes(), reps, seed)
	if err != nil {
		return send, recv, pp, fmt.Errorf("bench: mpi benchmark: %w", err)
	}
	if send, err = FitEq3(points, func(p CommPoint) float64 { return p.SendMicros }); err != nil {
		return send, recv, pp, err
	}
	if recv, err = FitEq3(points, func(p CommPoint) float64 { return p.RecvMicros }); err != nil {
		return send, recv, pp, err
	}
	pp, err = FitEq3(points, func(p CommPoint) float64 { return p.PingPongMicros })
	return send, recv, pp, err
}

// BuildModel runs the full benchmarking pipeline against a simulated
// platform and assembles the fitted hardware model: kernel profiling at the
// given per-processor working set, the MPI benchmark with Eq. 3 fits, and
// the old opcode cost table (whose micro-benchmark the simulation represents
// directly by the platform's measured per-opcode cycles).
//
// On a hierarchical platform the MPI benchmark runs once per interconnect
// level, the probe processes "pinned" to that tier (FlattenedAt) exactly as
// a real benchmark campaign pins by node and cluster, and the fitted model
// carries the per-level curves plus the machine topology — observable
// configuration, not hidden truth, so the epistemic firewall stands.
func BuildModel(pl platform.Platform, perProc grid.Global, base sweep.Problem, seed int64) (*hwmodel.Model, error) {
	prof, err := ProfileKernel(pl, perProc, base, seed)
	if err != nil {
		return nil, fmt.Errorf("bench: kernel profiling: %w", err)
	}
	opcode := clc.CostTable{}
	for op, cycles := range pl.Proc.OpcodeCycles {
		opcode[clc.Op(op)] = cycles / (pl.Proc.ClockGHz * 1e9)
	}
	m := &hwmodel.Model{
		Name:        pl.Name,
		MFLOPS:      prof.MFLOPS,
		OpcodeCosts: opcode,
	}
	if !pl.Net.Hierarchical() {
		m.Send, m.Recv, m.PingPong, err = fitLevel(pl, 5, seed+100)
		if err != nil {
			return nil, err
		}
		return m, nil
	}
	m.Topology = pl.Topology()
	m.Levels = make([]hwmodel.NetLevel, len(pl.Net.Levels))
	for l := range pl.Net.Levels {
		// Distinct seed block per level: each level's campaign is its own
		// sequence of benchmark runs.
		send, recv, pp, err := fitLevel(pl.FlattenedAt(l), 5, seed+100+int64(l)*10_000)
		if err != nil {
			return nil, fmt.Errorf("bench: level %d: %w", l, err)
		}
		m.Levels[l] = hwmodel.NetLevel{Send: send, Recv: recv, PingPong: pp}
	}
	// The flat fields mirror level 0 — what a placement-blind benchmark
	// would have measured — keeping size-only consumers coherent.
	m.Send, m.Recv, m.PingPong = m.Levels[0].Send, m.Levels[0].Recv, m.Levels[0].PingPong
	return m, nil
}
