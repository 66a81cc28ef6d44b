package experiments

import (
	"fmt"
	"math"

	"pacesweep/internal/grid"
	"pacesweep/internal/lru"
	"pacesweep/internal/mp"
	"pacesweep/internal/platform"
	"pacesweep/internal/report"
	"pacesweep/internal/sweep"
)

// OverlapRow compares the blocking and nonblocking (pre-posted receive)
// schedules of the sweep on one configuration.
type OverlapRow struct {
	Decomp     grid.Decomp
	Blocking   float64
	Overlapped float64
	DeltaPct   float64
}

// OverlapResult quantifies the paper's Section 4.4 claim that the simple
// point-to-point communication model suffices for SWEEP3D because "one way
// blocking sends and receives dominate": restructuring the sweep with
// nonblocking pre-posted receives cannot move any wait past useful work
// (every cell of a block depends on that block's inflow faces), so the two
// schedules complete in the same time. The measured deltas here are zero
// up to simulation determinism.
type OverlapResult struct {
	Platform platform.Platform
	Rows     []OverlapRow
	MaxDelta float64
}

// overlapCache memoizes one row's (blocking, overlapped) makespans: the
// study is fully deterministic (no jitter, event scheduler), so repeat
// driver invocations share the shared cache layer like every other driver.
var overlapCache = lru.New[overlapRowKey, [2]float64](1024, 4, func(k overlapRowKey) uint64 {
	h := lru.NewHasher()
	h.String(k.platform)
	h.Int(k.d.PX)
	h.Int(k.d.PY)
	return h.Sum()
})

type overlapRowKey struct {
	platform string
	d        grid.Decomp
}

// OverlapStudy runs both schedules across array sizes on the Gigabit
// Ethernet system (the slowest interconnect, where overlap would matter
// most if it existed).
func OverlapStudy() (*OverlapResult, error) {
	pl := platform.OpteronGigE()
	configs := [][2]int{{2, 2}, {4, 4}, {5, 6}, {8, 8}}
	out := &OverlapResult{Platform: pl, Rows: make([]OverlapRow, len(configs))}
	err := forEach(len(configs), func(i int) error {
		d := grid.Decomp{PX: configs[i][0], PY: configs[i][1]}
		spans, err := overlapCache.GetOrBuild(overlapRowKey{platform: fmt.Sprintf("%+v", pl), d: d}, func() ([2]float64, error) {
			p := sweep.New(grid.Global{NX: 50 * d.PX, NY: 50 * d.PY, NZ: 50})
			costs := sweep.CostsFromRate(350)
			// Deterministic: no jitter, event scheduler.
			opts := mp.Options{Net: pl.NetModel(false)}
			std, err := sweep.RunSkeleton(p, d, costs, opts)
			if err != nil {
				return [2]float64{}, err
			}
			ovl, err := sweep.RunSkeletonOverlapped(p, d, costs, opts)
			if err != nil {
				return [2]float64{}, err
			}
			return [2]float64{std.Makespan, ovl.Makespan}, nil
		})
		if err != nil {
			return err
		}
		delta := (spans[0] - spans[1]) / spans[0] * 100
		out.Rows[i] = OverlapRow{
			Decomp: d, Blocking: spans[0], Overlapped: spans[1], DeltaPct: delta,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range out.Rows {
		out.MaxDelta = math.Max(out.MaxDelta, math.Abs(r.DeltaPct))
	}
	return out, nil
}

// Table renders the study.
func (o *OverlapResult) Table() *report.Table {
	t := &report.Table{
		Title: "Communication/computation overlap study (Section 4.4 claim)",
		Caption: fmt.Sprintf("%s: blocking versus pre-posted nonblocking receives; "+
			"the wavefront dependency structure leaves nothing to overlap.", o.Platform.Net.Name),
		Headers: []string{"Array", "Blocking(s)", "Overlapped(s)", "Gain(%)"},
	}
	for _, r := range o.Rows {
		t.AddRow(
			r.Decomp.String(),
			fmt.Sprintf("%.3f", r.Blocking),
			fmt.Sprintf("%.3f", r.Overlapped),
			fmt.Sprintf("%.3f", r.DeltaPct),
		)
	}
	t.AddFooter("max |gain| %.4f%% — the blocking point-to-point model is sufficient, as the paper argues", o.MaxDelta)
	return t
}
