package pace

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pacesweep/internal/grid"
	"pacesweep/internal/mp"
)

// recordTemplateTrace compiles a template shape the way a recording run
// does: every rank runs the body on the event backend under the given net
// and parameter tables, and the recorder captures each rank's ops.
func recordTemplateTrace(net mp.NetworkModel, d grid.Decomp, nab, nkb, iterations, ckptEvery int, charges []float64, sizes []int) (*mp.Trace, error) {
	w, err := mp.NewWorld(d.Size(), mp.Options{Net: net})
	if err != nil {
		return nil, err
	}
	w.SetParams(charges, sizes)
	return w.RunRecorded(templateBody(d, nab, nkb, iterations, ckptEvery))
}

// classCompileCase is one generated template shape.
type classCompileCase struct {
	cfg       Config
	ckptEvery int
}

func (c classCompileCase) String() string {
	return fmt.Sprintf("%dx%d/ab%d(%d/%d)/kb%d(%d/%d)/it%d/ck%d",
		c.cfg.Decomp.PX, c.cfg.Decomp.PY,
		c.cfg.AngleBlocks(), c.cfg.Angles, c.cfg.MMI,
		c.cfg.KBlocks(), c.cfg.Grid.NZ, c.cfg.MK,
		c.cfg.Iterations, c.ckptEvery)
}

// classCompileCases generates template shapes: processor arrays from 1 to
// 64 on each side, always with 1x1, 1xN and Nx1 among them; angle and k
// blockings that leave ragged tail blocks as often as not; checkpoint
// intervals 0, 1 and 3; and 1, 2, 12 and 13 iterations. Blockings are
// coarsened until a case records at most maxOps ops, so the largest arrays
// stay affordable.
func classCompileCases(rng *rand.Rand, random int, maxOps int) []classCompileCase {
	iters := []int{1, 2, 12, 13}
	ckpts := []int{0, 1, 3}
	n := 1 + rng.Intn(64)
	arrays := [][2]int{{1, 1}, {1, n}, {n, 1}, {1 + rng.Intn(64), 1}, {1, 1 + rng.Intn(64)}}
	for i := 0; i < random; i++ {
		arrays = append(arrays, [2]int{1 + rng.Intn(64), 1 + rng.Intn(64)})
	}
	var out []classCompileCase
	for i, a := range arrays {
		angles := 1 + rng.Intn(8)
		nz := 1 + rng.Intn(24)
		cfg := Config{
			Grid:       grid.Global{NX: 5 * a[0], NY: 5 * a[1], NZ: nz},
			Decomp:     grid.Decomp{PX: a[0], PY: a[1]},
			MK:         1 + rng.Intn(nz),
			MMI:        1 + rng.Intn(angles),
			Angles:     angles,
			Iterations: iters[i%len(iters)],
		}
		// About 40 ops per block step and rank, across the eight octants.
		for cfg.Decomp.Size()*cfg.Iterations*cfg.AngleBlocks()*cfg.KBlocks()*40 > maxOps {
			if cfg.MK < cfg.Grid.NZ {
				cfg.MK++
			} else if cfg.MMI < cfg.Angles {
				cfg.MMI++
			} else {
				cfg.Iterations = 1 + cfg.Iterations%2
				break
			}
		}
		out = append(out, classCompileCase{cfg: cfg, ckptEvery: ckpts[i/len(iters)%len(ckpts)]})
	}
	return out
}

// TestClassCompileMatchesRecorded is the exact gate of the class compile:
// for generated shapes, the trace compiled from the template's rank
// classes must equal, field for field, the trace a recording run of every
// rank produces. The recording runs under random positive costs, so its
// event schedule, and with it the order it interns chunks in, differs
// from case to case; canonical chunk order makes the traces agree anyway.
func TestClassCompileMatchesRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	random, maxOps := 24, 8_000_000
	if testing.Short() {
		random, maxOps = 4, 300_000
	}
	cases := classCompileCases(rng, random, maxOps)
	// The largest array, with its ragged blocking kept.
	big := Config{
		Grid:   grid.Global{NX: 5 * 64, NY: 5 * 64, NZ: 7},
		Decomp: grid.Decomp{PX: 64, PY: 64},
		MK:     3, MMI: 2, Angles: 3, Iterations: 2,
	}
	if !testing.Short() {
		cases = append(cases, classCompileCase{cfg: big, ckptEvery: 1})
	}
	net := testEvaluator(t).HW.Net()
	for _, c := range cases {
		t.Run(c.String(), func(t *testing.T) {
			d := c.cfg.Decomp
			nab, nkb := c.cfg.AngleBlocks(), c.cfg.KBlocks()
			charges := make([]float64, nab*nkb+3) // + source, flux_err, checkpoint
			for i := range charges {
				charges[i] = 1e-4 * (1 + rng.Float64())
			}
			sizes := make([]int, 2*nab*nkb)
			for i := range sizes {
				sizes[i] = 8 * (1 + rng.Intn(4096))
			}
			rec, err := recordTemplateTrace(net, d, nab, nkb, c.cfg.Iterations, c.ckptEvery, charges, sizes)
			if err != nil {
				t.Fatal(err)
			}
			cls, err := compileTrace(d, nab, nkb, c.cfg.Iterations, c.ckptEvery)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cls, rec) {
				t.Fatalf("class compile differs from the recording: ops %d/%d, unique %d/%d, cycle %v/%v",
					cls.Ops(), rec.Ops(), cls.UniqueOps(), rec.UniqueOps(),
					cls.CycleDetected(), rec.CycleDetected())
			}
		})
	}
}
