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

// TestTraceClassCompileCycles pins what cycle detection finds, as (period,
// prefix generations, recorded cycles), on every shape
// TestClassCompileMatchesRecorded generates, in -short mode and in full.
// The values are those of the op-by-op detector that comparing chunk-id
// runs replaced; a cycle the detector misses would otherwise hide behind
// the ErrCannotExtrapolate fallback to a full-length replay.
func TestTraceClassCompileCycles(t *testing.T) {
	want := map[string][3]int{
		"1x1/ab2(6/3)/kb2(14/12)/it1/ck0":   {0, 0, 0},
		"1x41/ab2(8/7)/kb2(8/6)/it2/ck0":    {0, 0, 0},
		"41x1/ab8(8/1)/kb1(17/17)/it12/ck0": {1, 1, 11},
		"64x1/ab5(5/1)/kb1(2/2)/it13/ck0":   {1, 1, 12},
		"1x20/ab2(7/5)/kb2(11/7)/it1/ck1":   {0, 0, 0},
		"54x11/ab2(7/6)/kb2(6/5)/it2/ck1":   {0, 0, 0},
		"61x3/ab2(5/3)/kb1(3/3)/it12/ck1":   {1, 1, 11},
		"26x57/ab1(6/6)/kb1(18/18)/it2/ck1": {0, 0, 0},
		"47x4/ab5(5/1)/kb1(5/5)/it1/ck3":    {0, 0, 0},
		"1x1/ab2(4/3)/kb5(5/1)/it1/ck0":     {0, 0, 0},
		"1x41/ab4(8/2)/kb2(2/1)/it2/ck0":    {0, 0, 0},
		"41x1/ab4(4/1)/kb4(24/7)/it12/ck0":  {1, 1, 11},
		"64x1/ab2(6/4)/kb4(7/2)/it13/ck0":   {1, 1, 12},
		"1x20/ab3(3/1)/kb1(6/6)/it1/ck1":    {0, 0, 0},
		"54x11/ab7(7/1)/kb13(13/1)/it2/ck1": {0, 0, 0},
		"61x3/ab3(3/1)/kb2(24/22)/it12/ck1": {1, 1, 11},
		"26x57/ab1(1/1)/kb1(4/4)/it13/ck1":  {1, 1, 12},
		"47x4/ab1(1/1)/kb1(1/1)/it1/ck3":    {0, 0, 0},
		"54x46/ab3(5/2)/kb2(10/8)/it2/ck3":  {0, 0, 0},
		"16x37/ab3(3/1)/kb2(10/8)/it12/ck3": {3, 3, 3},
		"24x56/ab2(3/2)/kb4(12/3)/it13/ck3": {3, 1, 4},
		"38x39/ab2(4/2)/kb1(1/1)/it1/ck0":   {0, 0, 0},
		"56x49/ab2(7/6)/kb2(3/2)/it2/ck0":   {0, 0, 0},
		"2x17/ab5(5/1)/kb2(23/13)/it12/ck0": {1, 1, 11},
		"13x18/ab2(4/3)/kb3(5/2)/it13/ck0":  {1, 1, 12},
		"5x46/ab2(4/2)/kb5(18/4)/it1/ck1":   {0, 0, 0},
		"55x59/ab2(8/5)/kb2(22/13)/it2/ck1": {0, 0, 0},
		"10x17/ab1(2/2)/kb4(19/6)/it12/ck1": {1, 1, 11},
		"39x30/ab2(4/3)/kb2(8/4)/it13/ck1":  {1, 1, 12},
		"23x39/ab3(5/2)/kb1(1/1)/it1/ck3":   {0, 0, 0},
		"45x59/ab2(4/3)/kb3(11/5)/it2/ck3":  {0, 0, 0},
		"52x6/ab2(5/4)/kb15(15/1)/it12/ck3": {3, 3, 3},
		"22x50/ab1(6/6)/kb3(3/1)/it13/ck3":  {3, 1, 4},
		"25x33/ab4(8/2)/kb4(7/2)/it1/ck0":   {0, 0, 0},
		"45x37/ab1(2/2)/kb1(8/8)/it2/ck0":   {0, 0, 0},
		"26x40/ab2(8/5)/kb8(22/3)/it12/ck0": {1, 1, 11},
		"10x28/ab1(1/1)/kb2(6/5)/it13/ck0":  {1, 1, 12},
		"61x55/ab4(4/1)/kb2(6/3)/it1/ck1":   {0, 0, 0},
	}
	var cases []classCompileCase
	for _, random := range []struct{ n, maxOps int }{{4, 300_000}, {24, 8_000_000}} {
		cases = append(cases, classCompileCases(rand.New(rand.NewSource(21)), random.n, random.maxOps)...)
	}
	for _, c := range cases {
		tr, err := compileTrace(c.cfg.Decomp, c.cfg.AngleBlocks(), c.cfg.KBlocks(), c.cfg.Iterations, c.ckptEvery)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]int{tr.CyclePeriod(), tr.CyclePrefixGens(), tr.CycleCount()}
		if w, ok := want[c.String()]; !ok || got != w {
			t.Errorf("%v: cycle (period, prefix, cycles) = %v, want %v (pinned: %v)", c, got, w, ok)
		}
	}
}

// TestTraceTemplateInternsFlatAcrossHorizon: chunks close at collectives,
// so every steady iteration of a template reuses the same chunk ids and a
// 16x16 template interns the same ops at 12 iterations as at 1,000.
func TestTraceTemplateInternsFlatAcrossHorizon(t *testing.T) {
	d := grid.Decomp{PX: 16, PY: 16}
	var unique, fused [2]int
	for i, iters := range []int{12, 1000} {
		tr, err := compileTrace(d, 2, 5, iters, 0)
		if err != nil {
			t.Fatal(err)
		}
		unique[i], fused[i] = tr.UniqueOps(), tr.FusedUniqueOps()
	}
	if unique[0] != unique[1] || fused[0] != fused[1] {
		t.Fatalf("interned (scalar, fused) ops: (%d, %d) at 12 iterations, (%d, %d) at 1,000",
			unique[0], fused[0], unique[1], fused[1])
	}
}
