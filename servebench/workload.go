package main

// Workload generators. Each workload turns a seed into a fixed, ordered list
// of request bodies plus the trace shapes its set-up compiles. The server
// sees only the generated bodies; the seed never reaches it.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"pacesweep/internal/grid"
	"pacesweep/internal/pace"
	"pacesweep/internal/perturb"
	"pacesweep/internal/serve"
)

// Workload names, as passed to --workload.
const (
	PredictHot    = "predict_hot"
	PredictReplay = "predict_replay"
	SweepPerturb  = "sweep_perturb"
)

// Workloads lists every workload in the order the report prints them.
var Workloads = []string{PredictHot, PredictReplay, SweepPerturb}

// platformName is the one platform every workload predicts on, so set-up
// fits exactly one hardware model.
const platformName = "PentiumIII-Myrinet"

// canonIters mirrors the trace tier's canonical recorded horizon: a
// prediction beyond it replays the canonIters-iteration trace of its shape
// and extrapolates the rest, so it needs no trace of its own.
const canonIters = 12

// Fixed model knobs shared by every generated configuration. Only the
// processor array, blocking factors and iteration count change the trace
// shape; per-processor cell counts change costs alone.
const (
	cellsNZ = 50
	angles  = 6
	baseMK  = 10
	baseMMI = 3
)

// sizingRate is how many timed requests one second of --seconds buys per
// workload: the timed phase of a run lasts about --seconds on a 2-core
// x86 host, but it is always a fixed list, so two commits time the same
// work.
var sizingRate = map[string]float64{
	PredictHot:    16000,
	PredictReplay: 4,
	SweepPerturb:  6,
}

// Plan is one workload run's generated input.
type Plan struct {
	Workload string
	Path     string // endpoint every timed request posts to
	Clients  int    // closed-loop client count

	// Shapes holds one configuration per trace shape the workload uses;
	// set-up compiles each, and no timed request needs any other.
	Shapes []pace.Config

	// Warm is predict_hot's warm set, sent once during set-up, and
	// WarmRequests the same requests decoded.
	Warm         [][]byte
	WarmRequests []serve.PredictRequest
	// Keys maps timed request i to its warm-set entry (predict_hot only).
	Keys []int

	// Timed is the timed request list, sent in order by the clients.
	Timed [][]byte
	// Predicts and Sweeps are the decoded timed requests of
	// predict_replay and sweep_perturb, index-aligned with Timed.
	Predicts []serve.PredictRequest
	Sweeps   []serve.SweepRequest

	// Sample lists the timed indices whose responses are compared with
	// the reference server after the timed phase.
	Sample []int

	// Period is the length of the timed list's repeating class schedule
	// (1 when requests are drawn independently). Segmented figures cut
	// the list only at multiples of it, so every segment holds the same
	// mix of requests.
	Period int
}

// requestCount sizes a workload's timed list from the --seconds budget.
func requestCount(workload string, seconds int) int {
	n := int(math.Round(sizingRate[workload] * float64(seconds)))
	if n < 1 {
		n = 1
	}
	return n
}

// Generate builds the plan of a workload for a seed and timed request
// count. The same arguments always give byte-identical bodies.
func Generate(workload string, seed int64, n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("request count %d < 1", n)
	}
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case PredictHot:
		return genHot(rng, n)
	case PredictReplay:
		return genReplay(rng, n)
	case SweepPerturb:
		return genSweep(rng, n)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, Workloads)
}

// predictConfig is the model configuration a canonical predict request
// denotes (the defaults the server fills are explicit in every generated
// request).
func predictConfig(q serve.PredictRequest) pace.Config {
	return pace.Config{
		Grid:       grid.Global{NX: q.Grid.NX, NY: q.Grid.NY, NZ: q.Grid.NZ},
		Decomp:     grid.Decomp{PX: q.Array.PX, PY: q.Array.PY},
		MK:         q.MK,
		MMI:        q.MMI,
		Angles:     q.Angles,
		Iterations: q.Iterations,
	}
}

func newPredict(px, py, nxp, nyp, iterations int) serve.PredictRequest {
	return serve.PredictRequest{
		Platform:   platformName,
		Grid:       serve.GridSpec{NX: nxp * px, NY: nyp * py, NZ: cellsNZ},
		Array:      serve.ArraySpec{PX: px, PY: py},
		MK:         baseMK,
		MMI:        baseMMI,
		Angles:     angles,
		Iterations: iterations,
		Method:     serve.MethodAuto,
	}
}

// shapeKey is the trace tier's shape identity of a configuration: the
// processor array, the angle and k block counts, and the recorded
// iteration count. Clean predictions beyond canonIters replay the
// canonical trace; perturbed replays always need their own horizon.
type shapeKey struct {
	px, py, nab, nkb, iterations int
}

func shapeOf(cfg pace.Config, perturbed bool) shapeKey {
	it := cfg.Iterations
	if !perturbed && it > canonIters {
		it = canonIters
	}
	return shapeKey{cfg.Decomp.PX, cfg.Decomp.PY, cfg.AngleBlocks(), cfg.KBlocks(), it}
}

// arrays is a pool of processor arrays.
type arrays [][2]int

// hotArrays are predict_hot's small arrays (P <= 256).
var hotArrays = arrays{
	{2, 2}, {2, 4}, {4, 4}, {4, 8}, {6, 6}, {8, 8},
	{4, 16}, {10, 10}, {8, 16}, {16, 8}, {12, 12}, {16, 16},
}

// hotWarmSize is predict_hot's warm-set size: a few hundred keys, all held
// by the response cache.
const hotWarmSize = 240

// genHot: hotWarmSize distinct small configurations, spread evenly over
// hotArrays, then n uniform draws from them for the timed phase.
func genHot(rng *rand.Rand, n int) (*Plan, error) {
	p := &Plan{Workload: PredictHot, Path: "/v1/predict", Clients: 2, Period: 1}
	for _, a := range hotArrays {
		p.Shapes = append(p.Shapes, predictConfig(newPredict(a[0], a[1], 20, 20, canonIters)))
	}
	seen := make(map[serve.PredictRequest]bool, hotWarmSize)
	for len(p.Warm) < hotWarmSize {
		a := hotArrays[len(p.Warm)%len(hotArrays)]
		q := newPredict(a[0], a[1], 20+rng.Intn(41), 20+rng.Intn(41), canonIters+4*rng.Intn(3))
		if seen[q] {
			continue
		}
		seen[q] = true
		body, err := json.Marshal(&q)
		if err != nil {
			return nil, err
		}
		p.Warm = append(p.Warm, body)
		p.WarmRequests = append(p.WarmRequests, q)
	}
	p.Keys = make([]int, n)
	p.Timed = make([][]byte, n)
	for i := range p.Keys {
		k := rng.Intn(len(p.Warm))
		p.Keys[i] = k
		p.Timed[i] = p.Warm[k]
	}
	return p, nil
}

// replayClass is one class of predict_replay requests: a processor array,
// a horizon (the paper's 12 iterations, or long), and a share of the list
// in hundredths.
type replayClass struct {
	px, py int
	long   bool
	share  int
}

// replayClasses is predict_replay's fixed composition. Sorted by cost, the
// classes form latency bands; the shares put the median inside the 32x64
// 12-iteration band (ranks 41-60) and the 90th percentile inside the 32x64
// long-horizon band (ranks 81-95), away from band edges, so neither
// percentile jumps between bands from run to run.
var replayClasses = []replayClass{
	{32, 32, false, 40},
	{32, 64, false, 20},
	{32, 32, true, 15},
	{64, 64, false, 5},
	{32, 64, true, 15},
	{64, 64, true, 5},
}

// Long horizons are drawn log-uniformly from [longMin, longMax).
const (
	longMin = 100
	longMax = 10000
)

// refBudget bounds which predict_replay requests the event-backend
// reference may recompute: ranks x iterations, about 2 s of event
// simulation on a 2-core host.
const refBudget = 140000

// genReplay: n distinct configurations. The class of every position in the
// list is fixed (replayClasses, interleaved by share). The seed picks the
// per-processor cells, the order in which each long class visits its log
// strata of [longMin, longMax), the horizon within each stratum, and the
// reference sample. Fixing the schedule keeps a run's latency distribution
// and its sequence of shape switches independent of the seed, so distinct
// seeds measure the same work.
func genReplay(rng *rand.Rand, n int) (*Plan, error) {
	p := &Plan{Workload: PredictReplay, Path: "/v1/predict", Clients: 1}
	shares := make([]int, len(replayClasses))
	compiled := map[[2]int]bool{}
	for c, rc := range replayClasses {
		shares[c] = rc.share
		if a := [2]int{rc.px, rc.py}; !compiled[a] {
			compiled[a] = true
			p.Shapes = append(p.Shapes, predictConfig(newPredict(rc.px, rc.py, 50, 50, canonIters)))
		}
	}
	counts := apportion(n, shares)
	p.Period = n / gcdOf(counts)
	strata := make([][]int, len(counts))
	for c, k := range counts {
		strata[c] = rng.Perm(k)
	}
	seen := make(map[serve.PredictRequest]bool, n)
	var short, long []int
	for i, c := range interleave(counts) {
		rc := replayClasses[c]
		it := canonIters
		if rc.long {
			j, k := strata[c][0], float64(counts[c])
			strata[c] = strata[c][1:]
			lo, hi := math.Log(longMin), math.Log(longMax)
			it = int(math.Exp(lo + (hi-lo)*(float64(j)+rng.Float64())/k))
		}
		q := newPredict(rc.px, rc.py, 30+rng.Intn(41), 30+rng.Intn(41), it)
		for seen[q] {
			q = newPredict(rc.px, rc.py, 30+rng.Intn(41), 30+rng.Intn(41), it)
		}
		seen[q] = true
		body, err := json.Marshal(&q)
		if err != nil {
			return nil, err
		}
		p.Predicts = append(p.Predicts, q)
		p.Timed = append(p.Timed, body)
		if rc.px*rc.py*it <= refBudget {
			if it > canonIters {
				long = append(long, i)
			} else {
				short = append(short, i)
			}
		}
	}
	// Reference sample: two exact horizons and one extrapolated one.
	p.Sample = append(pick(rng, short, 2), pick(rng, long, 1)...)
	return p, nil
}

// gcdOf is the greatest common divisor of the non-zero counts. The smooth
// weighted round robin of counts repeats every sum(counts)/gcdOf(counts)
// entries.
func gcdOf(counts []int) int {
	g := 0
	for _, c := range counts {
		for c != 0 {
			g, c = c, g%c
		}
	}
	return max(g, 1)
}

// interleave returns a sequence holding class c exactly weights[c] times,
// spreading each class evenly (smooth weighted round robin).
func interleave(weights []int) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	cur := make([]int, len(weights))
	out := make([]int, 0, total)
	for len(out) < total {
		best := -1
		for c, w := range weights {
			cur[c] += w
			if best < 0 || cur[c] > cur[best] {
				best = c
			}
		}
		cur[best] -= total
		out = append(out, best)
	}
	return out
}

// sweepArrays are sweep_perturb's arrays in three size classes; every
// sweep takes one array of each class, so sweeps cost about the same.
var sweepArrays = [3]arrays{
	{{8, 8}, {8, 12}},
	{{12, 12}, {8, 16}},
	{{16, 12}, {16, 16}},
}

// Blocking factors every sweep crosses with its arrays.
var (
	sweepMK  = []int{baseMK, 25}
	sweepMMI = []int{baseMMI, 6}
)

// sweepSampleSize is how many sweeps the reference server recomputes.
const sweepSampleSize = 3

// genSweep: n distinct perturbed sweeps of 12 points each (3 arrays x 2 mk
// x 2 mmi) at the paper's 12 iterations. The seed picks the arrays within
// each size class, the per-processor cells and the scenario: one delay of
// 2.5-3.5 s on a rank every array has, plus uniform compute noise.
func genSweep(rng *rand.Rand, n int) (*Plan, error) {
	p := &Plan{Workload: SweepPerturb, Path: "/v1/sweep", Clients: 1, Period: 1}
	for _, class := range sweepArrays {
		for _, a := range class {
			for _, mk := range sweepMK {
				for _, mmi := range sweepMMI {
					q := newPredict(a[0], a[1], 40, 40, canonIters)
					q.MK, q.MMI = mk, mmi
					p.Shapes = append(p.Shapes, predictConfig(q))
				}
			}
		}
	}
	minRanks := sweepArrays[0][0][0] * sweepArrays[0][0][1]
	for _, a := range sweepArrays[0] {
		minRanks = min(minRanks, a[0]*a[1])
	}
	seen := make(map[string]bool, n)
	for len(p.Sweeps) < n {
		q := serve.SweepRequest{
			Platform:     platformName,
			MK:           sweepMK,
			MMI:          sweepMMI,
			CellsPerProc: &serve.GridSpec{NX: 30 + rng.Intn(31), NY: 30 + rng.Intn(31), NZ: cellsNZ},
			Angles:       angles,
			Iterations:   canonIters,
			Method:       serve.MethodTemplate,
			Scenario: &perturb.Scenario{
				Seed: rng.Int63n(1 << 31),
				Delays: []perturb.DelaySpec{{
					Rank:      rng.Intn(minRanks),
					Iteration: 1 + rng.Intn(canonIters-2),
					Seconds:   2.5 + float64(rng.Intn(1001))/1000,
				}},
				Noise: &perturb.NoiseSpec{Kind: "uniform", Frac: 0.01 + float64(rng.Intn(21))/1000},
			},
		}
		for _, class := range sweepArrays {
			a := class[rng.Intn(len(class))]
			q.Arrays = append(q.Arrays, serve.ArraySpec{PX: a[0], PY: a[1]})
		}
		body, err := json.Marshal(&q)
		if err != nil {
			return nil, err
		}
		if seen[string(body)] {
			continue
		}
		seen[string(body)] = true
		p.Sweeps = append(p.Sweeps, q)
		p.Timed = append(p.Timed, body)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	p.Sample = pick(rng, all, sweepSampleSize)
	return p, nil
}

// sweepPoints expands a generated sweep into its points' configurations in
// the server's documented order (array, then mk, then mmi).
func sweepPoints(q *serve.SweepRequest) []pace.Config {
	var out []pace.Config
	for _, a := range q.Arrays {
		for _, mk := range q.MK {
			for _, mmi := range q.MMI {
				out = append(out, pace.Config{
					Grid: grid.Global{
						NX: q.CellsPerProc.NX * a.PX, NY: q.CellsPerProc.NY * a.PY, NZ: q.CellsPerProc.NZ,
					},
					Decomp:     grid.Decomp{PX: a.PX, PY: a.PY},
					MK:         mk,
					MMI:        mmi,
					Angles:     q.Angles,
					Iterations: q.Iterations,
				})
			}
		}
	}
	return out
}

// apportion splits n into parts proportional to weights; the rounding
// remainder goes to the first part.
func apportion(n int, weights []int) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	out := make([]int, len(weights))
	rest := n
	for i := 1; i < len(weights); i++ {
		out[i] = n * weights[i] / total
		rest -= out[i]
	}
	out[0] = rest
	return out
}

// pick draws k distinct entries of from (all of them when k >= len).
func pick(rng *rand.Rand, from []int, k int) []int {
	idx := append([]int(nil), from...)
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	if k < len(idx) {
		idx = idx[:k]
	}
	return idx
}
