package pace

import (
	"sync"

	"pacesweep/internal/lru"
	"pacesweep/internal/mp"
)

// This file holds the evaluator's shared caches: the cost-kernel cache
// that prices each (angle block, k block) shape once per configuration
// shape instead of once per Predict call, and the idle trace replayers
// (see trace.go).
//
// The caches live behind a single pointer created by NewEvaluator, so the
// idiomatic shallow copies the experiment drivers make (`evBoost := *ev;
// evBoost.HW = &boosted`) share them; every cache key therefore includes
// the hardware-layer parameters that vary across such copies (achieved
// MFLOPS, the opcode-costs toggle). Evaluators built as plain struct
// literals have no shared state and simply take the uncached paths.
//
// Both caches are bounded for serving: the kernel cache is a sharded LRU
// of kernels a few KB each, and at most replayerPoolCap replayers idle.

const (
	defaultKernelCacheSize  = 4096
	defaultKernelCacheShard = 8
)

// evalShared is the cache block shared by an evaluator and its copies.
type evalShared struct {
	kernels *lru.Cache[kernelKey, *costKernel]

	mu        sync.Mutex     // guards replayers
	replayers []*mp.Replayer // idle trace replayers (see trace.go)
}

func newEvalShared() *evalShared {
	return &evalShared{
		kernels: lru.New[kernelKey, *costKernel](
			defaultKernelCacheSize, defaultKernelCacheShard, kernelKey.hash),
	}
}

// PoolStats is a point-in-time snapshot of the evaluator's shared caches,
// surfaced by the serving layer's /v1/stats.
type PoolStats struct {
	IdleReplayers int       `json:"idle_replayers"`
	Kernels       lru.Stats `json:"kernels"`
}

// PoolStats snapshots the idle replayer pool and the kernel cache
// counters. Zero-value evaluators (no shared caches) report an empty
// snapshot.
func (e *Evaluator) PoolStats() PoolStats {
	if e.shared == nil {
		return PoolStats{}
	}
	s := e.shared
	s.mu.Lock()
	idleRep := len(s.replayers)
	s.mu.Unlock()
	return PoolStats{
		IdleReplayers: idleRep,
		Kernels:       s.kernels.Stats(),
	}
}

// kernelKey is the cost-kernel cache key: the configuration shape that
// determines every block cost, plus the hardware-layer knobs that price it.
type kernelKey struct {
	nx, ny, nz int // local subgrid extents
	mk, mmi    int
	angles     int
	opcode     bool
	mflops     float64
}

// hash fingerprints the key for the kernel cache's shard selection.
func (k kernelKey) hash() uint64 {
	h := lru.NewHasher()
	h.Int(k.nx)
	h.Int(k.ny)
	h.Int(k.nz)
	h.Int(k.mk)
	h.Int(k.mmi)
	h.Int(k.angles)
	h.Bool(k.opcode)
	h.Float64(k.mflops)
	return h.Sum()
}

// costKernel holds everything Predict needs per (angle block, k block)
// step, flattened into the two parameter tables the template body indexes
// through mp's ChargeParam/SendParam (and trace replay re-prices through
// mp.ReplayParams). Hoisting these out of the rank loop removes the
// per-step flow evaluations and multiplies from the 8*nab*nkb steps every
// rank executes per iteration; keeping them as *tables* (rather than
// inlined literals) is what lets one recorded trace serve every platform
// and cost curve of the same shape.
//
// Table layout (fixed; the recorded traces depend on it):
//
//	charges[ab*nkb+kb]  compute seconds of the (ab, kb) block
//	charges[nab*nkb]    per-iteration source subtask charge
//	charges[nab*nkb+1]  per-iteration flux_err subtask charge
//	sizes[ab*nkb+kb]            east/west wire size
//	sizes[nab*nkb + ab*nkb+kb]  north/south wire size
type costKernel struct {
	nab, nkb  int
	src, ferr float64 // per-iteration serial subtask charges (also in charges)
	fullBlock float64 // Tx_work of one full (mmi, mk) block
	charges   []float64
	sizes     []int
}

// kernelFor returns the cost kernel for a configuration, computing and
// caching it on first use. Safe for concurrent Predicts. The lookup is
// Get/Put rather than GetOrBuild so the hot path stays allocation-free
// (no build closure); two racing misses both build the same deterministic
// kernel and the first insert wins.
func (e *Evaluator) kernelFor(cfg Config) (*costKernel, error) {
	if e.shared == nil {
		return e.buildKernel(cfg)
	}
	key := kernelKey{
		nx: cfg.localNX(), ny: cfg.localNY(), nz: cfg.Grid.NZ,
		mk: cfg.MK, mmi: cfg.MMI, angles: cfg.Angles,
		opcode: e.UseOpcodeCosts, mflops: e.HW.MFLOPS,
	}
	if k, ok := e.shared.kernels.Get(key); ok {
		return k, nil
	}
	k, err := e.loadOrBuildKernel(key, cfg)
	if err != nil {
		return nil, err
	}
	e.shared.kernels.Put(key, k)
	return k, nil
}

// buildKernel evaluates the subtask flows for every block shape of the
// configuration, including ragged tails.
func (e *Evaluator) buildKernel(cfg Config) (*costKernel, error) {
	src, ferr, err := e.serialCosts(cfg)
	if err != nil {
		return nil, err
	}
	fullBlock, err := e.blockCost(cfg, cfg.MMI, minInt(cfg.MK, cfg.Grid.NZ))
	if err != nil {
		return nil, err
	}
	nab, nkb := cfg.AngleBlocks(), cfg.KBlocks()
	k := &costKernel{
		nab: nab, nkb: nkb,
		src: src, ferr: ferr, fullBlock: fullBlock,
		charges: make([]float64, nab*nkb+2),
		sizes:   make([]int, 2*nab*nkb),
	}
	ny, nx := cfg.localNY(), cfg.localNX()
	for ab := 0; ab < nab; ab++ {
		na := blockLen(ab, cfg.MMI, cfg.Angles)
		for kb := 0; kb < nkb; kb++ {
			nk := blockLen(kb, cfg.MK, cfg.Grid.NZ)
			c, err := e.blockCost(cfg, na, nk)
			if err != nil {
				return nil, err
			}
			i := ab*nkb + kb
			k.charges[i] = c
			k.sizes[i] = 8 * ny * nk * na         // east/west
			k.sizes[nab*nkb+i] = 8 * nx * nk * na // north/south
		}
	}
	k.charges[nab*nkb] = src
	k.charges[nab*nkb+1] = ferr
	return k, nil
}
