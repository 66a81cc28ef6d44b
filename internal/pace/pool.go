package pace

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"pacesweep/internal/lru"
	"pacesweep/internal/mp"
)

// This file holds the evaluator's shared caches: the pooled mp worlds that
// make Predict cheap enough to serve as a query, and the cost-kernel cache
// that prices each (angle block, k block) shape once per configuration
// shape instead of once per Predict call.
//
// The caches live behind a single pointer created by NewEvaluator, so the
// idiomatic shallow copies the experiment drivers make (`evBoost := *ev;
// evBoost.HW = &boosted`) share them; every cache key therefore includes
// the hardware-layer parameters that vary across such copies (achieved
// MFLOPS, the opcode-costs toggle). Evaluators built as plain struct
// literals have no shared state and simply take the uncached paths.
//
// Both caches are bounded for serving: the kernel cache is a sharded LRU,
// and the world pool keeps at most worldCap idle worlds, evicting the
// least recently released one beyond that — a long-tailed sweep over many
// array sizes warms and drops worlds instead of pinning one per size
// forever.

// Default pool bounds. A pooled 8000-rank world holds tens of MB of rank
// state, so the idle-world cap is deliberately small; kernels are a few KB
// each.
const (
	DefaultWorldPoolCap     = 32
	defaultKernelCacheSize  = 4096
	defaultKernelCacheShard = 8
)

// evalShared is the cache block shared by an evaluator and its copies.
type evalShared struct {
	kernels *lru.Cache[kernelKey, *costKernel]

	mu          sync.Mutex // guards worlds, replayers, the idle list and worldCap
	worlds      map[worldKey][]*pooledWorld
	replayers   []*mp.Replayer // idle trace replayers (see trace.go)
	idleHead    *pooledWorld   // least recently released (eviction victim)
	idleTail    *pooledWorld   // most recently released
	idleCount   int
	worldCap    int // max idle worlds retained; 0 = unbounded
	worldEvicts atomic.Uint64
}

func newEvalShared() *evalShared {
	return &evalShared{
		kernels: lru.New[kernelKey, *costKernel](
			defaultKernelCacheSize, defaultKernelCacheShard, kernelKey.hash),
		worlds:   make(map[worldKey][]*pooledWorld),
		worldCap: DefaultWorldPoolCap,
	}
}

// SetWorldPoolCap bounds the number of idle pooled worlds this evaluator
// (and every shallow copy sharing its caches) retains; 0 removes the
// bound. Shrinking the cap evicts immediately.
func (e *Evaluator) SetWorldPoolCap(n int) {
	if e.shared == nil {
		return
	}
	s := e.shared
	s.mu.Lock()
	s.worldCap = n
	evicted := s.evictIdleLocked()
	s.mu.Unlock()
	if evicted > 0 {
		s.worldEvicts.Add(uint64(evicted))
	}
}

// PoolStats is a point-in-time snapshot of the evaluator's shared caches,
// surfaced by the serving layer's /v1/stats.
type PoolStats struct {
	IdleWorlds     int       `json:"idle_worlds"`
	IdleReplayers  int       `json:"idle_replayers"`
	WorldEvictions uint64    `json:"world_evictions"`
	Kernels        lru.Stats `json:"kernels"`
}

// PoolStats snapshots the shared world pool, replayer pool and kernel
// cache counters. Zero-value evaluators (no shared caches) report an
// empty snapshot.
func (e *Evaluator) PoolStats() PoolStats {
	if e.shared == nil {
		return PoolStats{}
	}
	s := e.shared
	s.mu.Lock()
	idle := s.idleCount
	idleRep := len(s.replayers)
	s.mu.Unlock()
	return PoolStats{
		IdleWorlds:     idle,
		IdleReplayers:  idleRep,
		WorldEvictions: s.worldEvicts.Load(),
		Kernels:        s.kernels.Stats(),
	}
}

// worldKey identifies a pool of interchangeable worlds: template
// evaluation worlds are distinguished only by rank count (the cost model is
// swapped in through the netProxy at acquire time).
type worldKey struct {
	n int
}

// pooledWorld is one reusable world plus the indirection that lets each
// acquisition point it at the borrowing evaluator's fitted curves. While
// idle it is linked into the shared recency list (prev = released earlier,
// next = released later).
type pooledWorld struct {
	w   *mp.World
	net *netProxy

	key        worldKey
	prev, next *pooledWorld
}

// netProxy is a swappable indirection over the evaluator's fitted network
// model, letting one world serve evaluators whose hardware layers differ
// (e.g. the +25%/+50% rate-boost copies in the scaling studies).
type netProxy struct {
	target mp.NetworkModel
}

func (p *netProxy) SendOverhead(bytes int, rng *rand.Rand) float64 {
	return p.target.SendOverhead(bytes, rng)
}
func (p *netProxy) RecvOverhead(bytes int, rng *rand.Rand) float64 {
	return p.target.RecvOverhead(bytes, rng)
}
func (p *netProxy) Transit(bytes int, rng *rand.Rand) float64 {
	return p.target.Transit(bytes, rng)
}
func (p *netProxy) ReduceCost(pn, bytes int, rng *rand.Rand) float64 {
	return p.target.ReduceCost(pn, bytes, rng)
}

// CostsDeterministic delegates to the current target; mp re-reads it on
// every World.Reset, so the per-size memo fast path follows the target.
func (p *netProxy) CostsDeterministic() bool {
	if dc, ok := p.target.(mp.DeterministicCosts); ok {
		return dc.CostsDeterministic()
	}
	return false
}

// The class-model surface delegates to the target when it prices per
// (src, dst) cost class, so a pooled world serves hierarchical evaluators
// too. mp re-reads NetClasses on every World.Reset (like the determinism
// flag), so a proxy retargeted from a flat to a hierarchical model — or
// back — flips the world's pricing path with it. A flat target reports a
// single class, which keeps mp's class-free fast paths.
func (p *netProxy) NetClasses() int {
	if cn, ok := p.target.(mp.ClassNetworkModel); ok {
		return cn.NetClasses()
	}
	return 1
}

func (p *netProxy) ClassOf(src, dst int) int {
	if cn, ok := p.target.(mp.ClassNetworkModel); ok {
		return cn.ClassOf(src, dst)
	}
	return 0
}

func (p *netProxy) SendOverheadClass(class, bytes int, rng *rand.Rand) float64 {
	if cn, ok := p.target.(mp.ClassNetworkModel); ok {
		return cn.SendOverheadClass(class, bytes, rng)
	}
	return p.target.SendOverhead(bytes, rng)
}

func (p *netProxy) RecvOverheadClass(class, bytes int, rng *rand.Rand) float64 {
	if cn, ok := p.target.(mp.ClassNetworkModel); ok {
		return cn.RecvOverheadClass(class, bytes, rng)
	}
	return p.target.RecvOverhead(bytes, rng)
}

func (p *netProxy) TransitClass(class, bytes int, rng *rand.Rand) float64 {
	if cn, ok := p.target.(mp.ClassNetworkModel); ok {
		return cn.TransitClass(class, bytes, rng)
	}
	return p.target.Transit(bytes, rng)
}

// --- idle-list upkeep (callers hold s.mu) ---

func (s *evalShared) idleUnlink(pw *pooledWorld) {
	if pw.prev != nil {
		pw.prev.next = pw.next
	} else {
		s.idleHead = pw.next
	}
	if pw.next != nil {
		pw.next.prev = pw.prev
	} else {
		s.idleTail = pw.prev
	}
	pw.prev, pw.next = nil, nil
	s.idleCount--
}

func (s *evalShared) idleAppend(pw *pooledWorld) {
	pw.prev, pw.next = s.idleTail, nil
	if s.idleTail != nil {
		s.idleTail.next = pw
	}
	s.idleTail = pw
	if s.idleHead == nil {
		s.idleHead = pw
	}
	s.idleCount++
}

// evictIdleLocked drops least-recently-released worlds until the idle pool
// is within worldCap, returning how many were dropped. The victim is also
// removed from its per-key free slice; the world itself is simply released
// to the GC.
func (s *evalShared) evictIdleLocked() int {
	if s.worldCap <= 0 {
		return 0
	}
	n := 0
	for s.idleCount > s.worldCap && s.idleHead != nil {
		victim := s.idleHead
		s.idleUnlink(victim)
		free := s.worlds[victim.key]
		for i, pw := range free {
			if pw == victim {
				free[i] = free[len(free)-1]
				free[len(free)-1] = nil
				free = free[:len(free)-1]
				break
			}
		}
		if len(free) == 0 {
			// Prune emptied keys: a long-tailed sweep must not leave one
			// map entry (and retained backing array) per size ever seen.
			delete(s.worlds, victim.key)
		} else {
			s.worlds[victim.key] = free
		}
		n++
	}
	return n
}

// acquireWorld returns a world of n ranks wired to this evaluator's
// hardware model, plus a release function that parks it for reuse. Worlds
// are pooled per size: a released world keeps its rank records, stream
// buffers and heap storage, so the next Predict of the same array size
// pays no construction cost and no steady-state allocations. Without
// shared caches (zero-value Evaluator) it falls back to a fresh world.
func (e *Evaluator) acquireWorld(n int) (*mp.World, func(), error) {
	if e.shared == nil {
		w, err := mp.NewWorld(n, mp.Options{Net: e.HW.Net()})
		return w, func() {}, err
	}
	key := worldKey{n: n}
	s := e.shared
	s.mu.Lock()
	var pw *pooledWorld
	if free := s.worlds[key]; len(free) > 0 {
		pw = free[len(free)-1]
		free[len(free)-1] = nil
		s.worlds[key] = free[:len(free)-1]
		s.idleUnlink(pw)
	}
	s.mu.Unlock()
	if pw == nil {
		proxy := &netProxy{target: e.HW.Net()}
		w, err := mp.NewWorld(n, mp.Options{Net: proxy})
		if err != nil {
			return nil, nil, err
		}
		pw = &pooledWorld{w: w, net: proxy, key: key}
	} else {
		pw.net.target = e.HW.Net()
		pw.w.Reset()
	}
	release := func() {
		pw.net.target = nil      // don't pin the borrowing evaluator's model
		pw.w.SetParams(nil, nil) // nor the borrowing kernel's tables
		s.mu.Lock()
		s.worlds[key] = append(s.worlds[key], pw)
		s.idleAppend(pw)
		evicted := s.evictIdleLocked()
		s.mu.Unlock()
		if evicted > 0 {
			s.worldEvicts.Add(uint64(evicted))
		}
	}
	return pw.w, release, nil
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
