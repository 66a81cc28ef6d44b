package mp

import "math/rand"

// rankSource is math/rand's additive lagged-Fibonacci source (the one
// rand.NewSource returns) with a closed-form Seed. Its state layout,
// Uint64 and Int63 are the standard library's, so a *rand.Rand over it
// draws exactly what one over rand.NewSource(seed) draws. The trace
// replayer seeds a rank stream per rank per replay; the event backend keeps
// rand.NewSource, so every noisy trace-vs-event equivalence test also
// checks this source against the standard library.
//
// The standard Seed runs 1,841 dependent Park–Miller steps,
// x_{k+1} = 48271·x_k mod (2^31−1). Here x_k = x_0·48271^k mod (2^31−1)
// from a power table, so the 1,821 values the state needs are independent
// multiplies.
type rankSource struct {
	tap, feed int
	vec       [rngLen]int64
}

// The standard source's constants (math/rand/rng.go).
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// seedSteps is the Park–Miller steps the standard Seed takes: 20 to
	// warm up, then three per state word.
	seedSteps = 20 + 3*rngLen
)

var (
	// seedPow[k] = 48271^k mod (2^31−1).
	seedPow [seedSteps + 1]uint64
	// rngCooked is the standard source's table of the same name: what its
	// Seed XORs into the Park–Miller words. It is derived from the
	// standard source's own outputs (see deriveCooked), not copied.
	rngCooked [rngLen]int64
)

func init() {
	seedPow[0] = 1
	for k := 1; k < len(seedPow); k++ {
		seedPow[k] = mulMod31(seedPow[k-1], 48271)
	}
	rngCooked = deriveCooked()
}

// mulMod31 returns a·b mod (2^31−1) for a, b < 2^31.
func mulMod31(a, b uint64) uint64 {
	v := a * b
	v = v&int32max + v>>31
	if v >= int32max {
		v -= int32max
	}
	return v
}

// seedState fills vec with the standard Seed's state for seed, with cooked
// in place of rngCooked.
func seedState(vec *[rngLen]int64, seed int64, cooked *[rngLen]int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	p := seedPow[21:]
	for i := range vec {
		q := p[3*i : 3*i+3 : 3*i+3]
		u := int64(mulMod31(x, q[0])) << 40
		u ^= int64(mulMod31(x, q[1])) << 20
		u ^= int64(mulMod31(x, q[2]))
		vec[i] = u ^ cooked[i]
	}
}

// deriveCooked recovers rngCooked from the standard source's first rngLen
// outputs for seed 1. Output k (1-based) adds the tap word into the feed word
// at 334−k (mod rngLen) and returns the sum; the tap word is an earlier
// output o_{k−273} once k > 273. Inverting that gives the seeded state V,
// and V is the Park–Miller words XOR rngCooked.
func deriveCooked() [rngLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var o [rngLen + 1]int64 // o[k] is output k
	for k := 1; k <= rngLen; k++ {
		o[k] = int64(src.Uint64())
	}
	const feed0 = rngLen - rngTap // 334
	var v [rngLen]int64
	for k := rngTap + 1; k <= feed0; k++ {
		v[feed0-k] = o[k] - o[k-rngTap]
	}
	for k := feed0 + 1; k <= rngLen; k++ {
		v[feed0+rngLen-k] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[feed0-k] = o[k] - v[rngLen-k]
	}
	var part, zero [rngLen]int64
	seedState(&part, seed, &zero)
	for i := range v {
		v[i] ^= part[i]
	}
	return v
}

// Seed sets the state the standard source's Seed(seed) sets.
func (s *rankSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seedState(&s.vec, seed, &rngCooked)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *rankSource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *rankSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// rankStream is a rand.Rand over a rankSource in one value, so a replay
// allocates every rank's noise stream in one slab.
type rankStream struct {
	src rankSource
	rng rand.Rand
}

// seed reseeds the stream to seed and returns it; its draws are then
// rand.New(rand.NewSource(seed))'s.
func (s *rankStream) seed(seed int64) *rand.Rand {
	s.src.Seed(seed)
	s.rng = *rand.New(&s.src)
	return &s.rng
}
