package mp

import (
	"math"
	"math/rand"
	"testing"
)

// rankSourceDraws is how many draws each seed is checked for: past two
// wraps of the 607-word state.
const rankSourceDraws = 1300

// sameDraws compares a *rand.Rand over a rankSource with one over
// rand.NewSource, through every method the noise and net models call plus
// the raw source methods, rankSourceDraws calls in all.
func sameDraws(t *testing.T, got, want *rand.Rand, seed int64) {
	t.Helper()
	for i := 0; i < rankSourceDraws; i++ {
		var g, w uint64
		switch i % 6 {
		case 0:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 1:
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		case 2:
			g, w = math.Float64bits(got.ExpFloat64()), math.Float64bits(want.ExpFloat64())
		case 3:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case 4:
			g, w = got.Uint64(), want.Uint64()
		case 5:
			n := 1 + i*7919
			g, w = uint64(got.Intn(n)), uint64(want.Intn(n))
		}
		if g != w {
			t.Fatalf("seed %d: draw %d (method %d): got %#x, want %#x", seed, i, i%6, g, w)
		}
	}
}

// TestRankSourceMatchesMathRand holds rankSource to math/rand's source:
// edge seeds, generated seeds, the replayer's per-rank and collective seed
// derivations, fresh and reseeded in place. It also pins rngCooked, which
// is derived at init rather than copied.
func TestRankSourceMatchesMathRand(t *testing.T) {
	const m = int32max
	seeds := []int64{
		0, 1, -1, m, -m, m - 1, -(m - 1), m + 1, 2 * m, -2 * m, 3 * m, -5 * m,
		m * (math.MaxInt64 / m), -m * (math.MaxInt64 / m),
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 89482311, -89482311,
	}
	gen := rand.New(rand.NewSource(20061019))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(gen.Uint64()), gen.Int63n(1<<32)-1<<31)
	}
	for _, base := range []int64{42, 7, -3} {
		seeds = append(seeds, base^0x1F3D5B79)
		for r := 0; r < 8192; r++ {
			if base == 42 || r < 64 {
				seeds = append(seeds, base+int64(r)*0x9E3779B9)
			}
		}
	}
	var reused rankStream
	for _, seed := range seeds {
		sameDraws(t, new(rankStream).seed(seed), rand.New(rand.NewSource(seed)), seed)
		// A used stream reseeded in place equals a fresh one.
		sameDraws(t, reused.seed(seed), rand.New(rand.NewSource(seed)), seed)
	}
}

// FuzzRankSource requires the first rankSourceDraws outputs of a rankSource
// to equal rand.NewSource's for any seed.
func FuzzRankSource(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		var got rankSource
		got.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < rankSourceDraws; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: output %d: got %#x, want %#x", seed, i, g, w)
			}
		}
	})
}

// BenchmarkRankSeed reseeds one stream per op: math/rand's source against
// rankSource. Neither allocates.
func BenchmarkRankSeed(b *testing.B) {
	for _, bc := range []struct {
		name string
		rng  *rand.Rand
	}{
		{"src=math", rand.New(rand.NewSource(1))},
		{"src=rank", new(rankStream).seed(1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.rng.Seed(int64(i) * 0x9E3779B9)
			}
		})
	}
}
