package seeded

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// edgeSeeds are the seeds where rngSource.Seed's normalization branches:
// zero (replaced by 89482311), negatives (shifted by 2^31−1), multiples of
// 2^31−1 (normalized to zero), and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, -2,
	int32max, -int32max, int32max - 1, -(int32max - 1), int32max + 1, -(int32max + 1),
	2 * int32max, -2 * int32max, 89482311, -89482311,
	math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64,
	math.MaxInt64 - 1, math.MinInt64 + 1,
	(math.MaxInt64 / int32max) * int32max,
}

// testSeeds returns the edge seeds plus n pseudo-random ones.
func testSeeds(n int) []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	g := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(g.Uint64()))
	}
	return seeds
}

func pair(seed int64) (got, want *rand.Rand) {
	return New(seed), rand.New(rand.NewSource(seed))
}

func TestDirectPathActive(t *testing.T) {
	New(0)
	if !direct {
		t.Fatal("recovered rngCooked does not reproduce math/rand: New falls back to rand.NewSource")
	}
}

// TestUint64Stream covers the direct draws, the handover at draws
// 272/273/274 (each mismatch reports its draw index) and well past it.
func TestUint64Stream(t *testing.T) {
	for _, seed := range testSeeds(200) {
		got, want := pair(seed)
		for i := 0; i < 2*rngLen; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, math/rand %#x", seed, i, g, w)
			}
		}
	}
}

// TestMethodStreams interleaves every Rand method the simulator uses, so
// both Int63- and Uint64-driven paths cross the handover.
func TestMethodStreams(t *testing.T) {
	for _, seed := range testSeeds(100) {
		got, want := pair(seed)
		for i := 0; i < 120; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d step %d: Int63 %d != %d", seed, i, g, w)
			}
			// 16 takes Int31n's power-of-two path, 7 its rejection loop;
			// 1<<40+3 takes Int63n's rejection loop.
			if g, w := got.Int31n(16), want.Int31n(16); g != w {
				t.Fatalf("seed %d step %d: Int31n(16) %d != %d", seed, i, g, w)
			}
			if g, w := got.Intn(7), want.Intn(7); g != w {
				t.Fatalf("seed %d step %d: Intn(7) %d != %d", seed, i, g, w)
			}
			if g, w := got.Int63n(1<<40+3), want.Int63n(1<<40+3); g != w {
				t.Fatalf("seed %d step %d: Int63n %d != %d", seed, i, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d step %d: Float64 %v != %v", seed, i, g, w)
			}
		}
	}
}

func TestPerm(t *testing.T) {
	for _, seed := range testSeeds(300) {
		for n := 0; n <= 64; n++ {
			g, w := New(seed).Perm(n), rand.New(rand.NewSource(seed)).Perm(n)
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d: Perm(%d) = %v, math/rand %v", seed, n, g, w)
			}
		}
	}
}

func TestShuffle(t *testing.T) {
	for _, seed := range testSeeds(100) {
		for _, n := range []int{0, 1, 5, 100, 400} {
			g, w := make([]int, n), make([]int, n)
			for i := range g {
				g[i], w[i] = i, i
			}
			New(seed).Shuffle(n, func(i, j int) { g[i], g[j] = g[j], g[i] })
			rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { w[i], w[j] = w[j], w[i] })
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d: Shuffle(%d) differs from math/rand", seed, n)
			}
		}
	}
}

// TestReseed re-seeds mid-stream, both before and after the handover.
func TestReseed(t *testing.T) {
	for _, seed := range testSeeds(30) {
		for _, drawn := range []int{0, 5, rngTap, rngTap + 10} {
			got, want := pair(seed)
			for i := 0; i < drawn; i++ {
				got.Uint64()
				want.Uint64()
			}
			next := seed ^ 0x5eed
			got.Seed(next)
			want.Seed(next)
			for i := 0; i < rngTap+5; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d reseeded %d after %d draws, draw %d: %#x != %#x",
						seed, next, drawn, i, g, w)
				}
			}
		}
	}
}

func FuzzSeededMatchesMathRand(f *testing.F) {
	for _, s := range edgeSeeds {
		f.Add(s, uint16(rngTap+2))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		n := int(draws % 2048)
		got, want := pair(seed)
		for i := 0; i < n; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: %#x != %#x", seed, i, g, w)
			}
		}
		if g, w := got.Perm(9), want.Perm(9); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: Perm after %d draws: %v != %v", seed, n, g, w)
		}
	})
}

var sink []int

// BenchmarkNew measures what a port presentation costs: seed a generator
// and draw a Perm(4); BenchmarkMathRandNew is the same with math/rand.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = New(int64(i)).Perm(4)
	}
}

func BenchmarkMathRandNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = rand.New(rand.NewSource(int64(i))).Perm(4)
	}
}
