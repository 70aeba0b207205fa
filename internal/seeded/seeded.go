// Package seeded provides math/rand generators that are cheap to seed.
//
// rand.New(rand.NewSource(seed)) fills math/rand's whole 607-word
// additive lagged Fibonacci state (rngSource.Seed: ~1,800 Schrage steps and
// a 5 KB allocation) before the first draw. The simulator seeds one
// generator per (agent, node) port presentation and draws only deg numbers
// from it, so seeding dominates. New returns a generator whose every output
// equals rand.New(rand.NewSource(seed))'s, but it computes the first draws
// directly from the seed:
//
//   - word i of a freshly seeded state is
//     x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i], where
//     x[k] = s·48271^k mod (2^31−1) is the seeding LCG and s the
//     normalized seed;
//   - draw k < 273 reads only original words: it is word(333−k) +
//     word(606−k), so it costs six modular multiplications against a
//     precomputed power table.
//
// On draw 273 the generator builds a real rand.NewSource(seed), discards
// the 273 draws already served and delegates from then on. math/rand's
// rngCooked table is unexported; the first New recovers it from the first
// 607 outputs of rand.NewSource(1) and checks the result against math/rand,
// so a process that never calls New pays nothing.
package seeded

import (
	"math/rand"
	"sync"
)

const (
	rngLen   = 607                 // math/rand's state length
	rngTap   = 273                 // its lag; also the number of direct draws
	feed0    = rngLen - rngTap - 1 // the feed index of draw 0 (333)
	int32max = 1<<31 - 1           // the seeding LCG's modulus
	lcgMul   = 48271               // the seeding LCG's multiplier
	lcgSkip  = 20                  // LCG steps rngSource.Seed discards
	rngMask  = 1<<63 - 1
)

var (
	tablesOnce sync.Once
	// pow[k] = 48271^k mod (2^31−1) for every LCG index a word reads.
	pow [lcgSkip + 1 + 3*rngLen]uint64
	// cooked is math/rand's rngCooked, recovered by the first New.
	cooked [rngLen]int64
	// direct reports whether the recovered table reproduces math/rand;
	// when it does not, New returns math/rand's own generator.
	direct bool
)

// initTables fills pow and cooked and decides direct (~70 µs, once).
func initTables() {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * lcgMul % int32max
	}
	recoverCooked()
	direct = matchesMathRand(-7919, rngTap+2)
}

// New returns a generator whose outputs equal those of
// rand.New(rand.NewSource(seed)) for every seed and every method, including
// re-seeding through Rand.Seed. Like math/rand's, it is not safe for
// concurrent use.
func New(seed int64) *rand.Rand {
	tablesOnce.Do(initTables)
	if !direct {
		return rand.New(rand.NewSource(seed))
	}
	g := &generator{}
	g.src.Seed(seed)
	g.r = *rand.New(&g.src)
	return &g.r
}

// generator holds a Rand and its source in one allocation.
type generator struct {
	r   rand.Rand
	src source
}

// source is a rand.Source64 that serves the first rngTap draws from the
// seed alone and then delegates to a real math/rand source.
type source struct {
	seed  int64
	s     uint64 // the normalized seed, in [1, 2^31−2]
	draws int    // draws served directly so far
	inner rand.Source64
}

// Seed resets the source exactly as rngSource.Seed would.
func (src *source) Seed(seed int64) {
	s := seed % int32max
	if s < 0 {
		s += int32max
	}
	if s == 0 {
		s = 89482311
	}
	*src = source{seed: seed, s: uint64(s)}
}

// Int63 returns a non-negative 63-bit integer, as rngSource.Int63 does.
func (src *source) Int63() int64 { return int64(src.Uint64() & rngMask) }

// Uint64 returns the next output of math/rand's sequence for the seed.
func (src *source) Uint64() uint64 {
	if src.inner != nil {
		return src.inner.Uint64()
	}
	k := src.draws
	if k == rngTap {
		src.inner = rand.NewSource(src.seed).(rand.Source64)
		for i := 0; i < rngTap; i++ {
			src.inner.Uint64()
		}
		return src.inner.Uint64()
	}
	src.draws++
	return uint64(src.word(feed0-k) + src.word(rngLen-1-k))
}

// word returns word i of the freshly seeded state.
func (src *source) word(i int) int64 {
	return src.seedBits(i) ^ cooked[i]
}

// seedBits returns the LCG part of word i: word i without rngCooked[i].
func (src *source) seedBits(i int) int64 {
	k := lcgSkip + 1 + 3*i
	a := src.s * pow[k] % int32max
	b := src.s * pow[k+1] % int32max
	c := src.s * pow[k+2] % int32max
	return int64(a<<40 ^ b<<20 ^ c)
}

// recoverCooked solves for rngCooked from the first rngLen outputs of
// rand.NewSource(1). Replaying the generator's feed/tap walk symbolically,
// every output is the wrapping sum of two state cells, each either an
// original word (unknown) or a value already observed; the write-back makes
// the feed cell observed. The rngLen equations determine the rngLen
// original words, and each pass of the propagation below solves every
// equation left with one unknown.
func recoverCooked() {
	r := rand.NewSource(1).(rand.Source64)
	type cell struct {
		orig int // original word index, or -1 once the cell holds an output
		val  int64
	}
	type equation struct {
		sum       int64
		feed, tap cell
	}
	var vec [rngLen]cell
	for i := range vec {
		vec[i] = cell{orig: i}
	}
	eqs := make([]equation, rngLen)
	tap, feed := 0, rngLen-rngTap
	for k := range eqs {
		if tap--; tap < 0 {
			tap += rngLen
		}
		if feed--; feed < 0 {
			feed += rngLen
		}
		out := int64(r.Uint64())
		eqs[k] = equation{sum: out, feed: vec[feed], tap: vec[tap]}
		vec[feed] = cell{orig: -1, val: out}
	}

	var words [rngLen]int64
	var known [rngLen]bool
	value := func(c cell) (int64, bool) {
		if c.orig < 0 {
			return c.val, true
		}
		return words[c.orig], known[c.orig]
	}
	for progress := true; progress; {
		progress = false
		for _, eq := range eqs {
			fv, fok := value(eq.feed)
			tv, tok := value(eq.tap)
			switch {
			case fok && !tok:
				words[eq.tap.orig], known[eq.tap.orig] = eq.sum-fv, true
				progress = true
			case tok && !fok:
				words[eq.feed.orig], known[eq.feed.orig] = eq.sum-tv, true
				progress = true
			}
		}
	}
	one := source{s: 1}
	for i := range cooked {
		cooked[i] = words[i] ^ one.seedBits(i)
	}
}

// matchesMathRand reports whether the direct draws for seed, plus the
// handover to the delegated source, reproduce rand.NewSource(seed)'s first n
// outputs.
func matchesMathRand(seed int64, n int) bool {
	want := rand.NewSource(seed).(rand.Source64)
	got := &source{}
	got.Seed(seed)
	for i := 0; i < n; i++ {
		if got.Uint64() != want.Uint64() {
			return false
		}
	}
	return true
}
