package simtime

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// rngTestSeeds returns the seeds the source is checked on: the edge
// cases of Seed's reduction modulo 2³¹−1 (zero, negatives, multiples of
// the modulus and their neighbours, the int64 extremes) plus 1000 seeds
// spread over the whole int64 range.
func rngTestSeeds() []int64 {
	const m = int32max
	seeds := []int64{
		0, 1, -1, 2, -2, 89482311, -89482311,
		m, -m, 2 * m, -2 * m, 3 * m, m - 1, m + 1, -m - 1, -m + 1,
		m * m, -m * m, 1 << 31, -(1 << 31), 1 << 62, -(1 << 62),
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		math.MaxInt32, math.MinInt32,
	}
	r := rand.New(rand.NewSource(20200629))
	for i := 0; i < 1000; i++ {
		v := int64(r.Uint64())
		if i%4 == 0 {
			v = int64(i) * 7919 // small seeds, the trials' own range
		}
		seeds = append(seeds, v)
	}
	return seeds
}

// newSource returns a source seeded as rand.NewSource(seed) is.
func newSource(seed int64) *rngSource {
	var rng rngSource
	rng.Seed(seed)
	return &rng
}

// TestRngSourceMatchesStdlib pins the in-package source to math/rand's:
// the division-free seeding must reach the same state, so the first 2000
// Int63 draws agree for every test seed.
func TestRngSourceMatchesStdlib(t *testing.T) {
	for _, seed := range rngTestSeeds() {
		got, want := newSource(seed), rand.NewSource(seed)
		for i := 0; i < 2000; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 = %d, math/rand gives %d", seed, i, g, w)
			}
		}
	}
}

// TestSeedrandMatchesSchrage checks the Mersenne reduction against
// Schrage's method, as math/rand computes it, over the whole
// multiplier cycle's edges and a spread of interior states.
func TestSeedrandMatchesSchrage(t *testing.T) {
	schrage := func(x int32) int32 {
		const a, q, r = 48271, 44488, 3399
		hi, lo := x/q, x%q
		x = a*lo - r*hi
		if x < 0 {
			x += int32max
		}
		return x
	}
	check := func(x int32) {
		if g, w := seedrand(x), schrage(x); g != w {
			t.Fatalf("seedrand(%d) = %d, Schrage gives %d", x, g, w)
		}
	}
	for x := int32(1); x < 1<<16; x++ {
		check(x)
		check(int32max - x)
	}
	for x := int32(1); x > 0 && x < int32max; x += 104729 {
		check(x)
	}
}

// TestRandMatchesStdlibDraws compares every draw Rand exposes against the
// same computation on rand.New(rand.NewSource(seed)), including a forked
// child stream, so the derived distributions stay stdlib code fed by an
// identical stream.
func TestRandMatchesStdlibDraws(t *testing.T) {
	for _, seed := range rngTestSeeds() {
		got := NewRand(seed)
		ref := rand.New(rand.NewSource(seed))
		for round := 0; round < 4; round++ {
			if g, w := got.Float64(), ref.Float64(); g != w {
				t.Fatalf("seed %d: Float64 = %v, want %v", seed, g, w)
			}
			if g, w := got.Intn(1000), ref.Intn(1000); g != w {
				t.Fatalf("seed %d: Intn = %d, want %d", seed, g, w)
			}
			if g, w := got.Int63(), ref.Int63(); g != w {
				t.Fatalf("seed %d: Int63 = %d, want %d", seed, g, w)
			}
			g, w := got.Perm(8), ref.Perm(8)
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("seed %d: Perm = %v, want %v", seed, g, w)
				}
			}
			if g, w := got.Bool(0.3), ref.Float64() < 0.3; g != w {
				t.Fatalf("seed %d: Bool = %v, want %v", seed, g, w)
			}
			lo, hi := time.Millisecond, 9*time.Millisecond
			if g, w := got.Uniform(lo, hi), lo+time.Duration(ref.Int63n(int64(hi-lo)+1)); g != w {
				t.Fatalf("seed %d: Uniform = %v, want %v", seed, g, w)
			}
			mean := 5 * time.Millisecond
			if g, w := got.Exponential(mean), min(time.Duration(float64(mean)*ref.ExpFloat64()), 20*mean); g != w {
				t.Fatalf("seed %d: Exponential = %v, want %v", seed, g, w)
			}
			if g, w := got.LogNormal(mean, 0.5), min(time.Duration(float64(mean)*math.Exp(0.5*ref.NormFloat64())), 50*mean); g != w {
				t.Fatalf("seed %d: LogNormal = %v, want %v", seed, g, w)
			}
		}
		child, refChild := got.Fork(), rand.New(rand.NewSource(ref.Int63()))
		for i := 0; i < 16; i++ {
			if g, w := child.Int63(), refChild.Int63(); g != w {
				t.Fatalf("seed %d: forked draw %d = %d, want %d", seed, i, g, w)
			}
		}
	}
}

// TestRngSourceDrawBoundaries starts a fresh source at each point
// where the on-demand register changes hands (the last computed draw,
// the fill, the first wrap of tap and feed) and checks that the next 16
// draws still match math/rand's.
func TestRngSourceDrawBoundaries(t *testing.T) {
	for _, seed := range rngTestSeeds() {
		for _, skip := range []int{0, 1, 272, 273, 274, 334, 335, 606, 607, 608} {
			got, want := newSource(seed), rand.NewSource(seed).(rand.Source64)
			for i := 0; i < skip; i++ {
				got.Uint64()
				want.Uint64()
			}
			for i := 0; i < 16; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d, after %d draws: draw %d = %d, math/rand gives %d", seed, skip, i, g, w)
				}
			}
		}
	}
}

// TestRandRegisterBuiltOnDemand pins the memory the on-demand register
// saves: a fork drawn up to rngTap times makes NewRand's one
// allocation and nothing else, and draw rngTap+1 adds exactly one, the
// register itself.
func TestRandRegisterBuiltOnDemand(t *testing.T) {
	draw := func(n int) func() {
		return func() {
			r := NewRand(42)
			for i := 0; i < n; i++ {
				r.Int63()
			}
			randSink = r
		}
	}
	if a := testing.AllocsPerRun(100, draw(rngTap)); a != 1 {
		t.Fatalf("NewRand + %d draws allocates %.0f times, want 1", rngTap, a)
	}
	if a := testing.AllocsPerRun(100, draw(rngTap+1)); a != 2 {
		t.Fatalf("NewRand + %d draws allocates %.0f times, want 2", rngTap+1, a)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		draw(rngTap)()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 8*rngLen {
		t.Fatalf("NewRand + %d draws allocates %d bytes, want less than one %d-byte register", rngTap, per, 8*rngLen)
	}
}

// randSink keeps benchmark and test results live so the compiler
// cannot elide the NewRand call under measurement.
var randSink *Rand

// BenchmarkNewRand measures forking a generator: every trial forks one
// per component, and the N=1000 fleet forks about 8000.
func BenchmarkNewRand(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		randSink = NewRand(int64(i))
	}
}

// BenchmarkRandFirstDraws measures a fork together with the 64 draws a
// fleet flow's p90 component takes, since the on-demand register moves
// seeding cost from NewRand into the first draws.
func BenchmarkRandFirstDraws(b *testing.B) {
	b.ReportAllocs()
	var sum float64
	for i := 0; i < b.N; i++ {
		r := NewRand(int64(i))
		for j := 0; j < 64; j++ {
			sum += r.Float64()
		}
		randSink = r
	}
	floatSink = sum
}

var floatSink float64
