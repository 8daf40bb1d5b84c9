package simtime

import (
	"math"
	"math/rand"
	"time"
)

// Rand is a seeded source of the random quantities a trial needs: service
// times, natural jitter, loss coin-flips, permutations. It wraps math/rand
// so that every trial's randomness flows from one explicit seed.
//
// The source is this package's copy of math/rand's generator (rng.go),
// held inside Rand together with the math/rand.Rand that reads it, so a
// fork costs one allocation (a Rand is therefore used only by pointer,
// never copied). Its seeding skips the divisions that dominate
// rand.NewSource, and it builds its 4.9 KB
// register only if the stream outlives its first 273 draws, which most
// of a fleet's per-flow forks never do. Every draw is bit-identical to
// rand.New(rand.NewSource(seed)).
type Rand struct {
	src rngSource
	rng rand.Rand
}

// NewRand returns a deterministic generator for the given seed.
func NewRand(seed int64) *Rand {
	r := &Rand{}
	r.src.Seed(seed)
	r.rng = *rand.New(&r.src)
	return r
}

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 { return r.rng.Float64() }

// Intn returns a uniform value in [0,n). n must be > 0.
func (r *Rand) Intn(n int) int { return r.rng.Intn(n) }

// Int63 returns a non-negative uniform 63-bit value.
func (r *Rand) Int63() int64 { return r.rng.Int63() }

// Perm returns a uniform random permutation of [0,n).
func (r *Rand) Perm(n int) []int { return r.rng.Perm(n) }

// Bool returns true with probability p (clamped to [0,1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.rng.Float64() < p
}

// Uniform returns a duration uniform in [lo, hi]. If hi ≤ lo it returns lo.
func (r *Rand) Uniform(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(r.rng.Int63n(int64(hi-lo)+1))
}

// Exponential returns an exponentially distributed duration with the given
// mean, truncated at 20× the mean to keep event horizons bounded.
func (r *Rand) Exponential(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	d := time.Duration(float64(mean) * r.rng.ExpFloat64())
	if max := 20 * mean; d > max {
		d = max
	}
	return d
}

// LogNormal returns a log-normally distributed duration with the given
// median and sigma (shape parameter of the underlying normal). Service
// times in the server model use this: mostly tight, occasionally long.
func (r *Rand) LogNormal(median time.Duration, sigma float64) time.Duration {
	if median <= 0 {
		return 0
	}
	d := time.Duration(float64(median) * math.Exp(sigma*r.rng.NormFloat64()))
	if max := 50 * median; d > max {
		d = max
	}
	return d
}

// Fork derives an independent generator from this one. Components that
// consume randomness at data-dependent rates should each own a fork so one
// component's draws do not perturb another's sequence.
func (r *Rand) Fork() *Rand {
	return NewRand(r.rng.Int63())
}
