// Package rng provides deterministic pseudo-random number generation for
// the simulation. Every component draws from a named substream derived from
// a single study seed, so that adding randomness to one subsystem never
// perturbs another and a given seed reproduces every result bit-for-bit.
package rng

import (
	"hash/fnv"
	"math"
)

// Source is a deterministic pseudo-random source based on xoshiro256**.
// The zero value is not usable; construct with New or Sub.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64, which guarantees
// well-distributed internal state even for small or clustered seeds.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	return &src
}

// Sub derives an independent substream identified by name. Two substreams
// with different names are statistically independent; the same (seed, name)
// pair always yields the same stream.
func (r *Source) Sub(name string) *Source {
	h := fnv.New64a()
	h.Write([]byte(name))
	// Mix the substream label with the parent state rather than the parent
	// position, so that drawing from the parent does not shift substreams.
	return New(r.s[0] ^ h.Sum64())
}

// State returns the raw xoshiro256** state, for checkpointing. Restoring
// the same words with Restore resumes the stream at exactly this position.
func (r *Source) State() [4]uint64 { return r.s }

// Restore overwrites the source state with words previously obtained from
// State. An all-zero state is invalid for xoshiro256** and is rejected by
// leaving the source unchanged.
func (r *Source) Restore(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return
	}
	r.s = s
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool { return r.Float64() < p }

// IntRange returns a uniform int in [lo, hi] inclusive. It panics if hi < lo.
func (r *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Marsaglia polar method.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// LogNormal returns a log-normally distributed value with the given
// parameters of the underlying normal distribution.
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Poisson returns a Poisson-distributed count with mean lambda. For large
// lambda it falls back to a normal approximation to stay O(1).
func (r *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*r.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Zipf returns a value in [0, n) following a Zipf distribution with
// exponent s (s > 0); smaller indices are more likely. It uses inverse
// transform sampling over the exact finite distribution and is intended
// for modest n (rank positions, template pools), not unbounded domains.
func (r *Source) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	var total float64
	for i := 1; i <= n; i++ {
		total += 1 / math.Pow(float64(i), s)
	}
	u := r.Float64() * total
	var cum float64
	for i := 1; i <= n; i++ {
		cum += 1 / math.Pow(float64(i), s)
		if u < cum {
			return i - 1
		}
	}
	return n - 1
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Pick returns a uniformly chosen element of items. It panics on an empty
// slice.
func Pick[T any](r *Source, items []T) T {
	return items[r.Intn(len(items))]
}

// WeightedPick returns an index in [0, len(weights)) chosen with probability
// proportional to weights[i]. Non-positive weights are treated as zero. If
// all weights are zero it returns a uniform index.
func (r *Source) WeightedPick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	u := r.Float64() * total
	var cum float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		cum += w
		if u < cum {
			return i
		}
	}
	return len(weights) - 1
}
