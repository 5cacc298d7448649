// Package stats provides the numerical substrate used throughout the PASS
// reproduction: deterministic pseudo-random number generation, prefix-sum
// sketches with O(1) range variance, streaming moment accumulators, normal
// confidence intervals, range-maximum queries, and quantiles.
//
// Everything is implemented on the standard library only. All randomness in
// the repository flows through RNG so that experiments are reproducible from
// a seed.
package stats

import (
	"fmt"
	"math"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded through splitmix64). It is not safe for concurrent
// use; create one RNG per goroutine.
type RNG struct {
	s [4]uint64
	// cached second normal variate from Box-Muller
	hasGauss bool
	gauss    float64
}

// NewRNG returns a generator seeded from seed via splitmix64, which
// guarantees a well-mixed internal state even for small seeds.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// avoid the all-zero state, which xoshiro cannot escape
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// State returns the generator's position in its stream: RestoreRNG(State())
// draws what r draws next. The cached second normal variate of Norm is not
// part of it, so a generator that has drawn an odd number of them does not
// restore exactly.
func (r *RNG) State() [4]uint64 { return r.s }

// RestoreRNG returns a generator at a position State reported. The
// all-zero state, which no generator reaches, is an error.
func RestoreRNG(s [4]uint64) (*RNG, error) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return nil, fmt.Errorf("stats: all-zero generator state")
	}
	return &RNG{s: s}, nil
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative 63-bit value.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Norm returns a standard normal variate via the Box-Muller transform.
func (r *RNG) Norm() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	radius := math.Sqrt(-2 * math.Log(u))
	theta := 2 * math.Pi * v
	r.gauss = radius * math.Sin(theta)
	r.hasGauss = true
	return radius * math.Cos(theta)
}

// NormMS returns a normal variate with the given mean and standard deviation.
func (r *RNG) NormMS(mean, sd float64) float64 { return mean + sd*r.Norm() }

// LogNormal returns exp(N(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Norm())
}

// Exp returns an exponential variate with the given rate.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exp with non-positive rate")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle performs a Fisher-Yates shuffle using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf draws from a Zipf distribution over {0, ..., n-1} with exponent s>1
// approximated by inverse-CDF on the truncated zeta mass. The zeta
// normaliser is computed once lazily via a companion ZipfGen.
type ZipfGen struct {
	rng  *RNG
	cdf  []float64
	n    int
	sExp float64
}

// NewZipf builds a Zipf sampler over n items with exponent s (s > 0).
func NewZipf(rng *RNG, n int, s float64) *ZipfGen {
	if n <= 0 {
		panic("stats: NewZipf with non-positive n")
	}
	z := &ZipfGen{rng: rng, n: n, sExp: s}
	z.cdf = make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	return z
}

// Draw returns an index in [0, n) with Zipf-distributed probability
// (index 0 most likely).
func (z *ZipfGen) Draw() int {
	u := z.rng.Float64()
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
