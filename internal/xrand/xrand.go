// Package xrand provides a deterministic, forkable pseudo-random number
// generator used by every simulator component in this repository.
//
// Reproducibility is a hard requirement for the experiments: the paper's
// observations are statistical, so each experiment must be replayable from
// a single seed. xrand implements xoshiro256** seeded via SplitMix64, the
// combination recommended by Blackman & Vigna. A generator can be Forked
// into an independent stream derived from its state plus a label, which is
// how the fleet simulator gives every machine, core, and defect its own
// stream without cross-coupling.
package xrand

import "math"

// RNG is a xoshiro256** generator. The zero value is not valid; use New.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances x and returns the next SplitMix64 output. It is used
// only for seeding so that closely-spaced seeds yield well-separated states.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator state from seed.
func (r *RNG) Reseed(seed uint64) {
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
	// xoshiro256** must not start from the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Fork returns a new generator whose stream is a deterministic function of
// the parent's current state and label, and advances the parent once.
// Distinct labels produce independent streams.
func (r *RNG) Fork(label uint64) *RNG {
	x := r.Uint64() ^ (label * 0xda942042e4dd58b5)
	return New(splitmix64(&x))
}

// ForkInto is Fork without the allocation: it reseeds dst in place to the
// exact state Fork(label) would return. Hot loops that fork thousands of
// streams per simulated day reuse one RNG value instead of churning the
// heap.
func (r *RNG) ForkInto(label uint64, dst *RNG) {
	x := r.Uint64() ^ (label * 0xda942042e4dd58b5)
	dst.Reseed(splitmix64(&x))
}

// FNV-1a parameters, used for string fork labels.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds s into an FNV-1a hash state h.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// ForkString forks using a string label hashed with FNV-1a.
func (r *RNG) ForkString(label string) *RNG {
	return r.Fork(fnv1a(fnvOffset64, label))
}

// ForkStringInto reseeds dst to the state ForkString(prefix+rest) would
// produce, without allocating the concatenated label or the generator.
// FNV-1a hashes bytes sequentially, so hashing the two parts in order is
// identical to hashing their concatenation — the streams are bit-for-bit
// the same as the allocating path.
func (r *RNG) ForkStringInto(prefix, rest string, dst *RNG) {
	r.ForkInto(fnv1a(fnv1a(fnvOffset64, prefix), rest), dst)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's method with a
// rejection step to remove modulo bias. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Poisson returns a Poisson variate with mean lambda. For small lambda it
// uses Knuth's multiplication method; for large lambda a normal
// approximation with continuity correction, which is ample for the fleet
// simulator's arrival processes.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := int(math.Round(lambda + math.Sqrt(lambda)*r.NormFloat64()))
	if n < 0 {
		n = 0
	}
	return n
}

// Binomial returns a Binomial(n, p) variate by direct simulation for small
// n and a normal approximation for large n.
func (r *RNG) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 64 {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	sd := math.Sqrt(mean * (1 - p))
	k := int(math.Round(mean + sd*r.NormFloat64()))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// Weibull returns a Weibull(shape, scale) variate. The fleet simulator uses
// this for defect age-of-onset distributions (§2: "we have some evidence
// that aging is a factor").
func (r *RNG) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("xrand: Weibull parameters must be positive")
	}
	return scale * math.Pow(r.ExpFloat64(), 1/shape)
}

// LogNormal returns exp(mu + sigma*Z). Used for the orders-of-magnitude
// spread in per-defect corruption rates (§2).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Shuffle randomizes the order of n elements via swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bytes fills b with random bytes.
func (r *RNG) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		b[i] = byte(v)
		b[i+1] = byte(v >> 8)
		b[i+2] = byte(v >> 16)
		b[i+3] = byte(v >> 24)
		b[i+4] = byte(v >> 32)
		b[i+5] = byte(v >> 40)
		b[i+6] = byte(v >> 48)
		b[i+7] = byte(v >> 56)
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}
