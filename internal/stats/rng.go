package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator (SplitMix64).
// Every simulation in this repository threads an explicit *RNG so that runs
// are reproducible; the global math/rand state is never used.
type RNG struct {
	state uint64
	// cached spare normal variate for Box-Muller
	hasSpare bool
	spare    float64
}

// NewRNG returns a generator seeded with the given seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Norm returns a standard normal variate (Box-Muller, with caching).
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// Exp returns an exponential variate with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	return -mean * math.Log(1-r.Float64())
}

// Lognormal draws from the given lognormal distribution.
func (r *RNG) Lognormal(l Lognormal) float64 {
	return l.Sample(r.Norm())
}

// Pareto returns a Pareto variate with minimum xm and shape alpha; the
// heavy tail drives the "top 1% of configs take most updates" skew.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	return xm / math.Pow(1-r.Float64(), 1/alpha)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Hash is the FNV-1a state after some prefix of an input. A caller that
// hashes many inputs sharing a prefix (Gatekeeper's "$project:" before each
// user id) keeps the prefix's state and extends a copy per input, with no
// string built: HashPrefix(p).Int(id).Sum64() == Hash64(p + strconv.Itoa(id)).
type Hash uint64

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// HashPrefix returns the state after the bytes of s.
func HashPrefix(s string) Hash {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return Hash(h)
}

// Int extends the state with v's decimal digits, as fmt's %d prints them.
func (h Hash) Int(v int64) Hash {
	var buf [20]byte // len("-9223372036854775808")
	i := len(buf)
	u := uint64(v)
	if v < 0 {
		u = -u
	}
	for ; u >= 10; u /= 10 {
		i--
		buf[i] = byte('0' + u%10)
	}
	i--
	buf[i] = byte('0' + u)
	if v < 0 {
		i--
		buf[i] = '-'
	}
	for ; i < len(buf); i++ {
		h = (h ^ Hash(buf[i])) * fnvPrime
	}
	return h
}

// Sum64 mixes the state into a 64-bit value with the same finalizer as the
// RNG.
func (h Hash) Sum64() uint64 {
	x := uint64(h)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float maps the state to a uniform [0,1) value.
func (h Hash) Float() float64 { return float64(h.Sum64()>>11) / (1 << 53) }

// Hash64 mixes arbitrary bytes into a 64-bit value; used for deterministic
// per-entity sampling (e.g., Gatekeeper user bucketing) without
// constructing a generator.
func Hash64(data string) uint64 { return HashPrefix(data).Sum64() }

// HashFloat maps arbitrary bytes to a uniform [0,1) value; deterministic.
func HashFloat(data string) float64 { return HashPrefix(data).Float() }
