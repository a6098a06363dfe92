package sim

import "math"

// Rand is a small, fast, deterministic random stream (splitmix64). Each
// simulated component derives its own stream from the run seed and a
// component name, so adding a component never perturbs the draws seen by
// the others — a property plain math/rand sharing would not give us.
type Rand struct {
	state uint64
}

// NewRand returns a stream seeded from seed and a component name.
func NewRand(seed uint64, name string) *Rand {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	r := &Rand{state: seed ^ h}
	// Warm the state so nearby seeds diverge immediately.
	r.Uint64()
	r.Uint64()
	return r
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Duration returns a uniform duration in [lo, hi].
func (r *Rand) Duration(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(r.Uint64()%uint64(hi-lo+1))
}

// Exp returns an exponentially distributed duration with the given mean.
func (r *Rand) Exp(mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	d := -float64(mean) * math.Log(u)
	if d > float64(math.MaxInt64)/2 {
		d = float64(math.MaxInt64) / 2
	}
	return Duration(d)
}

// Normal returns a normally distributed float with the given mean and
// standard deviation (Box–Muller, one draw per call using the cached pair).
func (r *Rand) Normal(mean, stddev float64) float64 {
	// Marsaglia polar method without caching keeps the stream simple and
	// deterministic under refactors that change call counts elsewhere.
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }
