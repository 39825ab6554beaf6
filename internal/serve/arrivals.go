package serve

import (
	"math"

	"gosvm/internal/sim"
)

// rng is a client's generator (sim.SplitMix): fully deterministic across
// platforms, so the same seed always yields the same client trace
// regardless of host parallelism or protocol under test.
type rng struct{ sim.SplitMix }

func newRNG(seed uint64) *rng { return &rng{sim.SplitMix(seed)} }

// openFloat returns a value in (0,1), safe as a log/division argument.
func (r *rng) openFloat() float64 {
	for {
		if v := r.Float(); v > 0 {
			return v
		}
	}
}

// intn returns a value in [0,n).
func (r *rng) intn(n int) int { return int(r.Next() % uint64(n)) }

// scramble is a 64-bit finalizer used to spread Zipf ranks (and shard
// assignments) uniformly over the key space, so the popular keys do not
// cluster on one shard or page.
func scramble(v uint64) uint64 {
	v = (v ^ (v >> 33)) * 0xff51afd7ed558ccd
	v = (v ^ (v >> 33)) * 0xc4ceb9fe1a85ec53
	return v ^ (v >> 33)
}

// exp draws an exponential interarrival gap for the given rate (events
// per simulated second), in simulated time.
func (r *rng) exp(rate float64) sim.Time {
	gap := -math.Log(r.openFloat()) / rate * float64(sim.Second)
	t := sim.Time(gap)
	if t < 1 {
		t = 1 // the clock is integral; coincident arrivals stay ordered
	}
	return t
}

// arrivals generates one node's Poisson arrival times on [0, window) at
// the given mean rate. The returned times are strictly increasing.
func arrivals(r *rng, rate float64, window sim.Time) []sim.Time {
	var out []sim.Time
	t := r.exp(rate)
	for t < window {
		out = append(out, t)
		t += r.exp(rate)
	}
	return out
}

// zipfGen draws key ranks with Zipfian popularity skew (rank 0 hottest),
// using the standard Gray et al. rejection-free inversion also used by
// YCSB. theta = 0 degenerates to uniform.
type zipfGen struct {
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
	half  float64
}

func newZipf(n int, theta float64) *zipfGen {
	z := &zipfGen{n: n, theta: theta}
	if theta == 0 {
		return z
	}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

// rank draws the next popularity rank in [0, n).
func (z *zipfGen) rank(r *rng) int {
	if z.theta == 0 {
		return r.intn(z.n)
	}
	u := r.Float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}
