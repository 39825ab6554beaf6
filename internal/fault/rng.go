package fault

import "gosvm/internal/sim"

// rng is the injector's generator. It must not depend on math/rand: its
// stream has to be stable across Go releases so a (plan, seed) pair
// replays the same fault schedule forever.
type rng struct{ sim.SplitMix }

func newRNG(seed int64) rng {
	// Avoid the all-zero state and decorrelate small seeds.
	return rng{sim.SplitMix(uint64(seed)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3)}
}

// timeIn returns a uniform duration in [0, max).
func (r *rng) timeIn(max sim.Time) sim.Time {
	if max <= 0 {
		return 0
	}
	return sim.Time(r.Next() % uint64(max))
}
