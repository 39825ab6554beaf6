package sim

// SplitMix is a splitmix64 generator whose state is its value, so a seed
// converts to one directly. Unlike math/rand's, its stream is fixed across
// Go releases and platforms: a seed replays the same fault schedule or
// client trace forever. Each user seeds it its own way.
type SplitMix uint64

// Next returns the next 64 bits of the stream.
func (r *SplitMix) Next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float returns a uniform value in [0, 1).
func (r *SplitMix) Float() float64 { return float64(r.Next()>>11) / (1 << 53) }
