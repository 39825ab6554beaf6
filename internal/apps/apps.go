// Package apps implements the paper's five benchmark programs against the
// SVM programming interface: the Splash-2 kernels and applications LU,
// Water-Nsquared, Water-Spatial, and Raytrace, plus the TreadMarks SOR
// kernel. Each program preserves the original's data layout, partitioning,
// and synchronization pattern — the things the coherence protocols can
// observe — while the arithmetic itself is simplified where that does not
// change the memory-access pattern.
//
// Computation is charged in simulated time per element/pair/ray, with
// constants calibrated so the paper-size problems reproduce the sequential
// execution times of the paper's Table 1 (see EXPERIMENTS.md).
package apps

import (
	"fmt"

	"gosvm/internal/core"
)

// Size selects a problem scale.
type Size string

const (
	// SizeTest is for unit tests: seconds of simulated time, milliseconds
	// of real time.
	SizeTest Size = "test"
	// SizeSmall is for quick benchmark runs.
	SizeSmall Size = "small"
	// SizePaper matches the paper's Table 1 problem sizes.
	SizePaper Size = "paper"
)

// New returns the named application at the given size. Names follow the
// paper: lu, sor, water-nsq, water-sp, raytrace.
func New(name string, size Size) (core.App, error) {
	switch name {
	case "lu":
		return NewLU(size), nil
	case "sor":
		return NewSOR(size, false), nil
	case "sor-zero":
		return NewSOR(size, true), nil
	case "water-nsq":
		return NewWaterNsq(size), nil
	case "water-sp":
		return NewWaterSp(size), nil
	case "raytrace":
		return NewRaytrace(size), nil
	}
	return nil, fmt.Errorf("apps: unknown application %q", name)
}

// Names lists the five paper benchmarks in presentation order.
var Names = []string{"lu", "sor", "water-nsq", "water-sp", "raytrace"}

// grid2 factors p into rows x cols as squarely as possible (rows <= cols).
func grid2(p int) (rows, cols int) {
	rows = 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			rows = d
		}
	}
	return rows, p / rows
}

// grid3 factors p into a 3-D grid as cubically as possible.
func grid3(p int) (x, y, z int) {
	best := [3]int{1, 1, p}
	bestScore := p * p
	for i := 1; i*i*i <= p; i++ {
		if p%i != 0 {
			continue
		}
		rem := p / i
		for j := i; j*j <= rem; j++ {
			if rem%j != 0 {
				continue
			}
			k := rem / j
			score := k - i // flatter is worse
			if score < bestScore {
				bestScore = score
				best = [3]int{i, j, k}
			}
		}
	}
	return best[0], best[1], best[2]
}

// chunk returns the [lo,hi) range of n items assigned to proc id of p.
func chunk(n, p, id int) (lo, hi int) {
	per := n / p
	rem := n % p
	lo = id*per + min(id, rem)
	hi = lo + per
	if id < rem {
		hi++
	}
	return lo, hi
}
