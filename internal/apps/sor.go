package apps

import (
	"gosvm/internal/core"
	"gosvm/internal/mem"
	"gosvm/internal/sim"
)

// SOR is the TreadMarks red-black successive over-relaxation kernel: two
// arrays (red and black points of the grid) partitioned into contiguous
// bands of rows, one band per processor. Each iteration updates all red
// points from black neighbors, barriers, then black from red, barriers.
// Communication is nearest-neighbor: only the boundary rows between bands
// move.
//
// ZeroInit reproduces the paper's §4.8 experiment: all interior elements
// start at zero so interior pages see no updates for many iterations —
// the case most favorable to the homeless protocol (empty diffs) — which
// the paper uses to show HLRC is still ~10% faster.
type SOR struct {
	H, W     int // grid height and width (red + black columns each W/2)
	Iters    int
	ElemNs   sim.Time // per element update
	ZeroInit bool

	p          int
	red, black mem.Addr // H x (W/2) each
	hw         int      // W / 2
}

// NewSOR returns the kernel; SizePaper uses a 2048x1024 grid for 51
// iterations, calibrated to the ~1036s sequential time of Table 1.
func NewSOR(size Size, zero bool) *SOR {
	switch size {
	case SizePaper:
		return &SOR{H: 2048, W: 1024, Iters: 51, ElemNs: 9700, ZeroInit: zero}
	case SizeSmall:
		return &SOR{H: 512, W: 256, Iters: 20, ElemNs: 9700, ZeroInit: zero}
	default:
		return &SOR{H: 32, W: 16, Iters: 4, ElemNs: 9700, ZeroInit: zero}
	}
}

func (a *SOR) Name() string {
	if a.ZeroInit {
		return "sor-zero"
	}
	return "sor"
}

func (a *SOR) Setup(s *core.Setup) {
	a.p = s.P
	a.hw = a.W / 2
	a.red = s.Alloc(a.H * a.hw)
	a.black = s.Alloc(a.H * a.hw)
}

func (a *SOR) Init(w *core.Init) {
	rng := newLCG(777)
	for i := 0; i < a.H; i++ {
		for j := 0; j < a.hw; j++ {
			rv, bv := rng.float(), rng.float()
			if a.ZeroInit && i > 0 && i < a.H-1 && j > 0 && j < a.hw-1 {
				rv, bv = 0, 0
			}
			w.Store(a.red+mem.Addr(i*a.hw+j), rv)
			w.Store(a.black+mem.Addr(i*a.hw+j), bv)
		}
	}
	for id := 0; id < a.p; id++ {
		lo, hi := chunk(a.H, a.p, id)
		if hi > lo {
			w.SetHome(a.red+mem.Addr(lo*a.hw), (hi-lo)*a.hw, id)
			w.SetHome(a.black+mem.Addr(lo*a.hw), (hi-lo)*a.hw, id)
		}
	}
}

// rowAddr returns the address of row i of the given array.
func (a *SOR) rowAddr(base mem.Addr, i int) mem.Addr {
	return base + mem.Addr(i*a.hw)
}

// sweep updates rows [lo,hi) of dst from src. On the physical grid, red
// and black points interleave: the neighbors of dst[i][j] are src[i][j],
// src[i][j +/- 1] (phase-dependent) and src[i-1][j], src[i+1][j].
// Rows 0 and H-1 are fixed boundary rows (as columns 0 and hw-1 already
// are): skipping them keeps every updated point's stencil fully in
// bounds, so results are identical at any processor count — including
// machines where a band is a single row and there is no previous loop
// iteration to have filled the neighbor buffers. rows is the worker's
// scratch, four rows long.
//
// Each source row is read once per sweep: past the band's first row,
// src[i-1] and src[i] are the previous row's mid and down, so the three
// row buffers rotate and only src[i+1] and dst[i] are read. Reading the
// two again would fault nothing and copy the same words: a sweep runs
// between two barriers and takes no acquire, a page's validity changes
// only at an acquire, a barrier or an LRC collection, and nobody writes
// src during the phase (the program is data-race-free). So the simulator
// sees the same events as with five reads a row.
func (a *SOR) sweep(c *core.Ctx, rows []float64, dst, src mem.Addr, lo, hi int, phase int) {
	if lo < 1 {
		lo = 1
	}
	if hi > a.H-1 {
		hi = a.H - 1
	}
	up, mid, down, out := rows[:a.hw], rows[a.hw:2*a.hw], rows[2*a.hw:3*a.hw], rows[3*a.hw:4*a.hw]
	for i := lo; i < hi; i++ {
		if i == lo {
			c.ReadRange(a.rowAddr(src, i), mid)
			c.ReadRange(a.rowAddr(src, i-1), up)
		} else {
			up, mid, down = mid, down, up
		}
		c.ReadRange(a.rowAddr(src, i+1), down)
		c.ReadRange(a.rowAddr(dst, i), out)
		for j := 1; j < a.hw-1; j++ {
			sum := mid[j] + up[j] + down[j]
			if phase == 0 {
				sum += mid[j-1]
			} else {
				sum += mid[j+1]
			}
			out[j] = 0.25 * sum
		}
		c.WriteRange(a.rowAddr(dst, i), out)
		c.Compute(a.ElemNs * sim.Time(a.hw-2))
	}
}

func (a *SOR) Worker(c *core.Ctx, id int) {
	lo, hi := chunk(a.H, a.p, id)
	rows := make([]float64, 4*a.hw)
	bar := 0
	for it := 0; it < a.Iters; it++ {
		a.sweep(c, rows, a.red, a.black, lo, hi, 0)
		c.Barrier(bar)
		bar++
		a.sweep(c, rows, a.black, a.red, lo, hi, 1)
		c.Barrier(bar)
		bar++
	}
	c.Barrier(bar)
}

func (a *SOR) Gather(c *core.Ctx) []float64 {
	out := make([]float64, 2*a.H*a.hw)
	c.ReadRange(a.red, out[:a.H*a.hw])
	c.ReadRange(a.black, out[a.H*a.hw:])
	return out
}
