package apps

import (
	"gosvm/internal/core"
	"gosvm/internal/mem"
	"gosvm/internal/sim"
)

// LU performs blocked dense LU factorization without pivoting, following
// the Splash-2 contiguous-blocks kernel: the matrix is stored block-major
// (each BxB block contiguous in shared memory), blocks are assigned to
// processors in a 2-D scatter, and the computation proceeds in
// diagonal/perimeter/interior phases separated by barriers. Sharing is
// coarse-grained with low synchronization frequency, and the work is
// inherently unbalanced — the paper's characterization.
type LU struct {
	N, B   int      // matrix and block dimension
	FlopNs sim.Time // simulated cost per floating-point operation

	nb   int // blocks per dimension
	base mem.Addr
	p    int
	pr   int // processor grid rows
	pc   int
}

// NewLU returns the LU kernel at the given size. SizePaper is the paper's
// 2048x2048 with 32x32 blocks; the per-flop cost reproduces the ~1280s
// sequential time of Table 1.
func NewLU(size Size) *LU {
	switch size {
	case SizePaper:
		return &LU{N: 2048, B: 32, FlopNs: 450}
	case SizeSmall:
		return &LU{N: 512, B: 32, FlopNs: 450}
	default:
		return &LU{N: 48, B: 8, FlopNs: 450}
	}
}

func (a *LU) Name() string { return "lu" }

func (a *LU) blockAddr(bi, bj int) mem.Addr {
	return a.base + mem.Addr((bi*a.nb+bj)*a.B*a.B)
}

// owner implements the Splash-2 2-D scatter decomposition.
func (a *LU) owner(bi, bj int) int {
	return (bi%a.pr)*a.pc + (bj % a.pc)
}

func (a *LU) Setup(s *core.Setup) {
	a.nb = a.N / a.B
	a.p = s.P
	a.pr, a.pc = grid2(s.P)
	a.base = s.Alloc(a.N * a.N)
}

func (a *LU) Init(w *core.Init) {
	// Deterministic, diagonally dominant matrix (no pivoting).
	rng := newLCG(12345)
	for bi := 0; bi < a.nb; bi++ {
		for bj := 0; bj < a.nb; bj++ {
			addr := a.blockAddr(bi, bj)
			for ii := 0; ii < a.B; ii++ {
				for jj := 0; jj < a.B; jj++ {
					i := bi*a.B + ii
					j := bj*a.B + jj
					v := rng.float() - 0.5
					if i == j {
						v += float64(a.N)
					}
					w.Store(addr+mem.Addr(ii*a.B+jj), v)
				}
			}
			w.SetHome(addr, a.B*a.B, a.owner(bi, bj))
		}
	}
}

// readBlock copies block (bi,bj) into buf.
func (a *LU) readBlock(c *core.Ctx, bi, bj int, buf []float64) {
	c.ReadRange(a.blockAddr(bi, bj), buf)
}

func (a *LU) writeBlock(c *core.Ctx, bi, bj int, buf []float64) {
	c.WriteRange(a.blockAddr(bi, bj), buf)
}

func (a *LU) Worker(c *core.Ctx, id int) {
	B := a.B
	diag := make([]float64, B*B)
	left := make([]float64, B*B)
	up := make([]float64, B*B)
	work := make([]float64, B*B)
	bar := 0

	for k := 0; k < a.nb; k++ {
		if a.owner(k, k) == id {
			a.readBlock(c, k, k, diag)
			factorBlock(diag, B)
			a.writeBlock(c, k, k, diag)
			c.Compute(a.FlopNs * sim.Time(2*B*B*B/3))
		}
		c.Barrier(bar)
		bar++

		// Perimeter: row blocks get L^-1 applied, column blocks U^-1.
		// Only processors owning blocks in row k or column k need the
		// diagonal block.
		needsDiag := false
		for t := k + 1; t < a.nb; t++ {
			if a.owner(k, t) == id || a.owner(t, k) == id {
				needsDiag = true
				break
			}
		}
		if needsDiag {
			a.readBlock(c, k, k, diag)
		}
		for j := k + 1; j < a.nb; j++ {
			if a.owner(k, j) != id {
				continue
			}
			a.readBlock(c, k, j, work)
			lowerSolve(diag, work, B)
			a.writeBlock(c, k, j, work)
			c.Compute(a.FlopNs * sim.Time(B*B*B))
		}
		for i := k + 1; i < a.nb; i++ {
			if a.owner(i, k) != id {
				continue
			}
			a.readBlock(c, i, k, work)
			upperSolve(diag, work, B)
			a.writeBlock(c, i, k, work)
			c.Compute(a.FlopNs * sim.Time(B*B*B))
		}
		c.Barrier(bar)
		bar++

		// Interior: A[i][j] -= A[i][k] * A[k][j].
		for i := k + 1; i < a.nb; i++ {
			if a.owner(i, k) != id {
				// Fetch lazily only if we own interior blocks in row i.
				owns := false
				for j := k + 1; j < a.nb; j++ {
					if a.owner(i, j) == id {
						owns = true
						break
					}
				}
				if !owns {
					continue
				}
			}
			a.readBlock(c, i, k, left)
			for j := k + 1; j < a.nb; j++ {
				if a.owner(i, j) != id {
					continue
				}
				a.readBlock(c, k, j, up)
				a.readBlock(c, i, j, work)
				matmulSub(work, left, up, B)
				a.writeBlock(c, i, j, work)
				c.Compute(a.FlopNs * sim.Time(2*B*B*B))
			}
		}
		c.Barrier(bar)
		bar++
	}
	c.Barrier(bar)
}

func (a *LU) Gather(c *core.Ctx) []float64 {
	out := make([]float64, a.N*a.N)
	c.ReadRange(a.base, out)
	return out
}

// factorBlock computes the in-place LU factorization (unit lower
// triangular L) of a BxB block.
func factorBlock(a []float64, b int) {
	for k := 0; k < b; k++ {
		pivot := a[k*b+k]
		for i := k + 1; i < b; i++ {
			a[i*b+k] /= pivot
			l := a[i*b+k]
			for j := k + 1; j < b; j++ {
				a[i*b+j] -= l * a[k*b+j]
			}
		}
	}
}

// lowerSolve applies L^-1 (unit lower triangle of diag) to work, i.e.
// solves L*X = work in place.
func lowerSolve(diag, work []float64, b int) {
	for k := 0; k < b; k++ {
		for i := k + 1; i < b; i++ {
			l := diag[i*b+k]
			for j := 0; j < b; j++ {
				work[i*b+j] -= l * work[k*b+j]
			}
		}
	}
}

// upperSolve solves X*U = work in place, with U the upper triangle of
// diag (non-unit diagonal).
func upperSolve(diag, work []float64, b int) {
	for k := 0; k < b; k++ {
		u := diag[k*b+k]
		for i := 0; i < b; i++ {
			work[i*b+k] /= u
		}
		for j := k + 1; j < b; j++ {
			ukj := diag[k*b+j]
			for i := 0; i < b; i++ {
				work[i*b+j] -= work[i*b+k] * ukj
			}
		}
	}
}

// matmulSub computes c -= a*b for nxn blocks, four k at a time: one pass
// over a row of c subtracts a[i][k]*b[k] for k..k+3 while those four a are
// all non-zero. The result is bit for bit the one-k-at-a-time loop's: each
// element takes the same products and subtractions, each rounded on its own
// (Go evaluates left to right), in the same k order. A zero a[i][k] is
// skipped, not multiplied — 0*Inf is NaN, and c = -0 minus a -0 product
// (0 times a negative b) is +0 — so a group of four holding one falls back
// to one k at a time.
func matmulSub(c, a, b []float64, n int) {
	for i := 0; i < n; i++ {
		ci := c[i*n : (i+1)*n]
		ai := a[i*n : i*n+len(ci)]
		k := 0
		for ; k+4 <= n; k += 4 {
			g := ai[k : k+4]
			a0, a1, a2, a3 := g[0], g[1], g[2], g[3]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				for kk := k; kk < k+4; kk++ {
					subRow(ci, ai[kk], b[kk*n:])
				}
				continue
			}
			b0 := b[k*n:][:len(ci)]
			b1 := b[(k+1)*n:][:len(ci)]
			b2 := b[(k+2)*n:][:len(ci)]
			b3 := b[(k+3)*n:][:len(ci)]
			for j := range ci {
				ci[j] = ci[j] - a0*b0[j] - a1*b1[j] - a2*b2[j] - a3*b3[j]
			}
		}
		for ; k < n; k++ {
			subRow(ci, ai[k], b[k*n:])
		}
	}
}

// subRow subtracts aik*bk from ci, unless aik is zero.
func subRow(ci []float64, aik float64, bk []float64) {
	if aik == 0 {
		return
	}
	bk = bk[:len(ci)]
	for j := range ci {
		ci[j] -= aik * bk[j]
	}
}

// lcg is a tiny deterministic pseudo-random generator for initial data.
type lcg struct{ s uint64 }

func newLCG(seed uint64) *lcg { return &lcg{s: seed} }

func (r *lcg) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s
}

// float returns a value in [0,1).
func (r *lcg) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
