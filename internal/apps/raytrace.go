package apps

import (
	"math"

	"gosvm/internal/core"
	"gosvm/internal/mem"
	"gosvm/internal/sim"
)

// Raytrace renders a sphere scene with the Splash-2 Raytrace structure:
// the scene data is read-only (causing fragmentation but little protocol
// action after the first fetch), work is distributed through per-processor
// task queues in shared memory with task stealing, and pixels are written
// into a shared image plane — fine-grained accesses that cause
// considerable false sharing at the page level, the paper's
// characterization.
type Raytrace struct {
	W, H    int // image size
	Tile    int // tile edge
	Spheres int
	TestNs  sim.Time // per ray-sphere intersection test

	p      int
	scene  mem.Addr // Spheres x 8 words: center(3), radius, color(3), refl
	image  mem.Addr // H x W words
	queues mem.Addr // per proc: [head, tail, items...]
	qcap   int
	ntiles int
	tilesX int
}

const sphWords = 8

// NewRaytrace returns the application; SizePaper renders 256x256 over a
// 64-sphere scene (standing in for balls4.env), calibrated to the ~956s
// sequential time of Table 1.
func NewRaytrace(size Size) *Raytrace {
	r := &Raytrace{Tile: 2, Spheres: 64, TestNs: 73000}
	switch size {
	case SizePaper:
		r.W, r.H = 256, 256
	case SizeSmall:
		r.W, r.H = 128, 128
	default:
		r.W, r.H, r.Spheres = 32, 32, 8
	}
	return r
}

func (a *Raytrace) Name() string { return "raytrace" }

func (a *Raytrace) qBase(q int) mem.Addr { return a.queues + mem.Addr(q*(a.qcap+2)) }

func (a *Raytrace) Setup(s *core.Setup) {
	a.p = s.P
	a.tilesX = a.W / a.Tile
	a.ntiles = a.tilesX * (a.H / a.Tile)
	a.scene = s.Alloc(a.Spheres * sphWords)
	a.image = s.Alloc(a.H * a.W)
	a.qcap = a.ntiles
	a.queues = s.Alloc(a.p * (a.qcap + 2))
}

func (a *Raytrace) Init(w *core.Init) {
	rng := newLCG(31337)
	for i := 0; i < a.Spheres; i++ {
		base := a.scene + mem.Addr(i*sphWords)
		w.Store(base+0, rng.float()*2-1)     // cx
		w.Store(base+1, rng.float()*2-1)     // cy
		w.Store(base+2, rng.float()*4+2)     // cz (in front of camera)
		w.Store(base+3, rng.float()*0.3+0.1) // radius
		w.Store(base+4, rng.float())         // r
		w.Store(base+5, rng.float())         // g
		w.Store(base+6, rng.float())         // b
		w.Store(base+7, rng.float()*0.5)     // reflectivity
	}
	for i := 0; i < a.H*a.W; i++ {
		w.Store(a.image+mem.Addr(i), 0)
	}
	// Tiles are dealt into the task queues in small round-robin blocks:
	// neighboring tiles (and hence words of the same image page) belong
	// to different processors, producing the fine-grained false sharing
	// and fragmentation the paper attributes to this application. Ray
	// costs vary with scene content, so queues drain unevenly and idle
	// processors steal.
	counts := make([]int, a.p)
	for t := 0; t < a.ntiles; t++ {
		q := (t / 2) % a.p
		w.StoreI(a.qBase(q)+mem.Addr(2+counts[q]), int64(t))
		counts[q]++
	}
	for q := 0; q < a.p; q++ {
		w.StoreI(a.qBase(q)+0, 0)                // head
		w.StoreI(a.qBase(q)+1, int64(counts[q])) // tail
		w.SetHome(a.qBase(q), a.qcap+2, q)
	}
	// Image rows are distributed in contiguous bands.
	for id := 0; id < a.p; id++ {
		lo, hi := chunk(a.H, a.p, id)
		if hi > lo {
			w.SetHome(a.image+mem.Addr(lo*a.W), (hi-lo)*a.W, id)
		}
	}
}

// pop takes a task from queue q, returning -1 if empty.
func (a *Raytrace) pop(c *core.Ctx, q int) int {
	base := a.qBase(q)
	c.Lock(300 + q)
	head := c.LoadI(base + 0)
	tail := c.LoadI(base + 1)
	task := int64(-1)
	if head < tail {
		task = c.LoadI(base + mem.Addr(2+head))
		c.StoreI(base+0, head+1)
	}
	c.Unlock(300 + q)
	return int(task)
}

func (a *Raytrace) Worker(c *core.Ctx, id int) {
	// The scene copy and the output row are reused by every tile; each
	// tile still reads the whole scene from shared memory.
	sph := make([]float64, a.Spheres*sphWords)
	row := make([]float64, a.Tile)
	// Fetch tasks from the own queue, then steal round-robin.
	for probe := 0; probe < a.p; {
		q := (id + probe) % a.p
		task := a.pop(c, q)
		if task < 0 {
			probe++
			continue
		}
		probe = 0
		a.renderTile(c, task, sph, row)
	}
	c.Barrier(0)
}

func (a *Raytrace) renderTile(c *core.Ctx, tile int, sph, row []float64) {
	tx := (tile % a.tilesX) * a.Tile
	ty := (tile / a.tilesX) * a.Tile
	c.ReadRange(a.scene, sph)
	tests := 0
	for y := ty; y < ty+a.Tile; y++ {
		for x := tx; x < tx+a.Tile; x++ {
			v, n := a.trace(sph, x, y)
			row[x-tx] = v
			tests += n
		}
		c.WriteRange(a.image+mem.Addr(y*a.W+tx), row)
	}
	c.Compute(a.TestNs * sim.Time(tests))
}

// trace shoots the primary ray for pixel (x,y), with one shadow ray and
// one reflection bounce, returning a luminance value and the number of
// ray-sphere tests performed.
func (a *Raytrace) trace(sph []float64, x, y int) (float64, int) {
	ox, oy, oz := 0.0, 0.0, 0.0
	dx := (float64(x)/float64(a.W))*2 - 1
	dy := (float64(y)/float64(a.H))*2 - 1
	dz := 1.5
	tests := 0
	lum := 0.0
	weight := 1.0
	for bounce := 0; bounce < 2; bounce++ {
		bestT := math.Inf(1)
		best := -1
		for s := 0; s < a.Spheres; s++ {
			tests++
			t := hitSphere(sph[s*sphWords:], ox, oy, oz, dx, dy, dz)
			if t > 1e-6 && t < bestT {
				bestT = t
				best = s
			}
		}
		if best < 0 {
			lum += weight * 0.1 // background
			break
		}
		b := sph[best*sphWords:]
		hx, hy, hz := ox+bestT*dx, oy+bestT*dy, oz+bestT*dz
		nx, ny, nz := (hx-b[0])/b[3], (hy-b[1])/b[3], (hz-b[2])/b[3]
		// Shadow ray towards a fixed light.
		lx, ly, lz := norm3(2-hx, -3-hy, -1-hz)
		shadow := false
		for s := 0; s < a.Spheres; s++ {
			if s == best {
				continue
			}
			tests++
			if t := hitSphere(sph[s*sphWords:], hx, hy, hz, lx, ly, lz); t > 1e-6 {
				shadow = true
				break
			}
		}
		diffuse := 0.0
		if !shadow {
			diffuse = math.Max(0, nx*lx+ny*ly+nz*lz)
		}
		col := 0.3*b[4] + 0.4*b[5] + 0.3*b[6]
		lum += weight * col * (0.2 + 0.8*diffuse)
		// Reflect.
		dot := dx*nx + dy*ny + dz*nz
		dx, dy, dz = dx-2*dot*nx, dy-2*dot*ny, dz-2*dot*nz
		ox, oy, oz = hx, hy, hz
		weight *= b[7]
		if weight < 1e-3 {
			break
		}
	}
	return lum, tests
}

func hitSphere(s []float64, ox, oy, oz, dx, dy, dz float64) float64 {
	cx, cy, cz, r := s[0], s[1], s[2], s[3]
	px, py, pz := ox-cx, oy-cy, oz-cz
	a2 := dx*dx + dy*dy + dz*dz
	b := 2 * (px*dx + py*dy + pz*dz)
	c := px*px + py*py + pz*pz - r*r
	disc := b*b - 4*a2*c
	if disc < 0 {
		return -1
	}
	return (-b - math.Sqrt(disc)) / (2 * a2)
}

func norm3(x, y, z float64) (float64, float64, float64) {
	n := math.Sqrt(x*x + y*y + z*z)
	return x / n, y / n, z / n
}

func (a *Raytrace) Gather(c *core.Ctx) []float64 {
	out := make([]float64, a.H*a.W)
	c.ReadRange(a.image, out)
	return out
}
