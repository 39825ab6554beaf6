// Stencil: an iterative 2-D heat-diffusion solver on shared virtual
// memory — the class of regular scientific workload (like the paper's
// SOR) that motivates home-based protocols: each processor owns a band of
// rows, homes are placed with the owners, and only boundary rows move
// between nodes.
//
// The example runs the same solver under HLRC and standard LRC and
// reports the execution-time difference and communication traffic, the
// paper's headline comparison in miniature. Run it with:
//
//	go run ./examples/stencil
package main

import (
	"fmt"
	"log"

	"gosvm"
)

type stencil struct {
	h, w  int
	iters int
	p     int
	grid  gosvm.Addr // h x w, updated in place (Jacobi with two planes)
	next  gosvm.Addr
}

func (a *stencil) Name() string { return "stencil" }

func (a *stencil) Setup(s *gosvm.Setup) {
	a.p = s.P
	a.grid = s.Alloc(a.h * a.w)
	a.next = s.Alloc(a.h * a.w)
}

func (a *stencil) Init(w *gosvm.Init) {
	// Hot left edge, cold elsewhere.
	for i := 0; i < a.h; i++ {
		for j := 0; j < a.w; j++ {
			v := 0.0
			if j == 0 {
				v = 100.0
			}
			w.Store(a.grid+gosvm.Addr(i*a.w+j), v)
			w.Store(a.next+gosvm.Addr(i*a.w+j), v)
		}
	}
	// Home placement: each band's pages live on their writer — the
	// "homes chosen intelligently" the home-based protocols rely on.
	for id := 0; id < a.p; id++ {
		lo, hi := a.band(id, a.p)
		w.SetHome(a.grid+gosvm.Addr(lo*a.w), (hi-lo)*a.w, id)
		w.SetHome(a.next+gosvm.Addr(lo*a.w), (hi-lo)*a.w, id)
	}
}

// band returns the rows owned by processor id.
func (a *stencil) band(id, p int) (int, int) {
	per := a.h / p
	lo := id * per
	hi := lo + per
	if id == p-1 {
		hi = a.h
	}
	return lo, hi
}

func (a *stencil) Worker(c *gosvm.Ctx, id int) {
	p := c.Nodes()
	lo, hi := a.band(id, p)
	up := make([]float64, a.w)
	mid := make([]float64, a.w)
	down := make([]float64, a.w)
	out := make([]float64, a.w)
	src, dst := a.grid, a.next
	for it := 0; it < a.iters; it++ {
		for i := lo; i < hi; i++ {
			c.ReadRange(src+gosvm.Addr(i*a.w), mid)
			if i > 0 {
				c.ReadRange(src+gosvm.Addr((i-1)*a.w), up)
			}
			if i < a.h-1 {
				c.ReadRange(src+gosvm.Addr((i+1)*a.w), down)
			}
			out[0], out[a.w-1] = mid[0], mid[a.w-1]
			for j := 1; j < a.w-1; j++ {
				v := 0.25 * (up[j] + down[j] + mid[j-1] + mid[j+1])
				if i == 0 || i == a.h-1 {
					v = mid[j]
				}
				out[j] = v
			}
			c.WriteRange(dst+gosvm.Addr(i*a.w), out)
			c.Compute(gosvm.Time(a.w) * 200) // ~200ns per point
		}
		c.Barrier(it)
		src, dst = dst, src
	}
	c.Barrier(a.iters)
}

func (a *stencil) Gather(c *gosvm.Ctx) []float64 {
	src := a.grid
	if a.iters%2 == 1 {
		src = a.next
	}
	out := make([]float64, a.h*a.w)
	c.ReadRange(src, out)
	return out
}

func main() {
	const procs = 16
	for _, proto := range []gosvm.Protocol{gosvm.LRC, gosvm.HLRC} {
		app := &stencil{h: 256, w: 256, iters: 20}
		res, err := gosvm.Run(gosvm.Options{
			Protocol:  proto,
			Machine:   gosvm.Machine{Nodes: procs},
			PageBytes: 4096,
		}, app)
		if err != nil {
			log.Fatal(err)
		}
		center := res.Data[(app.h/2)*app.w+app.w/2]
		fmt.Printf("%-5s: %7.1f ms simulated on %d nodes, %5d messages, %6.2f MB update traffic (center=%.4f)\n",
			proto, res.Stats.Elapsed.Micros()/1e3, procs,
			res.Stats.TotalMsgs(),
			float64(res.Stats.TotalBytes(gosvm.ClassData))/(1<<20),
			center)
	}
	fmt.Println("\nHLRC wins by avoiding multi-hop diff collection: boundary pages")
	fmt.Println("are fetched from their home in a single round trip.")
}
