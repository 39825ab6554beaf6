// Taskfarm: a work-stealing task farm over shared virtual memory — the
// irregular, lock-heavy usage pattern of the paper's Raytrace. Tasks
// (here: Mandelbrot tiles) live in per-processor queues in shared memory;
// idle processors steal through the queues' locks, and results land in a
// shared output plane with page-level false sharing.
//
// The example compares all four protocols of the paper on the same
// workload. Run it with:
//
//	go run ./examples/taskfarm
package main

import (
	"fmt"
	"log"

	"gosvm"
)

const (
	side  = 128 // output plane is side x side
	tile  = 8
	depth = 64 // iteration cap
)

type taskfarm struct {
	p      int
	ntiles int
	plane  gosvm.Addr
	queues gosvm.Addr // per proc: head, tail, items...
	qcap   int
}

func (a *taskfarm) Name() string { return "taskfarm" }

func (a *taskfarm) qBase(q int) gosvm.Addr {
	return a.queues + gosvm.Addr(q*(a.qcap+2))
}

func (a *taskfarm) Setup(s *gosvm.Setup) {
	a.p = s.P
	a.ntiles = (side / tile) * (side / tile)
	a.qcap = a.ntiles
	a.plane = s.Alloc(side * side)
	a.queues = s.Alloc(s.P * (a.qcap + 2))
}

func (a *taskfarm) Init(w *gosvm.Init) {
	counts := make([]int, a.p)
	for t := 0; t < a.ntiles; t++ {
		q := a.p * t / a.ntiles // contiguous bands: imbalanced by content
		w.StoreI(a.qBase(q)+gosvm.Addr(2+counts[q]), int64(t))
		counts[q]++
	}
	for q := 0; q < a.p; q++ {
		w.StoreI(a.qBase(q), 0)
		w.StoreI(a.qBase(q)+1, int64(counts[q]))
	}
}

func (a *taskfarm) pop(c *gosvm.Ctx, q int) int {
	c.Lock(q)
	defer c.Unlock(q)
	head := c.LoadI(a.qBase(q))
	tail := c.LoadI(a.qBase(q) + 1)
	if head >= tail {
		return -1
	}
	c.StoreI(a.qBase(q), head+1)
	return int(c.LoadI(a.qBase(q) + gosvm.Addr(2+head)))
}

func (a *taskfarm) Worker(c *gosvm.Ctx, id int) {
	tilesX := side / tile
	row := make([]float64, tile)
	for probe := 0; probe < c.Nodes(); {
		t := a.pop(c, (id+probe)%c.Nodes())
		if t < 0 {
			probe++
			continue
		}
		probe = 0
		tx, ty := (t%tilesX)*tile, (t/tilesX)*tile
		work := 0
		for y := ty; y < ty+tile; y++ {
			for x := tx; x < tx+tile; x++ {
				cr := 2.5*float64(x)/side - 2.0
				ci := 2.0*float64(y)/side - 1.0
				zr, zi := 0.0, 0.0
				n := 0
				for ; n < depth && zr*zr+zi*zi < 4; n++ {
					zr, zi = zr*zr-zi*zi+cr, 2*zr*zi+ci
				}
				work += n
				row[x-tx] = float64(n)
			}
			c.WriteRange(a.plane+gosvm.Addr(y*side+tx), row)
		}
		c.Compute(gosvm.Time(work) * 500) // ~500ns per inner iteration
	}
	c.Barrier(0)
}

func (a *taskfarm) Gather(c *gosvm.Ctx) []float64 {
	out := make([]float64, side*side)
	c.ReadRange(a.plane, out)
	return out
}

func main() {
	const procs = 16
	fmt.Printf("Mandelbrot task farm, %d nodes, %d tiles, work stealing:\n\n", procs, (side/tile)*(side/tile))
	var base float64
	for _, proto := range gosvm.Protocols {
		res, err := gosvm.Run(gosvm.Options{
			Protocol:  proto,
			Machine:   gosvm.Machine{Nodes: procs},
			PageBytes: 4096,
		}, &taskfarm{})
		if err != nil {
			log.Fatal(err)
		}
		ms := res.Stats.Elapsed.Micros() / 1e3
		if proto == gosvm.LRC {
			base = ms
		}
		fmt.Printf("  %-5s: %8.1f ms  (%.2fx vs LRC)  locks/node: %d\n",
			proto, ms, base/ms, res.Stats.AvgNode().Counts.LockAcquires)
	}
}
