// Quickstart: a complete gosvm program.
//
// Eight simulated processors cooperatively estimate pi by numeric
// integration over shared memory: each worker integrates a slice of
// [0,1), publishes its partial sum into a shared array, and processor 0
// combines them after a barrier. Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gosvm"
)

// piApp implements gosvm.App.
type piApp struct {
	steps    int
	partials gosvm.Addr // one shared word per processor
	result   gosvm.Addr
}

func (a *piApp) Name() string { return "pi" }

// Setup allocates shared memory (no data writes allowed here).
func (a *piApp) Setup(s *gosvm.Setup) {
	a.partials = s.Alloc(s.P)
	a.result = s.Alloc(1)
}

// Init runs on processor 0 before the timed parallel phase.
func (a *piApp) Init(w *gosvm.Init) {
	w.Store(a.result, 0)
}

// Worker is the parallel body, executed by every processor.
func (a *piApp) Worker(c *gosvm.Ctx, id int) {
	p := c.Nodes()
	h := 1.0 / float64(a.steps)
	sum := 0.0
	for i := id; i < a.steps; i += p {
		x := h * (float64(i) + 0.5)
		sum += 4.0 / (1.0 + x*x)
	}
	// Charge the simulated cost of the loop (~40ns per step on the
	// modeled CPU), then publish the partial result.
	c.Compute(gosvm.Time(a.steps/p) * 40)
	c.Store(a.partials+gosvm.Addr(id), sum*h)
	c.Barrier(0)

	if id == 0 {
		total := 0.0
		for i := 0; i < p; i++ {
			total += c.Load(a.partials + gosvm.Addr(i))
		}
		c.Store(a.result, total)
	}
	c.Barrier(1)
}

// Gather collects the result for the caller.
func (a *piApp) Gather(c *gosvm.Ctx) []float64 {
	return []float64{c.Load(a.result)}
}

func main() {
	// The HLRC protocol (the paper's home-based protocol) on 8 nodes. The
	// machine shape (size, topology, costs) travels as one gosvm.Machine
	// value; unset fields default to the paper's machine.
	opts := gosvm.Options{
		Protocol:  gosvm.HLRC,
		Machine:   gosvm.Machine{Nodes: 8},
		PageBytes: 4096,
	}
	res, err := gosvm.Run(opts, &piApp{steps: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pi ≈ %.10f\n", res.Data[0])
	fmt.Printf("simulated parallel time: %.2f ms on %d nodes under %s\n",
		res.Stats.Elapsed.Micros()/1e3, opts.Machine.Nodes, opts.Protocol)
	avg := res.Stats.AvgNode()
	fmt.Printf("avg per-node: compute %.2f ms, barrier %.2f ms, data %.2f ms\n",
		avg.Time[gosvm.CatCompute].Micros()/1e3,
		avg.Time[gosvm.CatBarrier].Micros()/1e3,
		avg.Time[gosvm.CatData].Micros()/1e3)
}
