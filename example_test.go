package gosvm_test

import (
	"fmt"

	"gosvm"
)

// sumApp is a minimal application: every processor writes one shared
// word, and processor 0 sums them after a barrier.
type sumApp struct {
	cells gosvm.Addr
	total gosvm.Addr
}

func (a *sumApp) Name() string { return "sum" }

func (a *sumApp) Setup(s *gosvm.Setup) {
	a.cells = s.Alloc(s.P)
	a.total = s.Alloc(1)
}

func (a *sumApp) Init(w *gosvm.Init) { w.Store(a.total, 0) }

func (a *sumApp) Worker(c *gosvm.Ctx, id int) {
	c.Store(a.cells+gosvm.Addr(id), float64(id+1))
	c.Barrier(0)
	if id == 0 {
		sum := 0.0
		for i := 0; i < c.Nodes(); i++ {
			sum += c.Load(a.cells + gosvm.Addr(i))
		}
		c.Store(a.total, sum)
	}
	c.Barrier(1)
}

func (a *sumApp) Gather(c *gosvm.Ctx) []float64 {
	return []float64{c.Load(a.total)}
}

// Run a small application under the paper's home-based protocol.
func Example() {
	res, err := gosvm.Run(gosvm.Options{
		Protocol:  gosvm.HLRC,
		Machine:   gosvm.Machine{Nodes: 4},
		PageBytes: 4096,
	}, &sumApp{})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Data[0])
	// Output: 10
}

// Compare a workload across all four of the paper's protocols.
func Example_protocols() {
	for _, proto := range gosvm.Protocols {
		res, err := gosvm.Run(gosvm.Options{
			Protocol:  proto,
			Machine:   gosvm.Machine{Nodes: 4},
			PageBytes: 4096,
		}, &sumApp{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %v\n", proto, res.Data[0])
	}
	// Output:
	// lrc: 10
	// olrc: 10
	// hlrc: 10
	// ohlrc: 10
}

// Capture a protocol event trace.
func ExampleOptions_traceLimit() {
	res, err := gosvm.Run(gosvm.Options{
		Protocol:   gosvm.HLRC,
		Machine:    gosvm.Machine{Nodes: 4},
		PageBytes:  4096,
		TraceLimit: -1,
	}, &sumApp{})
	if err != nil {
		panic(err)
	}
	counts := res.Trace.Counts()
	fmt.Println(counts[0] > 0) // read misses captured
	// Output: true
}
