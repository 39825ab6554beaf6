// Command svmcosts prints the machine cost model (the paper's Table 3)
// and the derived minimum page-miss and lock-acquire latencies of §4.3,
// then verifies the derived numbers against actual micro-simulations on
// the machine model.
package main

import (
	"flag"
	"fmt"
	"os"

	"gosvm/internal/bench"
	"gosvm/internal/paragon"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
)

func main() {
	page := flag.Int("page", 8192, "page size in bytes")
	costsName := flag.String("costs", "", `cost profile: "paragon" (default; the paper's Table 3) or "modern" (us-scale kernel-bypass messaging)`)
	flag.Parse()

	c, err := paragon.CostProfile(*costsName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	bench.Table3For(os.Stdout, *page, c)

	fmt.Println("\nMicro-simulated round trips (machine model, measured):")

	measure := func(name string, target paragon.Target, respBytes int, extra sim.Time) {
		k := sim.NewKernel()
		m := paragon.New(k, 2, c)
		h := func(msg paragon.Msg) (sim.Time, func()) {
			return extra, func() {
				m.Nodes[1].Respond(msg, paragon.Msg{Size: respBytes, Class: stats.ClassData})
			}
		}
		m.Nodes[1].InstallCompute(h)
		m.Nodes[1].InstallCoproc(h)
		var rt sim.Time
		k.Spawn("req", 0, func(p *sim.Proc) {
			t0 := p.Now()
			m.Nodes[0].Call(p, 1, paragon.Msg{Size: 4, Class: stats.ClassProtocol, Target: target})
			rt = p.Now() - t0
		})
		if err := k.Run(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		k.Shutdown()
		fmt.Printf("  %-42s %7.0f us\n", name, rt.Micros())
	}

	measure("page fetch via interrupt (HLRC-style)", paragon.ToCompute, *page, 0)
	measure("page fetch via co-processor (OHLRC-style)", paragon.ToCoproc, *page, 0)
	measure("1-word diff fetch via interrupt (LRC-style)", paragon.ToCompute, 8, 0)
	measure("1-word diff fetch via co-processor (OLRC)", paragon.ToCoproc, 8, 0)
	fmt.Printf("  (add the %.0f us page fault to obtain the §4.3 miss figures)\n", c.PageFault.Micros())
}
