// Protocols: the paper's headline experiment in miniature. A
// multiple-writer workload with reader fan-out — every processor writes
// its own words of shared pages (false sharing), then every processor
// reads everything — runs under all four protocols across machine sizes,
// showing the two results the paper establishes:
//
//  1. home-based protocols (HLRC/OHLRC) outperform homeless ones
//     (LRC/OLRC), with the gap widening as the machine grows: an LRC
//     reader must collect diffs from every writer of a page, while an
//     HLRC reader fetches the merged page from its home in one round
//     trip; and
//  2. co-processor overlapping (O-variants) adds a further, more modest
//     improvement.
//
// Run it with:
//
//	go run ./examples/protocols
package main

import (
	"fmt"
	"log"

	"gosvm"
)

// falseSharing is the workload: a shared region written word-interleaved
// by all processors and then read by all of them, round after round —
// the fine-grained multiple-writer pattern (the paper's Raytrace and
// Water cases) that page-based protocols must merge.
type falseSharing struct {
	words  int
	rounds int
	data   gosvm.Addr
}

func (a *falseSharing) Name() string { return "falsesharing" }

func (a *falseSharing) Setup(s *gosvm.Setup) {
	a.data = s.Alloc(a.words)
}

func (a *falseSharing) Init(w *gosvm.Init) {
	for i := 0; i < a.words; i++ {
		w.Store(a.data+gosvm.Addr(i), 0)
	}
}

func (a *falseSharing) Worker(c *gosvm.Ctx, id int) {
	p := c.Nodes()
	bar := 0
	for r := 0; r < a.rounds; r++ {
		// Write phase: word-interleaved, so every page has p writers.
		for i := id; i < a.words; i += p {
			c.Store(a.data+gosvm.Addr(i), c.Load(a.data+gosvm.Addr(i))+1)
		}
		c.Compute(2 * gosvm.Millisecond)
		c.Barrier(bar)
		bar++
		// Read phase: every processor consumes the merged region.
		sum := 0.0
		for i := 0; i < a.words; i++ {
			sum += c.Load(a.data + gosvm.Addr(i))
		}
		if want := float64((r + 1) * a.words); sum != want {
			log.Fatalf("proc %d round %d: sum %v, want %v", id, r, sum, want)
		}
		c.Compute(2 * gosvm.Millisecond)
		c.Barrier(bar)
		bar++
	}
}

func (a *falseSharing) Gather(c *gosvm.Ctx) []float64 {
	out := make([]float64, a.words)
	c.ReadRange(a.data, out)
	return out
}

func main() {
	fmt.Println("Multiple-writer false sharing with reader fan-out:")
	fmt.Println()
	fmt.Printf("%8s  %10s %10s %10s %10s   %s\n", "nodes", "LRC", "OLRC", "HLRC", "OHLRC", "HLRC/LRC gain")
	for _, procs := range []int{4, 8, 16, 32} {
		times := map[gosvm.Protocol]float64{}
		for _, proto := range gosvm.Protocols {
			app := &falseSharing{words: 4096, rounds: 3}
			res, err := gosvm.Run(gosvm.Options{
				Protocol:  proto,
				Machine:   gosvm.Machine{Nodes: procs},
				PageBytes: 4096,
			}, app)
			if err != nil {
				log.Fatal(err)
			}
			for i, v := range res.Data {
				if v != float64(app.rounds) {
					log.Fatalf("%s/p%d: word %d = %v, want %d", proto, procs, i, v, app.rounds)
				}
			}
			times[proto] = res.Stats.Elapsed.Micros() / 1e3
		}
		fmt.Printf("%8d  %8.1fms %8.1fms %8.1fms %8.1fms   %.2fx\n",
			procs, times[gosvm.LRC], times[gosvm.OLRC], times[gosvm.HLRC], times[gosvm.OHLRC],
			times[gosvm.LRC]/times[gosvm.HLRC])
	}
	fmt.Println("\nThe home-based advantage grows with machine size; overlapping")
	fmt.Println("adds a smaller improvement on top — the paper's two findings.")
}
