package core

import (
	"testing"

	"gosvm/internal/mem"
)

// oneWriterApp stores into a single page from node 0 each episode, then
// everyone barriers. The active writer set is fixed, so per-sync-op
// protocol work must not grow with machine size.
func oneWriterApp(episodes int) *testApp {
	var addr mem.Addr
	return &testApp{
		name:  "onewriter",
		setup: func(s *Setup) { addr = s.Alloc(1) },
		init: func(w *Init) {
			w.Store(addr, 0)
			w.SetHome(addr, 1, 0)
		},
		worker: func(c *Ctx, id int) {
			for e := 0; e < episodes; e++ {
				if id == 0 {
					c.Store(addr, float64(e+1))
				}
				c.Barrier(e)
			}
		},
		gather: func(c *Ctx) []float64 { return []float64{c.Load(addr)} },
	}
}

// allWritersApp has every node store into a page of its own each episode,
// then everyone barriers: each release carries one interval record per
// peer, and every node takes a write notice for every peer's page.
func allWritersApp(episodes int) *testApp {
	var addr mem.Addr
	var stride mem.Addr
	return &testApp{
		name: "allwriters",
		setup: func(s *Setup) {
			stride = mem.Addr(s.Space.PageWords)
			addr = s.Alloc(s.P * s.Space.PageWords)
		},
		init: func(w *Init) {
			for i := 0; i < w.P; i++ {
				w.SetHome(addr+mem.Addr(i)*stride, 1, i)
			}
		},
		worker: func(c *Ctx, id int) {
			for e := 0; e < episodes; e++ {
				c.Store(addr+mem.Addr(id)*stride, float64(e+1))
				c.Barrier(e)
			}
		},
		gather: func(c *Ctx) []float64 { return []float64{c.Load(addr)} },
	}
}

// TestSyncOpAllocsFlatInNodeCount guards the scaling contract: the host
// allocation COUNT per (node x barrier episode) stays constant as the
// machine grows. Sparse vector clocks, the tree barrier, and lazily
// materialized per-node state keep it O(1); a regression to dense
// per-node vectors or eager state shows up as per-op allocations
// scaling with the node count. (Allocation sizes may still grow — one
// dense clock buffer is one allocation at any machine size.)
//
// With one writer nothing per (node x record) or per (node x page) can
// show, so the all-writers case stands beside it: there every release
// delivers a record and a notice per peer, and what may grow with the
// machine is the slab blocks those are carved from — a private copy of
// each record, or a vector or list allocated per noticed page, costs
// allocations per node per peer per episode and fails this.
func TestSyncOpAllocsFlatInNodeCount(t *testing.T) {
	const episodes = 30
	apps := []struct {
		prefix string
		mk     func(int) *testApp
		slack  float64
	}{{"", oneWriterApp, 2}, {"all-writers/", allWritersApp, 8}}
	for _, app := range apps {
		for _, proto := range []Protocol{ProtoHLRC, ProtoLRC} {
			app, proto := app, proto
			t.Run(app.prefix+string(proto), func(t *testing.T) {
				perOp := func(p int) float64 {
					total := testing.AllocsPerRun(2, func() {
						if _, err := Run(testOpts(proto, p), app.mk(episodes), false); err != nil {
							t.Fatal(err)
						}
					})
					return total / float64(p*episodes)
				}
				// 8 nodes takes the centralized barrier, 96 the tree (auto
				// crossover at 64), so both implementations are under guard.
				small := perOp(8)
				large := perOp(96)
				if large > 1.6*small+app.slack {
					t.Errorf("allocs per sync op grew with machine size: %.1f at p=8, %.1f at p=96", small, large)
				}
				if testing.Verbose() {
					t.Logf("%.1f allocs per (node x episode) at p=8, %.1f at p=96", small, large)
				}
			})
		}
	}
}
