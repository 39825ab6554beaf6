package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"gosvm/internal/fault"
	"gosvm/internal/mem"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
)

// treeOpts returns options forcing the barrier tree's fan-in to radix.
func treeOpts(proto Protocol, p, radix int) Options {
	o := testOpts(proto, p)
	o.Machine.treeRadix = radix
	return o
}

// fingerprint renders every observable of a run — elapsed time, gathered
// data, and the complete per-node statistics — into one comparable string.
func fingerprint(res *Result) string {
	out := fmt.Sprintf("elapsed=%d data=%v\n", res.Stats.Elapsed, res.Data)
	for i, nd := range res.Stats.Nodes {
		out += fmt.Sprintf("node%d=%+v\n", i, *nd)
	}
	return out
}

// TestTreeBarrierMatchesCentral runs the same applications with the
// barrier a star around the manager (the default up to BarrierCrossover)
// and a deeper tree. Both exchange the same coherence information over
// different message patterns, so the gathered application data must be
// bitwise identical; timing legitimately differs.
func TestTreeBarrierMatchesCentral(t *testing.T) {
	cases := []struct {
		procs, radix int
		mk           func() *testApp
	}{
		{4, 2, func() *testApp { return barrierVisApp(300) }}, // binary tree, internal nodes
		{8, 2, multiWriterApp},                                // depth-3 binary tree
		{8, 8, func() *testApp { return counterApp(4) }},      // flat tree: root + 7 leaves
		{13, 3, func() *testApp { return migratoryApp(3) }},   // uneven last level
		{16, 4, multiWriterApp},
		{64, 8, func() *testApp { return barrierVisApp(600) }},
	}
	for _, tc := range cases {
		for _, proto := range Protocols {
			tc, proto := tc, proto
			name := fmt.Sprintf("%s/%s/p%d/r%d", tc.mk().Name(), proto, tc.procs, tc.radix)
			t.Run(name, func(t *testing.T) {
				want := runOrFail(t, testOpts(proto, tc.procs), tc.mk())
				got := runOrFail(t, treeOpts(proto, tc.procs, tc.radix), tc.mk())
				if len(got.Data) != len(want.Data) {
					t.Fatalf("data length %d != %d", len(got.Data), len(want.Data))
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("data[%d] = %v under tree, %v under central", i, got.Data[i], want.Data[i])
					}
				}
			})
		}
	}
}

// TestTreeBarrierDeterminism re-runs a tree-barrier configuration and
// demands identical fingerprints: same data, same elapsed time, same
// per-node statistics.
func TestTreeBarrierDeterminism(t *testing.T) {
	for _, proto := range Protocols {
		for _, p := range []int{8, 21, 64} {
			proto, p := proto, p
			t.Run(fmt.Sprintf("%s/p%d", proto, p), func(t *testing.T) {
				opts := treeOpts(proto, p, 4)
				a := fingerprint(runOrFail(t, opts, multiWriterApp()))
				b := fingerprint(runOrFail(t, opts, multiWriterApp()))
				if a != b {
					t.Fatalf("tree barrier run not deterministic:\n--- first ---\n%s--- second ---\n%s", a, b)
				}
			})
		}
	}
}

// TestTreeBarrierGC forces garbage collection under the tree barrier: the
// GC decision is made at the root from aggregated subtree memory maxima,
// and the rendezvous runs through the same tree. The homeless protocols
// must still produce correct data.
func TestTreeBarrierGC(t *testing.T) {
	for _, proto := range []Protocol{ProtoLRC, ProtoOLRC} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			opts := treeOpts(proto, 12, 3)
			opts.GCThreshold = 1 // any protocol memory triggers GC
			res := runOrFail(t, opts, multiWriterApp())
			var gcs int64
			for _, nd := range res.Stats.Nodes {
				gcs += nd.Counts.GCs
			}
			if gcs == 0 {
				t.Fatal("expected at least one GC under the tree barrier")
			}
			central := testOpts(proto, 12)
			central.GCThreshold = 1
			want := runOrFail(t, central, multiWriterApp())
			for i := range want.Data {
				if res.Data[i] != want.Data[i] {
					t.Fatalf("data[%d] = %v under tree+GC, %v under central+GC", i, res.Data[i], want.Data[i])
				}
			}
		})
	}
}

// TestBarrierAutoCrossover checks the fan-in rule: n-1 at and below the
// crossover, so every node reports straight to the manager; barrierFanIn
// above it; and the test seam wins at any size.
func TestBarrierAutoCrossover(t *testing.T) {
	for _, n := range []int{2, 8, BarrierCrossover} {
		m := Machine{Nodes: n}
		if r := m.barrierRadix(); r != n-1 {
			t.Errorf("%d nodes: fan-in %d, want %d", n, r, n-1)
		}
	}
	for _, n := range []int{BarrierCrossover + 1, 1024} {
		m := Machine{Nodes: n}
		if r := m.barrierRadix(); r != barrierFanIn {
			t.Errorf("%d nodes: fan-in %d, want %d", n, r, barrierFanIn)
		}
	}
	for _, n := range []int{4, 1024} {
		m := Machine{Nodes: n, treeRadix: 2}
		if r := m.barrierRadix(); r != 2 {
			t.Errorf("%d nodes forced to fan-in 2: fan-in %d", n, r)
		}
	}
}

// TestBarrierReleasesAreAnswers runs rendezvous on binary trees. Each
// barrier release is the answer to the Call that reported the subtree, and
// each GC rendezvous's release the answer to its kGCDone, so a node services
// only its children's arrivals: a leaf no message at all, a node with c
// children exactly c per barrier episode and c per collection. Every
// protocol runs barriers alone on an 8-node tree (node 0 over 1 and 2, 1
// over 3 and 4, 2 over 5 and 6, 3 over 7); the homeless ones also run
// rendezvousApp on a 7-node tree, with a collection at every barrier.
func TestBarrierReleasesAreAnswers(t *testing.T) {
	const radix, episodes = 2, 4
	barriers := &testApp{
		name:  "barriers",
		setup: func(s *Setup) { s.Alloc(1) },
		init:  func(*Init) {},
		worker: func(c *Ctx, id int) {
			for i := 0; i < episodes; i++ {
				c.Barrier(i)
			}
		},
		gather: func(*Ctx) []float64 { return nil },
	}
	check := func(t *testing.T, opts Options, app *testApp, gcs int64) {
		t.Helper()
		res, n := runOrFail(t, opts, app), opts.Machine.Nodes
		for i, nd := range res.Stats.Nodes {
			if nd.Counts.Barriers != episodes || nd.Counts.GCs != gcs {
				t.Fatalf("node %d entered %d barriers and collected %d times, want %d and %d",
					i, nd.Counts.Barriers, nd.Counts.GCs, episodes, gcs)
			}
			children := max(0, min(radix*i+radix, n-1)-radix*i)
			if want := int64(children) * (episodes + gcs); nd.MsgsIn != want {
				t.Errorf("node %d (%d children) serviced %d messages, want %d", i, children, nd.MsgsIn, want)
			}
		}
	}
	for _, proto := range Protocols {
		t.Run(string(proto), func(t *testing.T) {
			check(t, treeOpts(proto, 8, radix), barriers, 0)
			if proto.HomeBased() {
				return
			}
			t.Run("gc", func(t *testing.T) {
				opts := treeOpts(proto, 7, radix)
				opts.GCThreshold = 1
				check(t, opts, rendezvousApp(7, episodes), episodes)
			})
		})
	}
}

// rendezvousApp runs episodes barriers over pages pages, each ending an
// interval in which node j%n writes page j of an n-node machine: a node
// touches no page but its own, so the collection at each barrier gives node
// 0 nothing to wait for but the rendezvous itself.
func rendezvousApp(pages, episodes int) *testApp {
	const stride = 64 // words per 512-byte page
	var addr mem.Addr
	return &testApp{
		name:  "rendezvous",
		setup: func(s *Setup) { addr = s.Alloc(pages * stride) },
		init:  func(*Init) {},
		worker: func(c *Ctx, id int) {
			for e := 0; e < episodes; e++ {
				for j := id; j < pages; j += c.Nodes() {
					c.Store(addr+mem.Addr(j*stride+e), float64(100*e+j))
				}
				c.Compute(100 * sim.Microsecond)
				c.Barrier(e)
			}
		},
		gather: func(c *Ctx) []float64 {
			out := make([]float64, pages*stride)
			c.ReadRange(addr, out)
			return out
		},
	}
}

// TestRendezvousInBothOrders runs every barrier and GC rendezvous of an
// LRC run with the manager, node 0, reaching it first and then last, on the
// central barrier and on a binary tree. A slowdown by 1000 of every other
// node makes node 0 first: it waits at every episode after the first
// phase's, both in the barrier and at the rendezvous. A slowdown of node 0
// alone makes it last: its proc never waits at either. Every node counts
// the same collections, one per episode, and the result is the sequential
// run's.
func TestRendezvousInBothOrders(t *testing.T) {
	const episodes = 4
	for _, shape := range []struct {
		name         string
		procs, radix int
	}{{"central", 4, 0}, {"tree", 7, 2}} {
		for _, first := range []bool{true, false} {
			order := "manager-last"
			if first {
				order = "manager-first"
			}
			t.Run(shape.name+"/"+order, func(t *testing.T) {
				opts := treeOpts(ProtoLRC, shape.procs, shape.radix)
				opts.GCThreshold = 1
				for n := range shape.procs {
					if (n == 0) != first {
						opts.Fault.Slowdowns = append(opts.Fault.Slowdowns,
							fault.Slowdown{Node: n, To: sim.Time(math.MaxInt64), Factor: 1000})
					}
				}
				app := func() *testApp { return rendezvousApp(shape.procs, episodes) }
				seq := runOrFail(t, testOpts(ProtoSeq, 1), app())
				res, err := Run(opts, app(), true)
				if err != nil {
					t.Fatal(err)
				}
				for i, nd := range res.Stats.Nodes {
					if nd.Counts.GCs != episodes {
						t.Errorf("node %d collected %d times, want %d", i, nd.Counts.GCs, episodes)
					}
				}
				if !slices.EqualFunc(res.Data, seq.Data, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
					t.Errorf("result %v, want the sequential run's %v", res.Data, seq.Data)
				}
				mgr := res.Stats.Nodes[0].Time
				if !first {
					if mgr[stats.CatBarrier] != 0 || mgr[stats.CatGC] != 0 {
						t.Errorf("node 0 waited %v in barriers and %v at rendezvous, want neither: it arrives last",
							mgr[stats.CatBarrier], mgr[stats.CatGC])
					}
					return
				}
				// An episode's waits land in the next phase: its hook runs
				// at the root before the root's own wait is charged.
				for _, ph := range res.Phases[1:] {
					w := ph.PerNode[0].Time
					if w[stats.CatBarrier] == 0 || w[stats.CatGC] == 0 {
						t.Errorf("phase %d: node 0 waited %v in the barrier and %v at the rendezvous, want both above zero: it arrives first",
							ph.Barrier, w[stats.CatBarrier], w[stats.CatGC])
					}
				}
			})
		}
	}
}
