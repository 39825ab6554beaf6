package core

import (
	"fmt"
	"testing"
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
// and the rendezvous stays centralized. The homeless protocols must still
// produce correct data.
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

// TestBarrierReleasesAreAnswers runs a barrier-only app on an 8-node binary
// tree: node 0 over 1 and 2, 1 over 3 and 4, 2 over 5 and 6, 3 over 7. Each
// release is the answer to the Call that reported the subtree, so a node
// services only its children's arrivals: a leaf no barrier message at all,
// a node with children exactly one per child per episode.
func TestBarrierReleasesAreAnswers(t *testing.T) {
	const procs, radix, episodes = 8, 2, 5
	app := &testApp{
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
	for _, proto := range Protocols {
		t.Run(string(proto), func(t *testing.T) {
			res := runOrFail(t, treeOpts(proto, procs, radix), app)
			for i, nd := range res.Stats.Nodes {
				if nd.Counts.Barriers != episodes {
					t.Fatalf("node %d entered %d barriers, want %d", i, nd.Counts.Barriers, episodes)
				}
				children := max(0, min(radix*i+radix, procs-1)-radix*i)
				if want := int64(children * episodes); nd.MsgsIn != want {
					t.Errorf("node %d (%d children) serviced %d messages, want %d", i, children, nd.MsgsIn, want)
				}
			}
		})
	}
}
