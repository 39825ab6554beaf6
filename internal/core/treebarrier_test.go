package core

import (
	"fmt"
	"testing"
)

// treeOpts returns options forcing the tree barrier with a given radix.
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

// TestTreeBarrierMatchesCentral runs the same applications under the
// centralized and the tree barrier. The algorithms exchange the same
// coherence information over different message patterns, so the gathered
// application data must be bitwise identical; timing legitimately
// differs.
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

// TestBarrierAutoCrossover checks the size rule: central at and below the
// crossover, tree above it, and the test seam forces the tree at any size.
func TestBarrierAutoCrossover(t *testing.T) {
	at := Machine{Nodes: BarrierCrossover}
	at.Defaults()
	if at.TreeBarrier() {
		t.Fatalf("%d nodes picked the tree barrier", BarrierCrossover)
	}
	above := Machine{Nodes: BarrierCrossover + 1}
	above.Defaults()
	if !above.TreeBarrier() {
		t.Fatalf("%d nodes did not pick the tree barrier", BarrierCrossover+1)
	}
	forced := Machine{Nodes: 4, treeRadix: 2}
	forced.Defaults()
	if !forced.TreeBarrier() || forced.barrierRadix() != 2 {
		t.Fatal("forced tree barrier ignored")
	}
}
