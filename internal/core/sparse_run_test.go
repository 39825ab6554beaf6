package core

import (
	"fmt"
	"testing"

	"gosvm/internal/vc"
)

// eachVector calls f for every per-page and per-interval vector the engines
// of sys hold: interval records in every node's log, HLRC's seen and flush
// vectors, LRC's applied vectors. Absent vectors are skipped.
func eachVector(sys *System, f func(what string, v *vc.Sparse)) {
	for id, eng := range sys.Engines {
		for _, recs := range baseOf(eng).log {
			for _, r := range recs {
				if r.VC != nil {
					f(fmt.Sprintf("node %d: record %d:%d", id, r.Proc, r.Interval), r.VC)
				}
			}
		}
		switch e := eng.(type) {
		case *hlrcEngine:
			e.pages.Each(func(pg int, m *hlrcPage) {
				if v := vecOrNil(&m.seen); v != nil {
					f(fmt.Sprintf("node %d: seen of page %d", id, pg), v)
				}
				if m.use != nil && vecOrNil(m.use.flushVC) != nil {
					f(fmt.Sprintf("node %d: flush vector of page %d", id, pg), m.use.flushVC)
				}
			})
		case *lrcEngine:
			e.pages.Each(func(pg int, m *lrcPage) {
				if m.use != nil && vecOrNil(&m.use.appliedVC) != nil {
					f(fmt.Sprintf("node %d: applied vector of page %d", id, pg), &m.use.appliedVC)
				}
			})
		}
	}
}

// TestSparseMatchesDenseRuns: every vector a full run leaves behind, at the
// paper's 8-node scale and at 64 nodes, matches its dense image — the
// machine's dimension, ascending procs inside it, no stored zero pair (so
// NNZ and the wire size, which every simulated message and so all timing
// depend on, count only non-zero components), and the image read back as a
// sparse vector covers it and is covered by it. The vc property tests hold
// each operation to the dense algebra; this holds what the protocols
// build from them over whole runs.
func TestSparseMatchesDenseRuns(t *testing.T) {
	cases := []struct {
		procs int
		mk    func() *testApp
	}{
		{8, func() *testApp { return counterApp(4) }},
		{8, func() *testApp { return migratoryApp(3) }},
		{8, multiWriterApp},
		{64, multiWriterApp},
		{64, func() *testApp { return migratoryApp(2) }},
	}
	for _, tc := range cases {
		for _, proto := range Protocols {
			tc, proto := tc, proto
			name := fmt.Sprintf("%s/%s/p%d", tc.mk().Name(), proto, tc.procs)
			t.Run(name, func(t *testing.T) {
				app := tc.mk()
				var sys *System
				gather := app.gather
				app.gather = func(c *Ctx) []float64 { sys = c.sys; return gather(c) }
				runOrFail(t, testOpts(proto, tc.procs), app)
				n, checked, wide := tc.procs, 0, 0
				eachVector(sys, func(what string, v *vc.Sparse) {
					checked++
					if v.NNZ() > 1 {
						wide++
					}
					nnz, last := 0, -1
					v.Each(func(p int, x int32) {
						if p <= last || p >= n || x <= 0 {
							t.Errorf("%s: %v holds (%d, %d) after proc %d", what, v, p, x, last)
						}
						nnz, last = nnz+1, p
					})
					back := vc.SparseFrom(v.Dense(n))
					if v.Dim() != n || v.NNZ() != nnz || v.WireSize() != vc.SparseWireSize(n, nnz) ||
						!back.Covers(v) || !v.Covers(back) {
						t.Errorf("%s: %v of dimension %d, NNZ %d, wire %d; its dense image reads back as %v",
							what, v, v.Dim(), v.NNZ(), v.WireSize(), back)
					}
				})
				if checked == 0 || wide == 0 {
					t.Fatalf("the run left %d vectors, %d with two components or more; want some of each", checked, wide)
				}
			})
		}
	}
}
