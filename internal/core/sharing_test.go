package core

import (
	"fmt"
	"testing"

	"gosvm/internal/mem"
)

func baseOf(e Engine) *base {
	switch e := e.(type) {
	case *hlrcEngine:
		return &e.base
	case *lrcEngine:
		return &e.base
	}
	panic(fmt.Sprintf("no base in %T", e))
}

// checkLogShared verifies that every record in node id's interval log is
// the very object its writer logged, and returns how many it compared.
// Worker context on the sequential kernel, so reading a peer's engine is
// safe; callers make sure the writers cannot have pruned yet.
func checkLogShared(t *testing.T, sys *System, id int) int {
	checked := 0
	for p, recs := range baseOf(sys.Engines[id]).log {
		own := baseOf(sys.Engines[p]).log[p]
		for _, r := range recs {
			var orig *IntervalRec
			for _, o := range own {
				if o.Interval == r.Interval {
					orig = o
				}
			}
			switch {
			case r.Proc != p || r.VC == nil:
				t.Errorf("node %d logs a damaged record under proc %d: %+v", id, p, *r)
			case orig == nil:
				t.Errorf("node %d: interval %d of node %d is gone from its writer's log", id, r.Interval, p)
			case orig != r:
				t.Errorf("node %d holds a private copy of interval %d of node %d", id, r.Interval, p)
			}
			checked++
		}
	}
	return checked
}

// sharingApp moves records over both paths: every node writes a page of
// its own and barriers (records travel in reports and releases), then
// every node increments a lock-protected counter (records travel in
// grants, and under the home-based protocols stay logged until the next
// barrier). Each node inspects its log just before the closing barrier,
// when no writer can have pruned what it holds, and node 0 once more in
// the gather phase.
func sharingApp(t *testing.T, checked *int) *testApp {
	var own, counter mem.Addr
	var stride mem.Addr
	return &testApp{
		name: "sharing",
		setup: func(s *Setup) {
			stride = mem.Addr(s.Space.PageWords)
			own = s.Alloc(s.P * s.Space.PageWords)
			counter = s.Alloc(1)
		},
		init: func(w *Init) {
			for i := 0; i < w.P; i++ {
				w.SetHome(own+mem.Addr(i)*stride, 1, i)
			}
		},
		worker: func(c *Ctx, id int) {
			c.Store(own+mem.Addr(id)*stride, float64(id+1))
			c.Barrier(0)
			c.Lock(1)
			c.Store(counter, c.Load(counter)+1)
			c.Unlock(1)
			*checked += checkLogShared(t, c.sys, id)
			c.Barrier(1)
		},
		gather: func(c *Ctx) []float64 {
			*checked += checkLogShared(t, c.sys, 0)
			return []float64{c.Load(counter)}
		},
	}
}

// TestIntervalRecordsAreShared pins tentpole (a): one *IntervalRec per
// interval machine-wide, on every delivery path, and no simulated number
// moved by it. The totals are the parent commit's (per-receiver copies,
// vectors stripped on the wire): elapsed time, bytes sent, and the sum of
// the per-node protocol-memory peaks, which is where the "writer's entry
// is charged with its vector, a receiver's is not" rule would show.
func TestIntervalRecordsAreShared(t *testing.T) {
	type totals struct{ elapsed, bytes, memPeak int64 }
	want := map[string]totals{
		"lrc/central":   {47713351, 44572, 75032},
		"lrc/tree":      {44014265, 48456, 74408},
		"olrc/central":  {35892975, 44572, 62960},
		"olrc/tree":     {22202408, 49160, 63200},
		"hlrc/central":  {61668706, 28720, 36340},
		"hlrc/tree":     {48018970, 31420, 36340},
		"ohlrc/central": {35476207, 28720, 36340},
		"ohlrc/tree":    {21913715, 31420, 36340},
	}
	for _, proto := range Protocols {
		for _, barrier := range []string{"central", "tree"} {
			proto, barrier := proto, barrier
			name := fmt.Sprintf("%s/%s", proto, barrier)
			t.Run(name, func(t *testing.T) {
				opts := testOpts(proto, 16)
				if barrier == "tree" {
					opts.Machine.treeRadix = 4
				}
				checked := 0
				res := runOrFail(t, opts, sharingApp(t, &checked))
				if res.Data[0] != 16 {
					t.Fatalf("counter = %v, want 16", res.Data[0])
				}
				if checked < 16 {
					t.Errorf("only %d log records compared: the app no longer exercises the log", checked)
				}
				got := totals{elapsed: int64(res.Stats.Elapsed)}
				for _, nd := range res.Stats.Nodes {
					got.bytes += nd.Bytes[0] + nd.Bytes[1]
					got.memPeak += nd.ProtoMemPeak
				}
				if got != want[name] {
					t.Errorf("totals %+v, want the parent's %+v", got, want[name])
				}
			})
		}
	}
}
