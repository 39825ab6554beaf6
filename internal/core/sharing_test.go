package core

import (
	"fmt"
	"testing"

	"gosvm/internal/fault"
	"gosvm/internal/mem"
	"gosvm/internal/sim"
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
// the very object its writer logged, logged once and in interval order, and
// returns how many it compared. Worker context on the sequential kernel, so
// reading a peer's engine is safe; callers make sure the writers cannot have
// pruned yet.
func checkLogShared(t *testing.T, sys *System, id int) int {
	checked := 0
	for p, recs := range baseOf(sys.Engines[id]).log {
		own := baseOf(sys.Engines[p]).log[p]
		for i, r := range recs {
			if i > 0 && r.Interval <= recs[i-1].Interval {
				t.Errorf("node %d logs interval %d of node %d after interval %d", id, r.Interval, p, recs[i-1].Interval)
			}
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
// the gather phase. A non-zero lead holds every node but 0 back that long
// before its acquire, so node 0 takes the lock first and caches the token.
func sharingApp(t *testing.T, checked *int, lead sim.Time) *testApp {
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
			if lead > 0 && id != 0 {
				c.Compute(lead)
			}
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

// TestIntervalRecordsAreShared pins one *IntervalRec per interval
// machine-wide, logged once per node, on every delivery path: elapsed time,
// bytes sent, and the sum of the per-node protocol-memory peaks, which is
// where a record logged twice, or the "writer's entry is charged with its
// vector, a receiver's is not" rule, would show. In the crash-mgr cell
// node 0, the barrier manager, takes the lock first and dies with the token
// cached; the next acquirer's forward, and every fetch of a page it homes,
// waits out its restart.
func TestIntervalRecordsAreShared(t *testing.T) {
	type totals struct{ elapsed, bytes, memPeak int64 }
	want := map[string]totals{
		"lrc/central":    {47713351, 44572, 72448},
		"lrc/tree":       {51753162, 48160, 71496},
		"olrc/central":   {35892975, 44572, 60376},
		"olrc/tree":      {32243594, 48160, 62856},
		"hlrc/central":   {61668706, 28720, 35612},
		"hlrc/tree":      {47306814, 29452, 35612},
		"ohlrc/central":  {35476207, 28720, 35612},
		"ohlrc/tree":     {29243800, 29452, 35612},
		"hlrc/crash-mgr": {124592344, 36092, 35612},
	}
	cell := func(name string, opts Options, lead sim.Time) {
		t.Run(name, func(t *testing.T) {
			checked := 0
			res := runOrFail(t, opts, sharingApp(t, &checked, lead))
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
				t.Errorf("totals %+v, want %+v", got, want[name])
			}
		})
	}
	for _, proto := range Protocols {
		for _, barrier := range []string{"central", "tree"} {
			opts := testOpts(proto, 16)
			if barrier == "tree" {
				opts.Machine.treeRadix = 4
			}
			cell(fmt.Sprintf("%s/%s", proto, barrier), opts, 0)
		}
	}
	opts := testOpts(ProtoHLRC, 16)
	opts.Fault = fault.Plan{Crashes: []fault.Crash{{Node: 0, At: 16 * sim.Millisecond, RestartAt: 56 * sim.Millisecond}}}
	cell("hlrc/crash-mgr", opts, 10*sim.Millisecond)
}
