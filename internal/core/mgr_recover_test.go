package core

import (
	"fmt"
	"testing"

	"gosvm/internal/fault"
	"gosvm/internal/mem"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
)

// mgrStressApp exercises both synchronization-manager roles hard: 2p
// counters, each on its own page and protected by its own lock, so every
// node serves lock-manager duty for two locks, and a barrier closes
// every round. Worker id touches counter (id+r)%(2p) in round r, which
// rotates every worker over every lock (and thus over every manager).
func mgrStressApp(p, rounds int, step sim.Time) *testApp {
	var base mem.Addr
	const words = 64 // one 512-byte page per counter
	n := 2 * p
	return &testApp{
		name:  "mgrstress",
		setup: func(s *Setup) { base = s.Alloc(n * words) },
		init: func(w *Init) {
			for i := 0; i < n*words; i++ {
				w.Store(base+mem.Addr(i), 0)
			}
		},
		worker: func(c *Ctx, id int) {
			for r := 1; r <= rounds; r++ {
				c.Compute(step)
				j := (id + r) % n
				c.Lock(j)
				v := c.Load(base + mem.Addr(j*words))
				c.Compute(5 * sim.Microsecond)
				c.Store(base+mem.Addr(j*words), v+1)
				c.Unlock(j)
				c.Barrier(r)
			}
		},
		gather: func(c *Ctx) []float64 {
			out := make([]float64, n)
			for j := 0; j < n; j++ {
				out[j] = c.Load(base + mem.Addr(j*words))
			}
			return out
		},
	}
}

// TestMgrCrashBitwise is the headline property: crash windows that take
// out a lock-manager node and the barrier-manager node (node 0) must
// complete with results bitwise identical to the failure-free run, for
// both home-based protocols. The managers and the pages they home are
// waited out, so the crash run is slower.
func TestMgrCrashBitwise(t *testing.T) {
	const p, rounds = 4, 100
	plan, err := fault.Profile(fault.ProfileCrashMgr, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []Protocol{ProtoHLRC, ProtoOHLRC} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			app := func() *testApp { return mgrStressApp(p, rounds, 400*sim.Microsecond) }
			base := runOrFail(t, testOpts(proto, p), app())

			opts := testOpts(proto, p)
			opts.Fault = plan
			res := runOrFail(t, opts, app())

			if len(res.Data) != len(base.Data) {
				t.Fatalf("result length changed under manager crashes: %d vs %d",
					len(res.Data), len(base.Data))
			}
			for i := range base.Data {
				if res.Data[i] != base.Data[i] {
					t.Fatalf("word %d = %v under manager crashes, want %v",
						i, res.Data[i], base.Data[i])
				}
			}
			if res.Stats.Elapsed <= base.Stats.Elapsed {
				t.Fatalf("crash run not slower than fault-free: %v vs %v",
					res.Stats.Elapsed, base.Stats.Elapsed)
			}
		})
	}
}

// A barrier-manager crash landing mid-episode — after some arrivals are
// registered, before the release — keeps those arrivals: the restarted
// manager completes the episode and the run ends with fault-free results.
func TestBarrierMgrCrashMidBarrier(t *testing.T) {
	const p, rounds = 4, 30
	for _, proto := range []Protocol{ProtoHLRC, ProtoOHLRC} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			app := func() *testApp { return mgrStressApp(p, rounds, 300*sim.Microsecond) }
			base := runOrFail(t, testOpts(proto, p), app())

			opts := testOpts(proto, p)
			// Stagger the workers' compute so node 0 dies while its
			// barrier holds a strict subset of the arrivals.
			opts.Fault = fault.Plan{
				Seed:    1,
				Crashes: []fault.Crash{{Node: 0, At: 2100 * sim.Microsecond, RestartAt: 9 * sim.Millisecond}},
			}
			res := runOrFail(t, opts, app())

			for i := range base.Data {
				if res.Data[i] != base.Data[i] {
					t.Fatalf("word %d = %v under a mid-barrier manager crash, want %v",
						i, res.Data[i], base.Data[i])
				}
			}
		})
	}
}

// A node that crashes with a lock token keeps it, whether it is inside the
// critical section or holds the token free and cached: no token is ever
// revoked, so the other acquirer waits out the outage and both increments
// land. In the k0 rows the counter page lives at node 0, the acquirer; in
// the k1 rows at node 1, the crashed holder, so the acquirer's read of the
// counter waits out the outage too. Every row runs under all four
// protocols.
func TestCrashInsideCriticalSection(t *testing.T) {
	type row struct {
		name                 string
		home                 int
		at, restart          sim.Time
		hold, acquire, floor sim.Time // node 1's critical section, node 0's Lock time, its least lock wait
	}
	var rows []row
	const at, acquire = sim.Millisecond, 2 * sim.Millisecond
	for _, home := range []int{0, 1} {
		for _, restart := range []sim.Time{4 * sim.Millisecond, 8 * sim.Millisecond, 20 * sim.Millisecond} {
			// Node 1 crashes inside its 10 ms critical section.
			rows = append(rows, row{fmt.Sprintf("k%d/restart%dms", home, restart/sim.Millisecond),
				home, at, restart, 10 * sim.Millisecond, acquire, restart - at})
		}
	}
	// Node 1 has unlocked by 2.5 ms, so the token sits free in its cache
	// when it crashes, before node 0 asks for it at 4 ms.
	const restart = 40 * sim.Millisecond
	for _, home := range []int{0, 1} {
		rows = append(rows, row{fmt.Sprintf("free/k%d/restart40ms", home), home, 2500 * sim.Microsecond, restart, 0,
			4 * sim.Millisecond, restart - 4*sim.Millisecond})
	}
	for _, r := range rows {
		r := r
		t.Run(r.name, func(t *testing.T) {
			for _, proto := range Protocols {
				proto := proto
				t.Run(proto.String(), func(t *testing.T) {
					var addr mem.Addr
					const lock = 2 // managed by node 0, cached or held by node 1 at the crash
					app := &testApp{
						name:  "heldcrash",
						setup: func(s *Setup) { addr = s.Alloc(64) },
						init: func(w *Init) {
							for i := 0; i < 64; i++ {
								w.Store(addr+mem.Addr(i), 0)
							}
							w.SetHome(addr, 64, r.home)
						},
						worker: func(c *Ctx, id int) {
							if id == 1 {
								c.Lock(lock)
								c.Compute(r.hold)
								c.Store(addr, c.Load(addr)+1)
								c.Unlock(lock)
							} else {
								c.Compute(r.acquire)
								c.Lock(lock)
								c.Store(addr, c.Load(addr)+1)
								c.Unlock(lock)
							}
							c.Barrier(0)
						},
						gather: func(c *Ctx) []float64 { return []float64{c.Load(addr)} },
					}
					opts := testOpts(proto, 2)
					opts.Fault = fault.Plan{
						Seed:    1,
						Crashes: []fault.Crash{{Node: 1, At: r.at, RestartAt: r.restart}},
					}
					res := runOrFail(t, opts, app)
					if res.Data[0] != 2 {
						t.Fatalf("counter = %v, want 2", res.Data[0])
					}
					if wait := res.Stats.Nodes[0].Time[stats.CatLock]; wait < r.floor {
						t.Fatalf("acquirer waited %v, less than the %v left of the outage", wait, r.floor)
					}
				})
			}
		})
	}
}

// Chained crashes: the crash-mgr profile kills node 0 and then node 1, each
// a manager and a home. The run must stay deterministic: two identical
// runs, byte-identical stats.
func TestMgrCrashChainedDeterminism(t *testing.T) {
	plan, err := fault.Profile(fault.ProfileCrashMgr, 9)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		opts := testOpts(ProtoOHLRC, 4)
		opts.Fault = plan
		return runOrFail(t, opts, mgrStressApp(4, 100, 400*sim.Microsecond))
	}
	r1, r2 := run(), run()
	if r1.Stats.Elapsed != r2.Stats.Elapsed {
		t.Fatalf("elapsed differs: %v vs %v", r1.Stats.Elapsed, r2.Stats.Elapsed)
	}
	for i := range r1.Stats.Nodes {
		if *r1.Stats.Nodes[i] != *r2.Stats.Nodes[i] {
			t.Fatalf("node %d stats differ:\n%+v\n%+v", i, r1.Stats.Nodes[i], r2.Stats.Nodes[i])
		}
	}
	for i := range r1.Data {
		if r1.Data[i] != r2.Data[i] {
			t.Fatalf("data word %d differs: %v vs %v", i, r1.Data[i], r2.Data[i])
		}
	}
}
