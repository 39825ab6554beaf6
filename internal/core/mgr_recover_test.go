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

// TestMgrFailoverBitwise is the headline property: crash windows that
// take out a lock-manager node and the barrier-manager node (node 0),
// with one backup, must complete with results bitwise identical to the
// failure-free run, for both home-based protocols, and must actually
// move manager roles and mirror manager state.
func TestMgrFailoverBitwise(t *testing.T) {
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
			opts.Recovery = Recovery{Replicas: 1}
			res := runOrFail(t, opts, app())

			if len(res.Data) != len(base.Data) {
				t.Fatalf("result length changed under manager failover: %d vs %d",
					len(res.Data), len(base.Data))
			}
			for i := range base.Data {
				if res.Data[i] != base.Data[i] {
					t.Fatalf("word %d = %v under manager crashes, want %v",
						i, res.Data[i], base.Data[i])
				}
			}
			var rehomedMgrs, mirror int64
			for _, nd := range res.Stats.Nodes {
				rehomedMgrs += nd.Counts.MgrsRehomed
				mirror += nd.MirrorBytes
			}
			if rehomedMgrs == 0 {
				t.Fatal("manager crashes recovered without re-homing any manager role")
			}
			if mirror == 0 {
				t.Fatal("replication enabled but no manager mirror traffic recorded")
			}
			if res.Stats.Elapsed <= base.Stats.Elapsed {
				t.Fatalf("crash run not slower than fault-free: %v vs %v",
					res.Stats.Elapsed, base.Stats.Elapsed)
			}
		})
	}
}

// A barrier-manager crash landing mid-episode — after some arrivals are
// registered, before the release — must be replayed on the promoted
// backup: the run completes with fault-free results.
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
			opts.Recovery = Recovery{Replicas: 1}
			res := runOrFail(t, opts, app())

			for i := range base.Data {
				if res.Data[i] != base.Data[i] {
					t.Fatalf("word %d = %v under a mid-barrier manager crash, want %v",
						i, res.Data[i], base.Data[i])
				}
			}
			var rehomedMgrs int64
			for _, nd := range res.Stats.Nodes {
				rehomedMgrs += nd.Counts.MgrsRehomed
			}
			if rehomedMgrs == 0 {
				t.Fatal("barrier-manager crash recovered without moving the role")
			}
		})
	}
}

// A free lock token cached on the crashed node is reclaimed by the
// lock's manager at detection time: a waiting acquirer proceeds without
// sitting out the whole outage, and the reclamation is counted.
func TestDeadLockOwnerReclaim(t *testing.T) {
	var addr mem.Addr
	const lock = 2 // managed by node 0 (2 % 2)
	app := &testApp{
		name:  "deadowner",
		setup: func(s *Setup) { addr = s.Alloc(64) },
		init: func(w *Init) {
			for i := 0; i < 64; i++ {
				w.Store(addr+mem.Addr(i), 0)
			}
			w.SetHome(addr, 64, 0) // keep the crashed node homeless
		},
		worker: func(c *Ctx, id int) {
			if id == 1 {
				// Acquire and release: the token stays cached here, and
				// the node then dies with it.
				c.Lock(lock)
				c.Store(addr, 1)
				c.Unlock(lock)
			} else {
				c.Compute(4 * sim.Millisecond) // let the crash land first
				c.Lock(lock)
				c.Store(addr+1, c.Load(addr)+1)
				c.Unlock(lock)
			}
			c.Barrier(0)
		},
		gather: func(c *Ctx) []float64 {
			return []float64{c.Load(addr), c.Load(addr + 1)}
		},
	}
	opts := testOpts(ProtoHLRC, 2)
	const restart = 40 * sim.Millisecond
	opts.Fault = fault.Plan{
		Seed: 1,
		// 2.5ms: after node 1's unlock, before node 0's acquire.
		Crashes: []fault.Crash{{Node: 1, At: 2500 * sim.Microsecond, RestartAt: restart}},
	}
	opts.Recovery = Recovery{Replicas: 1}
	res := runOrFail(t, opts, app)
	if res.Data[0] != 1 || res.Data[1] != 2 {
		t.Fatalf("results = %v, want [1 2]", res.Data)
	}
	var reclaimed int64
	for _, nd := range res.Stats.Nodes {
		reclaimed += nd.Counts.LocksReclaimed
	}
	if reclaimed == 0 {
		t.Fatal("dead owner's free token was not reclaimed")
	}
	// The final barrier still waits for the restarted node, but node 0's
	// acquire itself must not: its lock stall is bounded by detection,
	// far below the 39ms outage.
	if lockWait := res.Stats.Nodes[0].Time[stats.CatLock]; lockWait >= restart/2 {
		t.Fatalf("acquirer waited %v for a reclaimable token", lockWait)
	}
}

// A node that crashes inside a critical section keeps its token: mutual
// exclusion forbids revoking a held lock, so the token stays pinned, the
// other acquirer waits out the whole outage, and both increments land.
func TestCrashInsideCriticalSection(t *testing.T) {
	const at = sim.Millisecond
	for _, k := range []int{0, 1} {
		for _, restart := range []sim.Time{4 * sim.Millisecond, 8 * sim.Millisecond, 20 * sim.Millisecond} {
			k, restart := k, restart
			t.Run(fmt.Sprintf("k%d/restart%dms", k, restart/sim.Millisecond), func(t *testing.T) {
				var addr mem.Addr
				const lock = 2 // managed by node 0, held by node 1 at the crash
				app := &testApp{
					name:  "heldcrash",
					setup: func(s *Setup) { addr = s.Alloc(64) },
					init: func(w *Init) {
						for i := 0; i < 64; i++ {
							w.Store(addr+mem.Addr(i), 0)
						}
						w.SetHome(addr, 64, 0)
					},
					worker: func(c *Ctx, id int) {
						if id == 1 {
							c.Lock(lock)
							c.Compute(10 * sim.Millisecond) // crashes in here
							c.Store(addr, c.Load(addr)+1)
							c.Unlock(lock)
						} else {
							c.Compute(2 * sim.Millisecond)
							c.Lock(lock)
							c.Store(addr, c.Load(addr)+1)
							c.Unlock(lock)
						}
						c.Barrier(0)
					},
					gather: func(c *Ctx) []float64 { return []float64{c.Load(addr)} },
				}
				opts := testOpts(ProtoHLRC, 2)
				opts.Fault = fault.Plan{
					Seed:    1,
					Crashes: []fault.Crash{{Node: 1, At: at, RestartAt: restart}},
				}
				opts.Recovery = Recovery{Replicas: k}
				res := runOrFail(t, opts, app)
				if res.Data[0] != 2 {
					t.Fatalf("counter = %v, want 2", res.Data[0])
				}
				var reclaimed int64
				for _, nd := range res.Stats.Nodes {
					reclaimed += nd.Counts.LocksReclaimed
				}
				if reclaimed != 0 {
					t.Fatalf("a held token was reclaimed %d times", reclaimed)
				}
				if wait := res.Stats.Nodes[0].Time[stats.CatLock]; wait < restart-at {
					t.Fatalf("acquirer waited %v, less than the %v outage", wait, restart-at)
				}
			})
		}
	}
}

// Chained promotion: the crash-mgr profile kills node 0 and then node 1
// while node 1 (node 0's first backup) may still hold adopted roles.
// The second election must land every role on a live node and the run
// must stay deterministic: two identical runs, byte-identical stats.
func TestMgrFailoverChainedDeterminism(t *testing.T) {
	plan, err := fault.Profile(fault.ProfileCrashMgr, 9)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		opts := testOpts(ProtoOHLRC, 4)
		opts.Fault = plan
		opts.Recovery = Recovery{Replicas: 2}
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

// Manager mirroring without any crash must not change what the run
// computes — it only adds kMgrMirror traffic, which is counted.
func TestMgrMirroringTransparent(t *testing.T) {
	const p, rounds = 3, 20
	base := runOrFail(t, testOpts(ProtoHLRC, p), mgrStressApp(p, rounds, 200*sim.Microsecond))
	opts := testOpts(ProtoHLRC, p)
	opts.Recovery = Recovery{Replicas: 1}
	rep := runOrFail(t, opts, mgrStressApp(p, rounds, 200*sim.Microsecond))
	for i := range base.Data {
		if base.Data[i] != rep.Data[i] {
			t.Fatalf("mirroring changed word %d: %v vs %v", i, rep.Data[i], base.Data[i])
		}
	}
	var mirror int64
	for _, nd := range rep.Stats.Nodes {
		mirror += nd.MirrorBytes
	}
	if mirror == 0 {
		t.Fatal("replication enabled but no manager mirror traffic recorded")
	}
	var rehomedMgrs int64
	for _, nd := range rep.Stats.Nodes {
		rehomedMgrs += nd.Counts.MgrsRehomed
	}
	if rehomedMgrs != 0 {
		t.Fatalf("fault-free run re-homed %d manager roles", rehomedMgrs)
	}
}
