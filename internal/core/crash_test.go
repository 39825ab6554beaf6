package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gosvm/internal/fault"
	"gosvm/internal/mem"
	"gosvm/internal/sim"
	"gosvm/internal/vc"
)

// homeStressApp stresses the crashed node's home role: every node writes
// one word in every page each round (pages homed round-robin, so node 1
// homes page 1, ...), then reads a neighbour's word back after the
// barrier. Diff flushes and page fetches hit every home every round, so
// an outage of any node is observed at once, and the restarted home must
// still hold every update flushed to it.
func homeStressApp(p, rounds int) *testApp {
	var base mem.Addr
	const words = 64 // one 512-byte page per region
	return &testApp{
		name:  "homestress",
		setup: func(s *Setup) { base = s.Alloc(p * words) },
		init: func(w *Init) {
			for i := 0; i < p*words; i++ {
				w.Store(base+mem.Addr(i), 0)
			}
		},
		worker: func(c *Ctx, id int) {
			for r := 1; r <= rounds; r++ {
				c.Compute(200 * sim.Microsecond)
				for pg := 0; pg < p; pg++ {
					c.Store(base+mem.Addr(pg*words+id), float64(r*(pg+1)))
				}
				c.Barrier(2 * r)
				// Check a neighbour's write; the second barrier keeps the
				// next round's writes from racing with this read.
				peer := (id + 1) % p
				if got := c.Load(base + mem.Addr(peer*words+peer)); got != float64(r*(peer+1)) {
					panic(fmt.Sprintf("node %d round %d: page %d word %d = %v, want %v",
						id, r, peer, peer, got, float64(r*(peer+1))))
				}
				c.Barrier(2*r + 1)
			}
		},
		gather: func(c *Ctx) []float64 {
			out := make([]float64, p*words)
			c.ReadRange(base, out)
			return out
		},
	}
}

func checkHomeStress(t *testing.T, p, rounds int, data []float64) {
	t.Helper()
	const words = 64
	for pg := 0; pg < p; pg++ {
		for j := 0; j < words; j++ {
			want := 0.0
			if j < p {
				want = float64(rounds * (pg + 1))
			}
			if got := data[pg*words+j]; got != want {
				t.Fatalf("word %d of page %d = %v, want %v", j, pg, got, want)
			}
		}
	}
}

// crashPlan schedules one outage of node 1.
func crashPlan(at, restart sim.Time) fault.Plan {
	return fault.Plan{
		Seed:    1,
		Crashes: []fault.Crash{{Node: 1, At: at, RestartAt: restart}},
	}
}

// computeUntil computes until simulated time t; an outage the node is in
// stretches the computation past it.
func computeUntil(c *Ctx, t sim.Time) {
	if d := t - c.Now(); d > 0 {
		c.Compute(d)
	}
}

// TestCrashedHomeIsWaitedOut: a crashed home keeps what it homes. Node 1
// homes page X and holds a cached read-only copy of page Y, homed at node
// 0; node 2's write to X is in node 1's copy before node 1 crashes. A fetch
// of X from node 0 inside the outage is answered no earlier than the
// restart and carries node 2's write; across the outage node 1's flush
// vector and bytes for X are the ones it had, and its copy of Y is still
// valid: reading it is no miss.
func TestCrashedHomeIsWaitedOut(t *testing.T) {
	const words = 64 // one 512-byte page
	const crashAt, restartAt = 10 * sim.Millisecond, 30 * sim.Millisecond
	for _, proto := range []Protocol{ProtoHLRC, ProtoOHLRC} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			var x, y mem.Addr
			var got struct {
				snapAt, checkAt     sim.Time
				flush, flushAfter   *vc.Sparse
				same                bool
				data, dataAfter     []float64
				yState              mem.State
				yMisses             int64
				y, fetched          float64
				askedAt, answeredAt sim.Time
			}
			app := &testApp{
				name: "home-outage",
				setup: func(s *Setup) {
					x = s.Alloc(words)
					y = s.Alloc(words)
				},
				init: func(w *Init) {
					w.SetHome(x, words, 1)
					w.SetHome(y, words, 0)
					w.Store(y+2, 4)
				},
				worker: func(c *Ctx, id int) {
					if id == 2 {
						c.Store(x+1, 5)
					}
					c.Barrier(0)
					switch id {
					case 0:
						computeUntil(c, crashAt+2*sim.Millisecond)
						got.askedAt = c.Now()
						got.fetched = c.Load(x + 1)
						got.answeredAt = c.Now()
					case 1:
						e := c.eng.(*hlrcEngine)
						pgX, pgY := c.sys.Space.PageOf(x), c.sys.Space.PageOf(y)
						c.Load(y) // a cached copy, fetched from node 0
						computeUntil(c, crashAt-sim.Millisecond)
						f := e.useOf(pgX).flushVC
						got.snapAt, got.flush, got.data = c.Now(), f.Copy(), slices.Clone(e.pt.Page(pgX).Data)
						misses := e.st().Counts.ReadMisses
						computeUntil(c, restartAt+sim.Millisecond) // the outage stretches it
						got.checkAt = c.Now()
						got.same = e.useOf(pgX).flushVC == f
						got.flushAfter, got.dataAfter = f.Copy(), slices.Clone(e.pt.Page(pgX).Data)
						got.yState = e.pt.Page(pgY).State
						got.y = c.Load(y + 2)
						got.yMisses = e.st().Counts.ReadMisses - misses
					}
					c.Barrier(1)
				},
				gather: func(c *Ctx) []float64 { return []float64{c.Load(x + 1)} },
			}
			opts := testOpts(proto, 3)
			opts.Fault = crashPlan(crashAt, restartAt)
			res := runOrFail(t, opts, app)

			if got.snapAt >= crashAt || got.checkAt < restartAt {
				t.Fatalf("node 1 looked at %v and %v, not before the crash at %v and after the restart at %v",
					got.snapAt, got.checkAt, crashAt, restartAt)
			}
			if got.askedAt <= crashAt || got.askedAt >= restartAt || got.answeredAt < restartAt {
				t.Errorf("node 0 asked for X at %v and had it at %v; want a fetch sent inside the outage [%v, %v) and answered after it",
					got.askedAt, got.answeredAt, crashAt, restartAt)
			}
			if got.fetched != 5 || res.Data[0] != 5 {
				t.Errorf("node 0 fetched %v, the run ends with %v; want node 2's write, 5", got.fetched, res.Data[0])
			}
			if got.flush.Get(2) != 1 || got.data[1] != 5 {
				t.Fatalf("before the crash node 1's X has writer 2 at %d and word 1 = %v; want node 2's diff in: 1, 5",
					got.flush.Get(2), got.data[1])
			}
			if !got.same || !got.flushAfter.Equal(got.flush) || !slices.Equal(got.dataAfter, got.data) {
				t.Errorf("node 1's X across the outage: same vector %v, %v then %v, bytes kept %v; want all kept",
					got.same, got.flush, got.flushAfter, slices.Equal(got.dataAfter, got.data))
			}
			if got.yState != mem.ReadOnly || got.y != 4 || got.yMisses != 0 {
				t.Errorf("node 1's cached Y after the restart: %v, reads %v with %d misses; want %v, 4, 0",
					got.yState, got.y, got.yMisses, mem.ReadOnly)
			}
		})
	}
}

// A crash run is deterministic and correct: same plan, same seed,
// byte-identical statistics and JSON encoding, and every update the
// restarted home held is in the result.
func TestCrashRunDeterminism(t *testing.T) {
	run := func() *Result {
		opts := testOpts(ProtoOHLRC, 4)
		opts.Fault = crashPlan(800*sim.Microsecond, 5*sim.Millisecond)
		return runOrFail(t, opts, homeStressApp(4, 8))
	}
	r1, r2 := run(), run()
	checkHomeStress(t, 4, 8, r1.Data)
	if r1.Stats.Elapsed != r2.Stats.Elapsed {
		t.Fatalf("elapsed differs: %v vs %v", r1.Stats.Elapsed, r2.Stats.Elapsed)
	}
	for i := range r1.Stats.Nodes {
		a, b := r1.Stats.Nodes[i], r2.Stats.Nodes[i]
		if *a != *b {
			t.Fatalf("node %d stats differ:\n%+v\n%+v", i, a, b)
		}
	}
	if !bytes.Equal(statsJSON(t, r1), statsJSON(t, r2)) {
		t.Fatal("JSON stats of identical crash runs differ")
	}
}

func statsJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := res.Stats.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// A crash of a node that homes no pages is survivable like any other.
func TestCrashOfHomelessNodeSurvivable(t *testing.T) {
	var addr mem.Addr
	const words = 64
	app := &testApp{
		name:  "spareworker",
		setup: func(s *Setup) { addr = s.Alloc(2 * words) },
		init: func(w *Init) {
			for i := 0; i < 2*words; i++ {
				w.Store(addr+mem.Addr(i), 0)
			}
			w.SetHome(addr, 2*words, 0) // everything homed at node 0
		},
		worker: func(c *Ctx, id int) {
			for r := 1; r <= 6; r++ {
				c.Compute(300 * sim.Microsecond)
				c.Store(addr+mem.Addr(id*words), float64(r))
				c.Barrier(r)
			}
		},
		gather: func(c *Ctx) []float64 {
			return []float64{c.Load(addr), c.Load(addr + words)}
		},
	}
	opts := testOpts(ProtoHLRC, 2)
	opts.Fault = crashPlan(700*sim.Microsecond, 3*sim.Millisecond)
	res := runOrFail(t, opts, app)
	if res.Data[0] != 6 || res.Data[1] != 6 {
		t.Fatalf("results = %v, want [6 6]", res.Data)
	}
}

// Crash-schedule validation: a crash plan runs under every protocol, and
// every crash must be an outage of a real node that ends after it begins.
func TestRecoveryValidation(t *testing.T) {
	for _, proto := range Protocols {
		opts := testOpts(proto, 2)
		opts.Fault = crashPlan(sim.Millisecond, 2*sim.Millisecond)
		if res := runOrFail(t, opts, counterApp(2)); res.Data[0] != 4 {
			t.Fatalf("%s: counter = %v under a crash, want 4", proto, res.Data[0])
		}
	}

	ms := sim.Millisecond
	for _, c := range []fault.Crash{
		{Node: 1, At: ms},                    // never restarts
		{Node: 1, At: ms, RestartAt: ms},     // empty outage
		{Node: 1, At: 2 * ms, RestartAt: ms}, // restarts before it crashes
		{Node: 1, RestartAt: ms},             // crashes at time zero
		{Node: 2, At: ms, RestartAt: 2 * ms}, // no such node
	} {
		opts := testOpts(ProtoLRC, 2)
		opts.Fault = fault.Plan{Seed: 1, Crashes: []fault.Crash{c}}
		_, err := Run(opts, counterApp(2), false)
		if want := fmt.Sprintf("node %d", c.Node); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("crash %+v: got error %v, want one naming %s", c, err, want)
		}
	}
}

// pinInert runs app under opts with and without the deprecated
// Recovery{Replicas: 1} and requires byte-identical statistics JSON:
// nothing reads the option.
func pinInert(t *testing.T, opts Options, app func() App) {
	t.Helper()
	var out [2][]byte
	for i := range out {
		o := opts
		o.Recovery = Recovery{Replicas: i}
		out[i] = statsJSON(t, runOrFail(t, o, app()))
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Fatalf("Recovery{Replicas: 1} changed the run's statistics:\n%s\nvs\n%s", out[1], out[0])
	}
}

// TestReplicationTransparent: a crash-mgr run of a lock-heavy app is the
// same with the deprecated Recovery option set as without it.
func TestReplicationTransparent(t *testing.T) {
	plan, err := fault.Profile(fault.ProfileCrashMgr, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts(ProtoHLRC, 4)
	opts.Fault = plan
	pinInert(t, opts, func() App { return mgrStressApp(4, 40, 400*sim.Microsecond) })
}

// TestReplicationWithoutCrashIsTransparent is TestReplicationTransparent
// for a fault-free run.
func TestReplicationWithoutCrashIsTransparent(t *testing.T) {
	pinInert(t, testOpts(ProtoOHLRC, 3), func() App { return homeStressApp(3, 5) })
}

// TestRecoveryOnUnusedPages: a restart leaves per-page state whose use
// tier was never materialised as it was. Node 1 homes page X and writes it
// every round, node 0 homes and writes page W, node 3 reads both; node 2
// touches neither, and node 1 never touches W. Node 1 crashes mid-run:
// node 3 still reads the right data, node 2 stays a bystander whose slot
// for X holds notices only, and node 1's slot for W holds notices only.
func TestRecoveryOnUnusedPages(t *testing.T) {
	const words, rounds = 64, 6 // 512-byte pages; a round is some 9 ms
	const crashAt = 14 * sim.Millisecond
	for _, proto := range []Protocol{ProtoHLRC, ProtoOHLRC} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			var x, w mem.Addr
			var victim, bystander, home *hlrcPage
			app := &testApp{
				name: "unused-pages",
				setup: func(s *Setup) {
					x = s.Alloc(words)
					w = s.Alloc(words)
				},
				init: func(in *Init) {
					in.SetHome(x, words, 1)
					in.SetHome(w, words, 0)
				},
				worker: func(c *Ctx, id int) {
					for r := 1; r <= rounds; r++ {
						c.Compute(200 * sim.Microsecond)
						switch id {
						case 0:
							c.Store(w+1, float64(r))
						case 1:
							c.Store(x+1, float64(10*r))
						}
						c.Barrier(2 * r)
						if id == 3 {
							if gx, gw := c.Load(x+1), c.Load(w+1); gx != float64(10*r) || gw != float64(r) {
								panic(fmt.Sprintf("round %d: node 3 reads x=%v w=%v, want %v %v", r, gx, gw, 10*r, r))
							}
						}
						c.Barrier(2*r + 1) // the homes write in place: not before node 3 has read
					}
				},
				gather: func(c *Ctx) []float64 {
					victim = c.sys.Engines[1].(*hlrcEngine).pages.At(c.sys.Space.PageOf(w))
					bystander = c.sys.Engines[2].(*hlrcEngine).pages.At(c.sys.Space.PageOf(x))
					home = c.sys.Engines[1].(*hlrcEngine).pages.At(c.sys.Space.PageOf(x))
					return []float64{c.Load(x + 1), c.Load(w + 1)}
				},
			}
			opts := testOpts(proto, 4)
			opts.Fault = crashPlan(crashAt, crashAt+10*sim.Millisecond)
			res := runOrFail(t, opts, app)

			if res.Stats.Elapsed <= crashAt+10*sim.Millisecond {
				t.Fatalf("the run ended at %v, before node 1's restart", res.Stats.Elapsed)
			}
			if res.Data[0] != 10*rounds || res.Data[1] != rounds {
				t.Errorf("final x, w = %v, want %d, %d", res.Data, 10*rounds, rounds)
			}
			if n := res.Stats.Nodes[2].Counts; n.ReadMisses != 0 || n.WriteFaults != 0 {
				t.Errorf("node 2 faulted (%d read misses, %d write faults): it was to stay a bystander", n.ReadMisses, n.WriteFaults)
			}
			if bystander.use != nil || bystander.seenOrNil().Get(1) < int32(rounds) {
				t.Errorf("node 2's slot for x: use tier %+v, vector %v; want notices only, through node 1's interval %d", bystander.use, bystander.seenOrNil(), rounds)
			}
			if victim.use != nil || victim.seenOrNil().Get(0) < int32(rounds) {
				t.Errorf("node 1's slot for w: use tier %+v, vector %v; want notices only, through node 0's interval %d", victim.use, victim.seenOrNil(), rounds)
			}
			if home.use == nil || home.use.flushVC.Get(1) < int32(rounds) {
				t.Errorf("node 1's slot for x: use tier %+v; want the home's, flushed through its own interval %d", home.use, rounds)
			}
		})
	}
}

// TestRestartKeepsFlushVectorRun: a home that crashes and restarts keeps
// its flush vector — the same vector, never behind what it held — however
// often it restarts. Node 0 homes the page three writers update every
// round and is down for 3 ms of each of eight rounds. Under vc.ForceDense
// every vector is dense, which the readers must handle alike.
func TestRestartKeepsFlushVectorRun(t *testing.T) {
	const words, rounds, writers = 64, 8, 3
	const round = 20 * sim.Millisecond
	var crashes []fault.Crash
	for r := 1; r <= rounds; r++ {
		at := sim.Time(r)*round + 10*sim.Millisecond
		crashes = append(crashes, fault.Crash{Node: 0, At: at, RestartAt: at + 3*sim.Millisecond})
	}
	for _, dense := range []bool{false, true} {
		dense := dense
		t.Run(fmt.Sprintf("dense=%v", dense), func(t *testing.T) {
			defer func(old bool) { vc.ForceDense = old }(vc.ForceDense)
			vc.ForceDense = dense
			var addr mem.Addr
			var kept []string
			var final *vc.Sparse
			app := &testApp{
				name:  "restart-flush",
				setup: func(s *Setup) { addr = s.Alloc(words) },
				init:  func(w *Init) { w.SetHome(addr, words, 0) },
				worker: func(c *Ctx, id int) {
					e, pg := c.eng.(*hlrcEngine), c.sys.Space.PageOf(addr)
					for r := 1; r <= rounds; r++ {
						computeUntil(c, sim.Time(r)*round)
						if id > 0 {
							c.Store(addr+mem.Addr(id), float64(r))
						}
						c.Barrier(r)
						if id != 0 {
							continue
						}
						c.Load(addr) // the home waits until every writer's diff is in
						f := e.flushOf(pg)
						before, at := f.Copy(), c.Now()
						computeUntil(c, crashes[r-1].RestartAt+sim.Millisecond)
						if at >= crashes[r-1].At || e.useOf(pg).flushVC != f || !f.Covers(before) || before.Get(writers) != int32(r) {
							kept = append(kept, fmt.Sprintf("round %d: looked at %v, vector %v then %v (same: %v)",
								r, at, before, f, e.useOf(pg).flushVC == f))
						}
					}
					c.Barrier(rounds + 1)
				},
				gather: func(c *Ctx) []float64 {
					final = c.sys.Engines[0].(*hlrcEngine).useOf(c.sys.Space.PageOf(addr)).flushVC.Copy()
					return []float64{c.Load(addr + 1), c.Load(addr + writers)}
				},
			}
			opts := testOpts(ProtoHLRC, writers+1)
			opts.Fault = fault.Plan{Seed: 1, Crashes: crashes}
			res := runOrFail(t, opts, app)
			for _, k := range kept {
				t.Error(k)
			}
			for w := 1; w <= writers; w++ {
				if final.Get(w) != rounds {
					t.Errorf("flush vector %v after the run: writer %d at %d, want %d", final, w, final.Get(w), rounds)
				}
			}
			if res.Data[0] != rounds || res.Data[1] != rounds {
				t.Errorf("the run ends with %v, want %d, %d", res.Data, rounds, rounds)
			}
		})
	}
}
