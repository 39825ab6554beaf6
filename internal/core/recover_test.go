package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gosvm/internal/fault"
	"gosvm/internal/mem"
	"gosvm/internal/sim"
	"gosvm/internal/vc"
)

// rehomeApp stresses the crashed node's home role: every node writes one
// word in every page each round (pages homed round-robin, so node 1
// homes page 1, ...), then reads a neighbour's word back after the
// barrier. Diff flushes and page fetches hit every home every round, so
// an outage of any node is observed quickly and recovery must both
// preserve the flushed updates and serve fetches from the new home.
func rehomeApp(p, rounds int) *testApp {
	var base mem.Addr
	const words = 64 // one 512-byte page per region
	return &testApp{
		name:  "rehome",
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

func checkRehome(t *testing.T, p, rounds int, data []float64) {
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

// A home crash in the middle of the run must be recovered by re-homing:
// the results stay identical to the fault-free (and sequential) ones,
// pages move, and the detection latency is recorded.
func TestCrashRehomingCorrectness(t *testing.T) {
	const p, rounds = 4, 10
	for _, proto := range []Protocol{ProtoHLRC, ProtoOHLRC} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			opts := testOpts(proto, p)
			opts.Fault = crashPlan(800*sim.Microsecond, 5*sim.Millisecond)
			opts.Recovery = Recovery{Replicas: 1}
			res := runOrFail(t, opts, rehomeApp(p, rounds))
			checkRehome(t, p, rounds, res.Data)

			var rehomed int64
			var detect sim.Time
			for _, nd := range res.Stats.Nodes {
				rehomed += nd.Counts.PagesRehomed
				if nd.Detect > detect {
					detect = nd.Detect
				}
			}
			if rehomed == 0 {
				t.Fatal("crash recovered without re-homing any page")
			}
			if detect <= 0 {
				t.Fatal("re-homing happened but no detection latency was recorded")
			}
		})
	}
}

// More replicas than one: the successor election must still pick exactly
// one new home and the run must stay correct.
func TestCrashRecoveryTwoReplicas(t *testing.T) {
	const p, rounds = 5, 8
	opts := testOpts(ProtoHLRC, p)
	opts.Fault = crashPlan(800*sim.Microsecond, 5*sim.Millisecond)
	opts.Recovery = Recovery{Replicas: 2}
	res := runOrFail(t, opts, rehomeApp(p, rounds))
	checkRehome(t, p, rounds, res.Data)
}

// A crash run is deterministic: same plan, same seed, byte-identical
// statistics including the recovery counters and the JSON encoding.
func TestCrashRunDeterminism(t *testing.T) {
	run := func() *Result {
		opts := testOpts(ProtoOHLRC, 4)
		opts.Fault = crashPlan(800*sim.Microsecond, 5*sim.Millisecond)
		opts.Recovery = Recovery{Replicas: 1}
		return runOrFail(t, opts, rehomeApp(4, 8))
	}
	r1, r2 := run(), run()
	if r1.Stats.Elapsed != r2.Stats.Elapsed {
		t.Fatalf("elapsed differs: %v vs %v", r1.Stats.Elapsed, r2.Stats.Elapsed)
	}
	for i := range r1.Stats.Nodes {
		a, b := r1.Stats.Nodes[i], r2.Stats.Nodes[i]
		if *a != *b {
			t.Fatalf("node %d stats differ:\n%+v\n%+v", i, a, b)
		}
	}
	var j1, j2 bytes.Buffer
	if err := r1.Stats.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := r2.Stats.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("JSON stats of identical crash runs differ")
	}
}

// Without replication, the crash of a node that homes pages is
// unrecoverable even though the node restarts (its home copies are
// volatile): the run must fail with a structured NodeDeadError, not an
// opaque deadlock.
func TestCrashWithoutReplicasIsNodeDead(t *testing.T) {
	var addr mem.Addr
	app := &testApp{
		name:  "deadhome",
		setup: func(s *Setup) { addr = s.Alloc(64) },
		init: func(w *Init) {
			for i := 0; i < 64; i++ {
				w.Store(addr+mem.Addr(i), 0)
			}
			w.SetHome(addr, 64, 1)
		},
		worker: func(c *Ctx, id int) {
			if id == 1 {
				c.Store(addr, 7)
			}
			c.Barrier(0)
			if id == 0 {
				c.Compute(2 * sim.Millisecond) // let the crash land first
				c.Load(addr)                   // fetch from the dead home
			}
			c.Barrier(1)
		},
		gather: func(c *Ctx) []float64 { return []float64{c.Load(addr)} },
	}
	opts := testOpts(ProtoHLRC, 2)
	opts.Fault = crashPlan(sim.Millisecond, 50*sim.Millisecond)
	_, err := Run(opts, app, false)
	if err == nil {
		t.Fatal("run with an unrecoverable dead home succeeded")
	}
	var nde *fault.NodeDeadError
	if !errors.As(err, &nde) {
		t.Fatalf("error is not a NodeDeadError: %v", err)
	}
	if nde.Node != 1 || nde.Role != "home" {
		t.Fatalf("NodeDeadError blames node %d role %q, want node 1 role \"home\"", nde.Node, nde.Role)
	}
}

// A crash of a node that homes no pages is survivable even with no
// replicas: nothing depended on its volatile state.
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
	for _, nd := range res.Stats.Nodes {
		if nd.Counts.PagesRehomed != 0 {
			t.Fatalf("re-homing happened for a node that homes nothing")
		}
	}
}

// Recovery option validation: crashes need a home-based protocol, a
// replica count is not negative (rejected whether or not a crash plan
// makes the recovery subsystem start), replication needs spare nodes, and
// every crash is an outage of a real node that ends after it begins.
func TestRecoveryValidation(t *testing.T) {
	opts := testOpts(ProtoLRC, 2)
	opts.Fault = crashPlan(sim.Millisecond, 2*sim.Millisecond)
	if _, err := Run(opts, counterApp(2), false); err == nil {
		t.Fatal("crash plan accepted under a homeless protocol")
	}

	for _, plan := range []fault.Plan{{}, crashPlan(sim.Millisecond, 2*sim.Millisecond)} {
		opts = testOpts(ProtoHLRC, 2)
		opts.Fault = plan
		opts.Recovery = Recovery{Replicas: -1}
		_, err := Run(opts, counterApp(2), false)
		if err == nil || !strings.Contains(err.Error(), "Recovery.Replicas") {
			t.Fatalf("negative replica count (crashes: %d): got error %v, want one naming Recovery.Replicas",
				len(plan.Crashes), err)
		}
	}

	opts = testOpts(ProtoHLRC, 2)
	opts.Recovery = Recovery{Replicas: 2}
	if _, err := Run(opts, counterApp(2), false); err == nil {
		t.Fatal("as many replicas as nodes accepted")
	}

	ms := sim.Millisecond
	for _, c := range []fault.Crash{
		{Node: 1, At: ms},                    // never restarts
		{Node: 1, At: ms, RestartAt: ms},     // empty outage
		{Node: 1, At: 2 * ms, RestartAt: ms}, // restarts before it crashes
		{Node: 1, RestartAt: ms},             // crashes at time zero
		{Node: 2, At: ms, RestartAt: 2 * ms}, // no such node
	} {
		opts = testOpts(ProtoHLRC, 2)
		opts.Fault = fault.Plan{Seed: 1, Crashes: []fault.Crash{c}}
		_, err := Run(opts, counterApp(2), false)
		if want := fmt.Sprintf("node %d", c.Node); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("crash %+v: got error %v, want one naming %s", c, err, want)
		}
	}
}

// Replication without any crash must not change what the run computes —
// it only adds mirror traffic.
func TestReplicationWithoutCrashIsTransparent(t *testing.T) {
	const p, rounds = 3, 5
	base := runOrFail(t, testOpts(ProtoHLRC, p), rehomeApp(p, rounds))
	opts := testOpts(ProtoHLRC, p)
	opts.Recovery = Recovery{Replicas: 1}
	rep := runOrFail(t, opts, rehomeApp(p, rounds))
	checkRehome(t, p, rounds, rep.Data)
	var replicaBytes int64
	for _, nd := range rep.Stats.Nodes {
		replicaBytes += nd.ReplicaBytes
	}
	if replicaBytes == 0 {
		t.Fatal("replication enabled but no mirror traffic recorded")
	}
	if got, want := len(rep.Data), len(base.Data); got != want {
		t.Fatalf("result length changed under replication: %d vs %d", got, want)
	}
	for i := range base.Data {
		if base.Data[i] != rep.Data[i] {
			t.Fatalf("replication changed word %d: %v vs %v", i, rep.Data[i], base.Data[i])
		}
	}
}

// A reseed image can land after its recipient was promoted to home the
// page (its sender died with the image in flight). installLateImage is
// driven directly, from the home's own worker, on a live engine: an image
// whose vector covers the home's flush vector installs under the node's
// own undiffed write, resets the twin to the image and releases a fetch
// parked on the coverage it brings; an image behind the flush vector is
// dropped.
func TestLateImageAtPromotedHome(t *testing.T) {
	const words = 64 // one 512-byte page
	var addr mem.Addr
	var got struct {
		parked, parkedAfter int
		data, twin, after   []float64
		flush, flushAfter   int32
		fetched, fetchedOwn float64
		fetchedAt           sim.Time
	}
	image := func(base float64) []float64 {
		img := make([]float64, words)
		for i := range img {
			img[i] = base + float64(i)
		}
		return img
	}
	stamp := func(interval int32) *vc.Sparse {
		v := vc.NewSparse(3)
		v.RaiseTo(2, interval)
		return v
	}
	app := &testApp{
		name:  "lateimage",
		setup: func(s *Setup) { addr = s.Alloc(words) },
		init: func(w *Init) {
			for i := 0; i < words; i++ {
				w.Store(addr+mem.Addr(i), 0)
			}
			w.SetHome(addr, words, 0)
		},
		worker: func(c *Ctx, id int) {
			pg := c.sys.Space.PageOf(addr)
			e := c.sys.Engines[id].(*hlrcEngine)
			switch id {
			case 0:
				c.Store(addr+1, 42) // replication on: the home twins its own page
				c.Compute(sim.Millisecond)
				pm := e.useOf(pg)
				got.parked = len(pm.pendingFetch)
				e.installLateImage(&mirrorMsg{Page: pg, Data: image(100), VC: stamp(5)})
				p := e.pt.Page(pg)
				got.data = append([]float64(nil), p.Data...)
				got.twin = append([]float64(nil), p.Twin...)
				got.flush = pm.flushOrNil().Get(2)
				got.parkedAfter = len(pm.pendingFetch)
				e.installLateImage(&mirrorMsg{Page: pg, Data: image(-500), VC: stamp(4)})
				got.after = append([]float64(nil), p.Data...)
				got.flushAfter = pm.flushOrNil().Get(2)
			case 1:
				// As if a write notice for interval 5 of node 2 had arrived:
				// the fetch parks at the home until its flush vector covers it.
				e.seenOf(e.pages.At(pg)).RaiseTo(2, 5)
				got.fetched = c.Load(addr + 3)
				got.fetchedOwn = c.Load(addr + 1)
				got.fetchedAt = c.Now()
			}
			c.Barrier(0)
		},
		gather: func(c *Ctx) []float64 { return []float64{c.Load(addr + 1), c.Load(addr + 3)} },
	}
	opts := testOpts(ProtoHLRC, 3)
	opts.Recovery = Recovery{Replicas: 1}
	res := runOrFail(t, opts, app)

	if got.parked != 1 || got.parkedAfter != 0 {
		t.Fatalf("fetches parked at the home: %d before the image, %d after; want 1, 0", got.parked, got.parkedAfter)
	}
	want := image(100)
	for i := range want {
		if got.twin[i] != want[i] {
			t.Fatalf("twin word %d = %v, want the image's %v", i, got.twin[i], want[i])
		}
	}
	want[1] = 42
	for i := range want {
		if got.data[i] != want[i] {
			t.Fatalf("word %d = %v after the covering image, want %v", i, got.data[i], want[i])
		}
		if got.after[i] != want[i] {
			t.Fatalf("word %d = %v after the stale image, want %v (image not dropped)", i, got.after[i], want[i])
		}
	}
	if got.flush != 5 || got.flushAfter != 5 {
		t.Fatalf("flush vector for writer 2 = %d, then %d; want 5, 5", got.flush, got.flushAfter)
	}
	if got.fetched != 103 || got.fetchedOwn != 42 {
		t.Fatalf("parked fetch returned words %v, %v; want 103, 42", got.fetched, got.fetchedOwn)
	}
	if got.fetchedAt < sim.Millisecond {
		t.Fatalf("fetch returned at %v, before the image arrived", got.fetchedAt)
	}
	if res.Data[0] != 42 || res.Data[1] != 103 {
		t.Fatalf("final words = %v, want [42 103]", res.Data)
	}
}

// TestRecoveryOnUnusedPages runs recovery over per-page state whose use
// tier was never materialised. Node 1 homes page X and writes it every
// round, node 0 homes and writes page W, node 3 reads both; node 2, node
// 1's replica, touches neither, and node 1 never touches W. Node 1 crashes
// mid-run: its restart wipes slots that only ever held notices
// (wipeVolatile), and node 2 is promoted to home X with, at most, a notice's
// vector for it (adoptPage) — after which it must serve node 3 the right
// data and node 1's later writes. A late image for a page the node never
// touched (installLateImage) is TestLateImageOnUntouchedPage.
func TestRecoveryOnUnusedPages(t *testing.T) {
	const words, rounds = 64, 6 // 512-byte pages; a round is some 9 ms
	const crashAt = 14 * sim.Millisecond
	for _, proto := range []Protocol{ProtoHLRC, ProtoOHLRC} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			var x, w mem.Addr
			var victim, heir *hlrcPage
			var heirSeenBefore *vc.Sparse
			var heirUsedBefore bool
			var heirReadAt sim.Time
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
						case 2:
							if r == 2 {
								m := c.sys.Engines[2].(*hlrcEngine).pages.At(c.sys.Space.PageOf(x))
								heirSeenBefore, heirUsedBefore, heirReadAt = m.seenOrNil().Copy(), m.use != nil, c.Now()
							}
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
					heir = c.sys.Engines[2].(*hlrcEngine).pages.At(c.sys.Space.PageOf(x))
					return []float64{c.Load(x + 1), c.Load(w + 1)}
				},
			}
			opts := testOpts(proto, 4)
			opts.Fault = crashPlan(crashAt, crashAt+10*sim.Millisecond)
			opts.Recovery = Recovery{Replicas: 1}
			res := runOrFail(t, opts, app)

			if heirReadAt >= crashAt {
				t.Fatalf("node 2's slot was read at %v, not before the crash at %v", heirReadAt, crashAt)
			}
			if res.Data[0] != 10*rounds || res.Data[1] != rounds {
				t.Errorf("final x, w = %v, want %d, %d", res.Data, 10*rounds, rounds)
			}
			if got := res.Stats.Nodes[2].Counts.PagesRehomed; got != 1 {
				t.Errorf("node 2 adopted %d pages, want 1", got)
			}
			if n := res.Stats.Nodes[2].Counts; n.ReadMisses != 0 || n.WriteFaults != 0 {
				t.Errorf("node 2 faulted (%d read misses, %d write faults): it was to stay a bystander", n.ReadMisses, n.WriteFaults)
			}
			if heirUsedBefore || heirSeenBefore.Get(1) == 0 {
				t.Errorf("before the crash node 2's slot for x had use tier %v and vector %v; want none and node 1's notices", heirUsedBefore, heirSeenBefore)
			}
			if heir.use == nil || heir.use.flushOrNil().Get(1) < int32(rounds) {
				t.Errorf("after the run node 2's slot for x: use tier %+v; want the home's, flushed through node 1's interval %d", heir.use, rounds)
			}
			if victim.use != nil || victim.seenOrNil().Get(0) < int32(rounds) {
				t.Errorf("node 1's slot for w: use tier %+v, vector %v; want notices only, through node 0's interval %d", victim.use, victim.seenOrNil(), rounds)
			}
		})
	}
}

// TestLateImageOnUntouchedPage: a reseed image lands at a home that has no
// use-tier record for the page and no vector at all — it was promoted over
// a page it never read, wrote or was noticed of. The image installs over
// the seed copy, the flush vector it brings is the page's first (one
// vecBytes charge), and an older image is dropped.
func TestLateImageOnUntouchedPage(t *testing.T) {
	const words = 64
	for _, proto := range []Protocol{ProtoHLRC, ProtoOHLRC} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			var addr mem.Addr
			var used bool
			var charge int64
			var flush, flushAfter int32
			image := func(v float64) []float64 {
				img := make([]float64, words)
				for i := range img {
					img[i] = v
				}
				return img
			}
			stamp := func(interval int32) *vc.Sparse {
				v := vc.NewSparse(3)
				v.RaiseTo(2, interval)
				return v
			}
			app := &testApp{
				name:  "lateimage-untouched",
				setup: func(s *Setup) { addr = s.Alloc(words) },
				init:  func(w *Init) { w.SetHome(addr, words, 0) },
				worker: func(c *Ctx, id int) {
					if id == 0 {
						e, pg := c.sys.Engines[0].(*hlrcEngine), c.sys.Space.PageOf(addr)
						m := e.pages.At(pg)
						used = m.use != nil || m.seenOrNil() != nil
						mem0 := e.st().ProtoMem
						e.installLateImage(&mirrorMsg{Page: pg, Data: image(5), VC: stamp(5)})
						flush = m.use.flushOrNil().Get(2)
						e.installLateImage(&mirrorMsg{Page: pg, Data: image(4), VC: stamp(4)})
						flushAfter = m.use.flushOrNil().Get(2)
						charge = e.st().ProtoMem - mem0
					}
					c.Barrier(0)
				},
				gather: func(c *Ctx) []float64 { return []float64{c.Load(addr), c.Load(addr + words - 1)} },
			}
			opts := testOpts(proto, 3)
			opts.Recovery = Recovery{Replicas: 1}
			res := runOrFail(t, opts, app)
			if used {
				t.Error("the page had protocol state before the image; the case is not the one meant")
			}
			if flush != 5 || flushAfter != 5 || charge != 4*3 {
				t.Errorf("flush vector for writer 2 = %d, then %d, protocol memory +%d; want 5, 5, +12", flush, flushAfter, charge)
			}
			if res.Data[0] != 5 || res.Data[1] != 5 {
				t.Errorf("page reads %v, want the covering image's 5s", res.Data)
			}
		})
	}
}

// TestRestartKeepsFlushVectorRun: a home that crashes and restarts drops
// its flush vectors (wipeVolatile), and a page homed here again grows its
// vector anew. The vector's header and pair run survive the restart, so k
// restarts grow the node's pairs once, not once per restart. Under
// vc.ForceDense the dropped vector is a Dim-0 dense one, which the readers
// (here noticePage's coverage check) must see as absent, not index.
func TestRestartKeepsFlushVectorRun(t *testing.T) {
	const words, restarts, writers = 64, 8, 3
	for _, dense := range []bool{false, true} {
		dense := dense
		t.Run(fmt.Sprintf("dense=%v", dense), func(t *testing.T) {
			defer func(old bool) { vc.ForceDense = old }(vc.ForceDense)
			vc.ForceDense = dense
			var addr mem.Addr
			grew, mem0, memAfter := 0, int64(0), int64(0)
			app := &testApp{
				name:  "restart-flush",
				setup: func(s *Setup) { addr = s.Alloc(words) },
				init:  func(w *Init) { w.SetHome(addr, words, 0) },
				worker: func(c *Ctx, id int) {
					if id == 0 {
						e, pg := c.sys.Engines[0].(*hlrcEngine), c.sys.Space.PageOf(addr)
						// vc.Arena is a slab.Slab of pairs, whose one field is
						// its current block's untaken tail.
						free := reflect.ValueOf(&e.pairs).Elem().Field(0)
						mem0 = e.st().ProtoMem
						for r := 1; r <= restarts; r++ {
							at, left := free.Pointer(), free.Len()
							f := e.flushOf(pg)
							for w := 1; w <= writers; w++ {
								e.pairs.RaiseTo(f, w, int32(r))
							}
							if free.Pointer() != at || free.Len() != left {
								grew++
							}
							e.wipeVolatile()
							e.noticePage(&IntervalRec{Proc: 1, Interval: int32(r)}, pg)
						}
						memAfter = e.st().ProtoMem
					}
					c.Barrier(0)
				},
				gather: func(c *Ctx) []float64 { return nil },
			}
			runOrFail(t, testOpts(ProtoHLRC, writers+1), app)
			want := 1
			if dense {
				want = 0 // dense vectors never grow in an arena
			}
			if grew != want {
				t.Errorf("%d restarts grew the home's pairs %d times, want %d", restarts, grew, want)
			}
			// Each restart frees the flush vector its homing charged; only
			// the requirement vector the first notice made stays.
			if vecBytes := int64(4 * (writers + 1)); memAfter-mem0 != vecBytes {
				t.Errorf("protocol memory +%d after %d restarts, want +%d (the seen vector)", memAfter-mem0, restarts, vecBytes)
			}
		})
	}
}
