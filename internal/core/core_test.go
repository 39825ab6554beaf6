package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gosvm/internal/fault"
	"gosvm/internal/mem"
	"gosvm/internal/paragon"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
	"gosvm/internal/trace"
)

// testApp adapts closures to the App interface.
type testApp struct {
	name   string
	setup  func(s *Setup)
	init   func(w *Init)
	worker func(c *Ctx, id int)
	gather func(c *Ctx) []float64
}

func (a *testApp) Name() string            { return a.name }
func (a *testApp) Setup(s *Setup)          { a.setup(s) }
func (a *testApp) Init(w *Init)            { a.init(w) }
func (a *testApp) Worker(c *Ctx, id int)   { a.worker(c, id) }
func (a *testApp) Gather(c *Ctx) []float64 { return a.gather(c) }

func testOpts(proto Protocol, p int) Options {
	return Options{Protocol: proto, Machine: Machine{Nodes: p}, PageBytes: 512}
}

func runOrFail(t *testing.T, opts Options, app App) *Result {
	t.Helper()
	res, err := Run(opts, app, false)
	if err != nil {
		t.Fatalf("%s/%s/p%d: %v", app.Name(), opts.Protocol, opts.Machine.Nodes, err)
	}
	return res
}

func forEachProto(t *testing.T, procs []int, fn func(t *testing.T, proto Protocol, p int)) {
	for _, proto := range Protocols {
		for _, p := range procs {
			proto, p := proto, p
			t.Run(fmt.Sprintf("%s/p%d", proto, p), func(t *testing.T) {
				fn(t, proto, p)
			})
		}
	}
}

// --------------------------------------------------------------------------
// Litmus: lock-protected counter.

func counterApp(n int) *testApp {
	var addr mem.Addr
	return &testApp{
		name:  "counter",
		setup: func(s *Setup) { addr = s.Alloc(1) },
		init:  func(w *Init) { w.Store(addr, 0) },
		worker: func(c *Ctx, id int) {
			for i := 0; i < n; i++ {
				c.Lock(1)
				v := c.Load(addr)
				// Open a preemption window inside the critical section so
				// broken mutual exclusion would lose updates.
				c.Compute(10 * sim.Microsecond)
				c.Store(addr, v+1)
				c.Unlock(1)
			}
			c.Barrier(0)
		},
		gather: func(c *Ctx) []float64 { return []float64{c.Load(addr)} },
	}
}

// The 32- and 96-node inputs start every node's first acquire at the same
// instant, so the manager forwards each to the previous requester down the
// longest chains, one waiter per holder; 96 nodes also use a radix-8
// barrier tree.
func TestLockedCounter(t *testing.T) {
	const n = 8
	forEachProto(t, []int{2, 4, 7, 32, 96}, func(t *testing.T, proto Protocol, p int) {
		res := runOrFail(t, testOpts(proto, p), counterApp(n))
		want := float64(p * n)
		if res.Data[0] != want {
			t.Fatalf("counter = %v, want %v", res.Data[0], want)
		}
	})
}

// --------------------------------------------------------------------------
// Litmus: visibility across a barrier (producer/consumers).

func barrierVisApp(words int) *testApp {
	var addr mem.Addr
	var sum mem.Addr
	return &testApp{
		name: "barriervis",
		setup: func(s *Setup) {
			addr = s.Alloc(words)
			sum = s.Alloc(64) // one word per proc, padded pages apart
		},
		init: func(w *Init) {
			for i := 0; i < words; i++ {
				w.Store(addr+mem.Addr(i), 0)
			}
		},
		worker: func(c *Ctx, id int) {
			if id == 0 {
				for i := 0; i < words; i++ {
					c.Store(addr+mem.Addr(i), float64(i+1))
				}
			}
			c.Barrier(0)
			s := 0.0
			for i := 0; i < words; i++ {
				s += c.Load(addr + mem.Addr(i))
			}
			c.Store(sum+mem.Addr(id), s)
			c.Barrier(1)
		},
		gather: func(c *Ctx) []float64 {
			out := make([]float64, c.Nodes())
			for i := range out {
				out[i] = c.Load(sum + mem.Addr(i))
			}
			return out
		},
	}
}

func TestBarrierVisibility(t *testing.T) {
	const words = 300 // spans several 512-byte pages
	want := float64(words * (words + 1) / 2)
	forEachProto(t, []int{2, 5}, func(t *testing.T, proto Protocol, p int) {
		res := runOrFail(t, testOpts(proto, p), barrierVisApp(words))
		for i, s := range res.Data {
			if s != want {
				t.Fatalf("proc %d read sum %v, want %v", i, s, want)
			}
		}
	})
}

// --------------------------------------------------------------------------
// Litmus: concurrent multiple writers on one page (false sharing) merge.

func multiWriterApp() *testApp {
	var addr mem.Addr
	return &testApp{
		name:  "multiwriter",
		setup: func(s *Setup) { addr = s.Alloc(64) },
		init: func(w *Init) {
			for i := 0; i < 64; i++ {
				w.Store(addr+mem.Addr(i), -1)
			}
		},
		worker: func(c *Ctx, id int) {
			c.Barrier(0)
			// All procs write disjoint words of the same page concurrently.
			for i := id; i < 64; i += c.Nodes() {
				c.Store(addr+mem.Addr(i), float64(100*id+i))
			}
			c.Barrier(1)
			// Every proc must observe every other proc's words.
			for i := 0; i < 64; i++ {
				want := float64(100*(i%c.Nodes()) + i)
				if got := c.Load(addr + mem.Addr(i)); got != want {
					panic(fmt.Sprintf("proc %d: word %d = %v, want %v", id, i, got, want))
				}
			}
			c.Barrier(2)
		},
		gather: func(c *Ctx) []float64 {
			out := make([]float64, 64)
			c.ReadRange(addr, out)
			return out
		},
	}
}

func TestMultiWriterMerge(t *testing.T) {
	forEachProto(t, []int{2, 4, 8}, func(t *testing.T, proto Protocol, p int) {
		res := runOrFail(t, testOpts(proto, p), multiWriterApp())
		for i, v := range res.Data {
			want := float64(100*(i%p) + i)
			if v != want {
				t.Fatalf("word %d = %v, want %v", i, v, want)
			}
		}
	})
}

// --------------------------------------------------------------------------
// Litmus: migratory data through a lock chain.

func migratoryApp(rounds int) *testApp {
	var addr mem.Addr
	return &testApp{
		name:  "migratory",
		setup: func(s *Setup) { addr = s.Alloc(32) },
		init: func(w *Init) {
			for i := 0; i < 32; i++ {
				w.Store(addr+mem.Addr(i), 0)
			}
		},
		worker: func(c *Ctx, id int) {
			for r := 0; r < rounds; r++ {
				c.Lock(3)
				for i := 0; i < 32; i++ {
					c.Store(addr+mem.Addr(i), c.Load(addr+mem.Addr(i))+1)
				}
				c.Unlock(3)
				c.Compute(50 * sim.Microsecond)
			}
			c.Barrier(0)
		},
		gather: func(c *Ctx) []float64 {
			out := make([]float64, 32)
			c.ReadRange(addr, out)
			return out
		},
	}
}

func TestMigratoryData(t *testing.T) {
	CheckFrames(t) // and the homeless protocols' diff apply order
	const rounds = 5
	forEachProto(t, []int{3, 6}, func(t *testing.T, proto Protocol, p int) {
		res := runOrFail(t, testOpts(proto, p), migratoryApp(rounds))
		want := float64(rounds * p)
		for i, v := range res.Data {
			if v != want {
				t.Fatalf("word %d = %v, want %v", i, v, want)
			}
		}
	})
}

// --------------------------------------------------------------------------
// Litmus: causal chain through different locks (transitive ordering).

func causalChainApp() *testApp {
	var x, y, out mem.Addr
	return &testApp{
		name: "causal",
		setup: func(s *Setup) {
			x = s.Alloc(1)
			y = s.Alloc(1)
			out = s.Alloc(1)
		},
		init: func(w *Init) { w.Store(x, 0); w.Store(y, 0); w.Store(out, 0) },
		worker: func(c *Ctx, id int) {
			switch id {
			case 0:
				c.Lock(1)
				c.Store(x, 41)
				c.Unlock(1)
			case 1:
				// Wait until x is set (via lock 1), then publish via lock 2.
				for {
					c.Lock(1)
					v := c.Load(x)
					c.Unlock(1)
					if v != 0 {
						break
					}
					c.Compute(20 * sim.Microsecond)
				}
				c.Lock(2)
				c.Store(y, 1)
				c.Unlock(2)
			case 2:
				// Once y is visible via lock 2, x must be visible too
				// (causality through proc 1).
				for {
					c.Lock(2)
					v := c.Load(y)
					c.Unlock(2)
					if v != 0 {
						break
					}
					c.Compute(20 * sim.Microsecond)
				}
				c.Store(out, c.Load(x)+1)
			}
			c.Barrier(0)
		},
		gather: func(c *Ctx) []float64 { return []float64{c.Load(out)} },
	}
}

func TestCausalChain(t *testing.T) {
	for _, proto := range Protocols {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			res := runOrFail(t, testOpts(proto, 3), causalChainApp())
			if res.Data[0] != 42 {
				t.Fatalf("out = %v, want 42 (causal ordering violated)", res.Data[0])
			}
		})
	}
}

// --------------------------------------------------------------------------
// Garbage collection correctness (homeless protocols).

// Besides the striped pages every node writes each round, one solo page is
// written each round by a writer that rotates over every node but the
// page's home, node 0, and read by every node after the collection. The
// home drops its seed copy at the first one, so every base copy of the solo
// page comes from a hint. The solo write is an interval of its own, so its
// writer is the next round's last writer of the striped pages although the
// notices name a higher-numbered writer last: the fetches after that
// collection follow hints only runGC set.
func TestGCPreservesData(t *testing.T) {
	for _, proto := range []Protocol{ProtoLRC, ProtoOLRC} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			const nodes, rounds = 4, 4
			opts := testOpts(proto, nodes)
			opts.GCThreshold = 1 // force GC at every barrier
			app := &testApp{name: "gc"}
			var addr, solo mem.Addr
			const words, soloWords = 256, 64
			var soloRead [nodes][rounds]float64 // each node's sum of the solo page, per round
			app.setup = func(s *Setup) { addr, solo = s.Alloc(words), s.Alloc(soloWords) }
			app.init = func(w *Init) {
				for i := 0; i < words; i++ {
					w.Store(addr+mem.Addr(i), 0)
				}
				w.SetHome(solo, soloWords, 0)
			}
			app.worker = func(c *Ctx, id int) {
				for round := 0; round < rounds; round++ {
					c.Barrier(3 * round)
					for i := id; i < words; i += c.Nodes() {
						c.Store(addr+mem.Addr(i), c.Load(addr+mem.Addr(i))+float64(id+1))
					}
					c.Barrier(3*round + 1)
					if id == 1+round%(c.Nodes()-1) {
						for i := 0; i < soloWords; i++ {
							c.Store(solo+mem.Addr(i), float64(round+1))
						}
					}
					c.Barrier(3*round + 2)
					for i := 0; i < soloWords; i++ {
						soloRead[id][round] += c.Load(solo + mem.Addr(i))
					}
				}
				c.Barrier(100)
			}
			app.gather = func(c *Ctx) []float64 {
				out := make([]float64, words)
				c.ReadRange(addr, out)
				return out
			}
			res := runOrFail(t, opts, app)
			for i, v := range res.Data {
				want := rounds * float64(i%nodes+1)
				if v != want {
					t.Fatalf("word %d = %v, want %v", i, v, want)
				}
			}
			for id, sums := range soloRead {
				for round, sum := range sums {
					if want := float64(soloWords * (round + 1)); sum != want {
						t.Fatalf("node %d read the solo page summing to %v after round %d, want %v", id, sum, round, want)
					}
				}
			}
			// GC must actually have run.
			gcs := int64(0)
			for _, nd := range res.Stats.Nodes {
				gcs += nd.Counts.GCs
			}
			if gcs == 0 {
				t.Fatal("GC never triggered despite threshold 1")
			}
		})
	}
}

// --------------------------------------------------------------------------
// Home effect: a single writer that is also the home creates no diffs.

func TestHomeEffectNoDiffs(t *testing.T) {
	for _, proto := range []Protocol{ProtoHLRC, ProtoOHLRC} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			app := &testApp{name: "homeeffect"}
			var addr mem.Addr
			const words = 128
			app.setup = func(s *Setup) { addr = s.Alloc(words) }
			app.init = func(w *Init) {
				for i := 0; i < words; i++ {
					w.Store(addr+mem.Addr(i), 1)
				}
				w.SetHome(addr, words, 0) // writer 0 is the home
			}
			app.worker = func(c *Ctx, id int) {
				for round := 0; round < 3; round++ {
					if id == 0 {
						for i := 0; i < words; i++ {
							c.Store(addr+mem.Addr(i), float64(round+2))
						}
					}
					c.Barrier(round)
				}
				c.Barrier(99)
			}
			app.gather = func(c *Ctx) []float64 {
				out := make([]float64, words)
				c.ReadRange(addr, out)
				return out
			}
			res := runOrFail(t, testOpts(proto, 4), app)
			for i, v := range res.Data {
				if v != 4 {
					t.Fatalf("word %d = %v, want 4", i, v)
				}
			}
			var created int64
			for _, nd := range res.Stats.Nodes {
				created += nd.Counts.DiffsCreated
			}
			if created != 0 {
				t.Fatalf("home effect violated: %d diffs created", created)
			}
		})
	}
}

// --------------------------------------------------------------------------
// Determinism: identical runs produce identical timing and stats.

func TestRunDeterminism(t *testing.T) {
	for _, proto := range Protocols {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			r1 := runOrFail(t, testOpts(proto, 4), counterApp(6))
			r2 := runOrFail(t, testOpts(proto, 4), counterApp(6))
			if r1.Stats.Elapsed != r2.Stats.Elapsed {
				t.Fatalf("elapsed differs: %v vs %v", r1.Stats.Elapsed, r2.Stats.Elapsed)
			}
			for i := range r1.Stats.Nodes {
				a, b := r1.Stats.Nodes[i], r2.Stats.Nodes[i]
				if *a != *b {
					t.Fatalf("node %d stats differ:\n%+v\n%+v", i, a, b)
				}
			}
		})
	}
}

// --------------------------------------------------------------------------
// Accounting invariants.

func TestBreakdownWithinElapsed(t *testing.T) {
	forEachProto(t, []int{4}, func(t *testing.T, proto Protocol, p int) {
		res := runOrFail(t, testOpts(proto, p), migratoryApp(4))
		for i, nd := range res.Stats.Nodes {
			if nd.Total() > res.Stats.Elapsed {
				t.Fatalf("node %d breakdown %v exceeds elapsed %v", i, nd.Total(), res.Stats.Elapsed)
			}
		}
	})
}

func TestProtoMemReturnsToSmall(t *testing.T) {
	// After a run with forced GC, homeless protocol memory should have
	// been mostly released (twins, diffs); peak must exceed final.
	opts := testOpts(ProtoLRC, 4)
	opts.GCThreshold = 1
	res := runOrFail(t, opts, migratoryApp(6))
	for i, nd := range res.Stats.Nodes {
		if nd.ProtoMem < 0 {
			t.Fatalf("node %d negative protocol memory", i)
		}
		if nd.ProtoMemPeak < nd.ProtoMem {
			t.Fatalf("node %d peak below current", i)
		}
	}
}

func TestSequentialBaseline(t *testing.T) {
	res := runOrFail(t, testOpts(ProtoSeq, 1), counterApp(10))
	if res.Data[0] != 10 {
		t.Fatalf("seq counter = %v", res.Data[0])
	}
	nd := res.Stats.Nodes[0]
	if nd.Counts.ReadMisses != 0 || nd.Counts.DiffsCreated != 0 {
		t.Fatalf("sequential run performed protocol work: %+v", nd.Counts)
	}
	for _, c := range []stats.Category{stats.CatData, stats.CatLock, stats.CatBarrier, stats.CatProtocol, stats.CatGC} {
		if nd.Time[c] != 0 {
			t.Fatalf("sequential run charged %v to %v", nd.Time[c], c)
		}
	}
}

func TestSeqRequiresOneProc(t *testing.T) {
	_, err := Run(Options{Protocol: ProtoSeq, Machine: Machine{Nodes: 2}, PageBytes: 512}, counterApp(1), false)
	if err == nil {
		t.Fatal("seq with 2 procs did not error")
	}
}

// --------------------------------------------------------------------------
// Speedup sanity: a perfectly parallel compute-bound app speeds up.

func TestEmbarrassinglyParallelSpeedup(t *testing.T) {
	mk := func() *testApp {
		var addr mem.Addr
		return &testApp{
			name:  "parallel",
			setup: func(s *Setup) { addr = s.Alloc(64) },
			init:  func(w *Init) { w.Store(addr, 0) },
			worker: func(c *Ctx, id int) {
				n := 100 / c.Nodes()
				for i := 0; i < n; i++ {
					c.Compute(sim.Millisecond)
				}
				c.Store(addr+mem.Addr(id), 1)
				c.Barrier(0)
			},
			gather: func(c *Ctx) []float64 { return []float64{c.Load(addr)} },
		}
	}
	seq := runOrFail(t, testOpts(ProtoSeq, 1), mk())
	for _, proto := range Protocols {
		par := runOrFail(t, testOpts(proto, 4), mk())
		speedup := float64(seq.Stats.Elapsed) / float64(par.Stats.Elapsed)
		if speedup < 3.0 {
			t.Fatalf("%s: speedup %0.2f < 3.0 for embarrassingly parallel work", proto, speedup)
		}
	}
}

// --------------------------------------------------------------------------
// Traffic accounting: messages balance and data flows are classified.

func TestTrafficClassification(t *testing.T) {
	res := runOrFail(t, testOpts(ProtoHLRC, 4), migratoryApp(4))
	if res.Stats.TotalBytes(stats.ClassData) == 0 {
		t.Fatal("no data traffic recorded for migratory workload")
	}
	if res.Stats.TotalBytes(stats.ClassProtocol) == 0 {
		t.Fatal("no protocol traffic recorded")
	}
	if res.Stats.TotalMsgs() == 0 {
		t.Fatal("no messages recorded")
	}
}

// --------------------------------------------------------------------------
// Phase capture (Figure 4 machinery).

// TestPhaseCapture: with the barrier a star and a deeper tree alike, one
// phase per barrier episode, numbered 1, 2, ... in order, each with every
// node's delta, and as many as every node counts barriers.
func TestPhaseCapture(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"central", testOpts(ProtoHLRC, 4)},
		{"tree", treeOpts(ProtoHLRC, 4, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.opts, barrierVisApp(64), true)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Phases) < 2 {
				t.Fatalf("captured %d phases, want >= 2", len(res.Phases))
			}
			for i, ph := range res.Phases {
				if ph.Barrier != i+1 {
					t.Errorf("phase %d is numbered %d, want %d", i, ph.Barrier, i+1)
				}
				if len(ph.PerNode) != 4 {
					t.Fatalf("phase has %d nodes", len(ph.PerNode))
				}
			}
			for i, nd := range res.Stats.Nodes {
				if int(nd.Counts.Barriers) != len(res.Phases) {
					t.Errorf("node %d counts %d barriers, phase capture %d episodes", i, nd.Counts.Barriers, len(res.Phases))
				}
			}
		})
	}
}

// Round-robin home placement ablation.
func TestHomeRoundRobinOption(t *testing.T) {
	opts := testOpts(ProtoHLRC, 4)
	opts.HomeRoundRobin = true
	res := runOrFail(t, opts, migratoryApp(4))
	for _, v := range res.Data {
		if v != 16 {
			t.Fatalf("value %v, want 16", v)
		}
	}
}

// The mesh network model must preserve coherence while adding link-level
// contention.
func TestMeshOptionCorrectness(t *testing.T) {
	opts := testOpts(ProtoHLRC, 8)
	opts.Machine.Topology = TopoMesh
	res := runOrFail(t, opts, multiWriterApp())
	for i, v := range res.Data {
		want := float64(100*(i%8) + i)
		if v != want {
			t.Fatalf("word %d = %v, want %v", i, v, want)
		}
	}
	// With contention the run cannot be faster than the crossbar.
	ref := runOrFail(t, testOpts(ProtoHLRC, 8), multiWriterApp())
	if res.Stats.Elapsed < ref.Stats.Elapsed {
		t.Fatalf("mesh run (%v) faster than crossbar (%v)", res.Stats.Elapsed, ref.Stats.Elapsed)
	}
}

// Force the OHLRC pending-fetch path: with a huge page, the co-processor
// diff is still in flight to the home when the next lock holder fetches
// the page, so the home must park the fetch on the pending list until
// the diff lands (and must not serve a stale copy).
func TestOHLRCFetchWaitsForDiff(t *testing.T) {
	opts := Options{Protocol: ProtoOHLRC, Machine: Machine{Nodes: 3}, PageBytes: 65536}
	var addr mem.Addr
	app := &testApp{
		name: "pendingfetch",
		setup: func(s *Setup) {
			addr = s.Alloc(8192) // one full 64KB page
		},
		init: func(w *Init) {
			for i := 0; i < 8192; i++ {
				w.Store(addr+mem.Addr(i), 0)
			}
			w.SetHome(addr, 8192, 2) // home is neither writer nor reader
		},
		worker: func(c *Ctx, id int) {
			switch id {
			case 1: // writer: dirty the whole page, then release the lock
				c.Lock(1)
				for i := 0; i < 8192; i++ {
					c.Store(addr+mem.Addr(i), float64(i+1))
				}
				c.Unlock(1)
			case 0: // reader: acquire after the writer and read through
				c.Compute(2 * sim.Millisecond) // let the writer go first
				c.Lock(1)
				if got := c.Load(addr + 4000); got != 4001 {
					panic(fmt.Sprintf("stale read through home: %v", got))
				}
				c.Unlock(1)
			}
			c.Barrier(0)
		},
		gather: func(c *Ctx) []float64 { return []float64{c.Load(addr + 8191)} },
	}
	res := runOrFail(t, opts, app)
	if res.Data[0] != 8192 {
		t.Fatalf("final word = %v, want 8192", res.Data[0])
	}
}

// Homeless GC under OLRC, with diffs made on the co-processor: the
// kGCDone rendezvous must still complete.
func TestGCUnderOLRC(t *testing.T) {
	opts := testOpts(ProtoOLRC, 4)
	opts.GCThreshold = 1
	res := runOrFail(t, opts, migratoryApp(6))
	for i, v := range res.Data {
		if v != 24 {
			t.Fatalf("word %d = %v, want 24", i, v)
		}
	}
	var gcs int64
	for _, nd := range res.Stats.Nodes {
		gcs += nd.Counts.GCs
	}
	if gcs == 0 {
		t.Fatal("GC never ran")
	}
}

// TestOLRCDiffRequestAnsweredBeforeDiffInFlight drives an OLRC diff request
// that the writer takes while another diff of the page is in flight. Node 1
// writes pages P and Q; barrier 0 closes the interval and queues both diffs
// on its co-processor, which takes 5 ms a diff here. Node 0, which held a
// copy of P, faults on it and asks node 1 for P's diff; the request queues
// behind Q's. Node 1 writes P again once P's first diff is made, and barrier
// 1 closes that interval while the request still queues, so when the
// co-processor takes it P's second diff is in flight. The request names only
// the first, which is made, so it is answered at once, with every diff it
// named, 4.6 ms before the second diff is made.
func TestOLRCDiffRequestAnsweredBeforeDiffInFlight(t *testing.T) {
	const words = 64 // one 512-byte page
	var p, q, out mem.Addr
	var takenAt, madeAt, answeredAt sim.Time
	var inFlightWhenTaken bool
	var named, answered int
	writeFirst := func(c *Ctx) { c.Store(p, 1); c.Store(q, 1) }
	read := func(c *Ctx) { c.Store(out, c.Load(p)) }
	writeSecond := func(c *Ctx) { c.Store(p+1, 2) }
	mk := func() *testApp {
		return &testApp{
			name: "olrc-diff-request-past-diff-in-flight",
			setup: func(s *Setup) {
				p, q, out = s.Alloc(words), s.Alloc(words), s.Alloc(words)
			},
			init: func(w *Init) { w.SetHome(p, 3*words, 0) },
			worker: func(c *Ctx, id int) {
				if c.Nodes() == 1 { // the sequential reference: each step in turn
					writeFirst(c)
					read(c)
					writeSecond(c)
					return
				}
				pg := c.sys.Space.PageOf(p)
				switch id {
				case 0:
					c.Load(p) // hold a copy: the fault after barrier 0 asks only for diffs
					c.Barrier(0)
					read(c)
					answeredAt = c.Now()
					req := &c.eng.(*lrcEngine).diffReq
					named = len(req.Recs)
					for _, d := range req.Diffs {
						if d != nil {
							answered++
						}
					}
				case 1:
					e := c.eng.(*lrcEngine)
					wrap(e, func(m paragon.Msg) {
						switch body := m.Body.(type) {
						case *fetchDiffsReq:
							if takenAt != 0 {
								return // the gather's fetch
							}
							// The request takes no work: its effect runs as it is taken.
							takenAt = e.sys.K.Now()
							u := e.useOf(pg)
							inFlightWhenTaken = u.inflight.busy && u.diffInterval == 2
						case *lrcUse:
							if int(body.diffPage) == pg && body.diffInterval == 2 {
								madeAt = e.sys.K.Now()
							}
						}
					})
					writeFirst(c)
					c.Barrier(0)
					writeSecond(c) // waits for P's first diff
				}
				c.Barrier(1)
			},
			gather: func(c *Ctx) []float64 {
				return []float64{c.Load(p), c.Load(p + 1), c.Load(q), c.Load(out)}
			},
		}
	}
	seq := runOrFail(t, testOpts(ProtoSeq, 1), mk())
	opts := testOpts(ProtoOLRC, 2)
	opts.Machine.Costs = paragon.DefaultCosts()
	opts.Machine.Costs.DiffCreateBase = 5 * sim.Millisecond
	res := runOrFail(t, opts, mk())
	if !inFlightWhenTaken {
		t.Error("the request was taken with P's second diff not in flight; the case is not the one meant")
	}
	// The answer comes once the request's one diff has crossed the network.
	const wantAnswer, wantMade sim.Time = 11231849, 15836276
	if takenAt > answeredAt || answeredAt != wantAnswer || madeAt != wantMade {
		t.Errorf("the request was taken at %d ns, answered at %d ns and P's second diff made at %d ns: want the answer at %d ns, before the diff at %d ns",
			takenAt, answeredAt, madeAt, wantAnswer, wantMade)
	}
	if named == 0 || answered != named {
		t.Errorf("the answer carries %d of the %d diffs the request named", answered, named)
	}
	if want := []float64{1, 2, 1, 1}; !slices.Equal(res.Data, want) || !slices.Equal(seq.Data, want) {
		t.Errorf("result %v and the sequential run's %v, want both %v", res.Data, seq.Data, want)
	}
	t.Logf("taken at %d, answered at %d, diff made at %d; %d/%d diffs; data %v", takenAt, answeredAt, madeAt, answered, named, res.Data)
}

// A diff request that names the interval whose diff is in flight breaks the
// FIFO argument workFetchDiffs rests on; applyFetchDiffs panics naming the
// node, the page and the interval.
func TestOLRCDiffRequestForDiffInFlightPanics(t *testing.T) {
	const page, interval = 3, 7
	want := fmt.Sprintf("core: node 1 was asked for its diff of page %d interval %d while the diff is in flight", page, interval)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, want) {
			t.Errorf("a request for the diff in flight panicked with %q, want %q", msg, want)
		}
	}()
	e := &lrcEngine{}
	e.self = 1
	u := e.useOf(page)
	u.inflight.busy, u.diffPage, u.diffInterval = true, page, interval
	req := &fetchDiffsReq{Page: page, Recs: []*IntervalRec{{Proc: 0, Interval: interval}, {Proc: 1, Interval: interval}}}
	e.applyFetchDiffs(&service{b: &e.base, m: paragon.Msg{Kind: kFetchDiffs, Body: req}})
}

// A page whose entire diff chain lives at the last writer must be
// recoverable by a node that never saw the page (diff caching +
// full-copy fetch with applied-interval vector).
func TestLRCLateReaderSeesChain(t *testing.T) {
	var addr mem.Addr
	app := &testApp{
		name:  "latereader",
		setup: func(s *Setup) { addr = s.Alloc(16) },
		init: func(w *Init) {
			for i := 0; i < 16; i++ {
				w.Store(addr+mem.Addr(i), 0)
			}
		},
		worker: func(c *Ctx, id int) {
			// Nodes 0..2 take turns extending the chain; node 3 reads only
			// at the very end, needing the whole history.
			if id < 3 {
				for r := 0; r < 4; r++ {
					c.Lock(9)
					for i := 0; i < 16; i++ {
						c.Store(addr+mem.Addr(i), c.Load(addr+mem.Addr(i))+1)
					}
					c.Unlock(9)
				}
			}
			c.Barrier(0)
			if id == 3 {
				for i := 0; i < 16; i++ {
					if got := c.Load(addr + mem.Addr(i)); got != 12 {
						panic(fmt.Sprintf("late reader: word %d = %v, want 12", i, got))
					}
				}
			}
			c.Barrier(1)
		},
		gather: func(c *Ctx) []float64 {
			out := make([]float64, 16)
			c.ReadRange(addr, out)
			return out
		},
	}
	runOrFail(t, testOpts(ProtoLRC, 4), app)
}

// Lock re-entry and unlocked release must panic (API misuse detection).
func TestLockMisusePanics(t *testing.T) {
	mustPanic := func(name string, worker func(c *Ctx, id int)) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			app := &testApp{
				name:   name,
				setup:  func(s *Setup) { s.Alloc(1) },
				init:   func(w *Init) {},
				worker: worker,
				gather: func(c *Ctx) []float64 { return nil },
			}
			_, _ = Run(testOpts(ProtoHLRC, 2), app, false)
		})
	}
	mustPanic("reentry", func(c *Ctx, id int) {
		if id == 0 {
			c.Lock(1)
			c.Lock(1)
		}
		c.Barrier(0)
	})
	mustPanic("bare-unlock", func(c *Ctx, id int) {
		if id == 0 {
			c.Unlock(2)
		}
		c.Barrier(0)
	})
}

// Missing final barrier (dirty pages at exit) must be caught by Finish.
func TestMissingFinalBarrierPanics(t *testing.T) {
	var addr mem.Addr
	app := &testApp{
		name:  "nobarrier",
		setup: func(s *Setup) { addr = s.Alloc(4) },
		init:  func(w *Init) { w.Store(addr, 0) },
		worker: func(c *Ctx, id int) {
			c.Store(addr+mem.Addr(id), 1)
			// No barrier: updates never flushed.
		},
		gather: func(c *Ctx) []float64 { return nil },
	}
	defer func() {
		if recover() == nil {
			t.Fatal("missing final barrier not detected")
		}
	}()
	_, _ = Run(testOpts(ProtoHLRC, 2), app, false)
}

// An access past the allocated shared space panics naming the node, the
// address and the allocated page count, under every protocol, before the
// engine sees the fault; so does a FreshRead, also under the protocols that
// have no copy to revalidate. The app allocates 16 words, one 64-word page; the
// range accesses start inside it and run into the next page.
func TestAccessOutsideSharedSpacePanics(t *testing.T) {
	accesses := []struct {
		name  string
		addr  mem.Addr // the first word outside the allocated page
		touch func(c *Ctx, base mem.Addr)
	}{
		{"load", 100000, func(c *Ctx, base mem.Addr) { c.Load(base + 100000) }},
		{"store", 100000, func(c *Ctx, base mem.Addr) { c.Store(base+100000, 1) }},
		{"read-range", 64, func(c *Ctx, base mem.Addr) { c.ReadRange(base+8, make([]float64, 100)) }},
		{"write-range", 64, func(c *Ctx, base mem.Addr) { c.WriteRange(base+8, make([]float64, 100)) }},
		{"fresh-read", 100000, func(c *Ctx, base mem.Addr) { c.FreshRead(base + 100000) }},
	}
	for _, proto := range append([]Protocol{ProtoSeq}, Protocols...) {
		for _, ac := range accesses {
			t.Run(fmt.Sprintf("%s/%s", proto, ac.name), func(t *testing.T) {
				opts := testOpts(proto, 2)
				if proto == ProtoSeq {
					opts.Machine.Nodes = 1
				}
				last := opts.Machine.Nodes - 1
				var base mem.Addr
				app := &testApp{
					name:  "outside",
					setup: func(s *Setup) { base = s.Alloc(16) },
					init:  func(w *Init) {},
					worker: func(c *Ctx, id int) {
						if id == last {
							ac.touch(c, base)
						}
						c.Barrier(0)
					},
					gather: func(c *Ctx) []float64 { return nil },
				}
				want := fmt.Sprintf("core: node %d accessed address %d on page %d, outside the 1 allocated pages",
					last, base+ac.addr, (base+ac.addr)/64)
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, want) {
						t.Fatalf("the run panicked with %q, want %q", msg, want)
					}
				}()
				_, _ = Run(opts, app, false)
			})
		}
	}
}

// An access at word 2^40, far past the allocated space, panics as
// TestAccessOutsideSharedSpacePanics's do, and allocates next to nothing
// first: the page table reads the page as its shared wild entry instead of
// growing a block index of gigabytes to reach it.
func TestWildAccessGrowsNothing(t *testing.T) {
	const addr = mem.Addr(1) << 40
	for _, proto := range append([]Protocol{ProtoSeq}, Protocols...) {
		for _, store := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/store=%v", proto, store), func(t *testing.T) {
				opts := testOpts(proto, 2)
				if proto == ProtoSeq {
					opts.Machine.Nodes = 1
				}
				last := opts.Machine.Nodes - 1
				var grew uint64
				app := &testApp{
					name:  "wild",
					setup: func(s *Setup) { s.Alloc(16) },
					init:  func(w *Init) {},
					worker: func(c *Ctx, id int) {
						if id == last {
							var before, after runtime.MemStats
							runtime.ReadMemStats(&before)
							defer func() {
								runtime.ReadMemStats(&after)
								grew = after.TotalAlloc - before.TotalAlloc
							}()
							if store {
								c.Store(addr, 1)
							} else {
								c.Load(addr)
							}
						}
						c.Barrier(0)
					},
					gather: func(c *Ctx) []float64 { return nil },
				}
				want := fmt.Sprintf("core: node %d accessed address %d on page %d, outside the 1 allocated pages",
					last, addr, addr/64)
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, want) {
						t.Fatalf("the run panicked with %q, want %q", msg, want)
					}
					if grew > 1<<20 {
						t.Errorf("the access allocated %d bytes before it panicked, want under 1 MB", grew)
					}
				}()
				_, _ = Run(opts, app, false)
			})
		}
	}
}

// Options Run cannot honour are an error from Run, naming the bad value,
// not a panic: a page size that is not a whole number of words, a negative
// GC threshold (a homeless protocol would otherwise collect at every
// barrier), a machine with fewer than one node or an unknown topology, and
// a sequential run on more than one node.
func TestRunRejectsBadOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Options)
		want string
	}{
		{"PageBytes=100", func(o *Options) { o.PageBytes = 100 }, "PageBytes=100"},
		{"PageBytes=12", func(o *Options) { o.PageBytes = 12 }, "PageBytes=12"},
		{"PageBytes=-8", func(o *Options) { o.PageBytes = -8 }, "PageBytes=-8"},
		{"GCThreshold=-1", func(o *Options) { o.Protocol = ProtoLRC; o.GCThreshold = -1 }, "GCThreshold=-1"},
		{"Nodes=-1", func(o *Options) { o.Machine.Nodes = -1 }, "at least 1 node, got -1"},
		{"Topology=torus", func(o *Options) { o.Machine.Topology = "torus" }, `unknown topology "torus"`},
		{"seq-on-2-nodes", func(o *Options) { o.Protocol = ProtoSeq }, "Machine.Nodes=1, got 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOpts(ProtoHLRC, 2)
			tc.edit(&opts)
			if _, err := Run(opts, counterApp(1), false); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run returned %v, want an error naming %s", err, tc.want)
			}
		})
	}
}

// --------------------------------------------------------------------------
// Protocol event tracing.

func TestTraceCapturesProtocolEvents(t *testing.T) {
	opts := testOpts(ProtoHLRC, 4)
	opts.TraceLimit = -1
	res := runOrFail(t, opts, migratoryApp(4))
	tr := res.Trace
	if tr.Len() == 0 {
		t.Fatal("no events captured")
	}
	counts := tr.Counts()
	for _, k := range []trace.Kind{trace.ReadMiss, trace.WriteFault, trace.PageFetch,
		trace.DiffCreate, trace.DiffFlush, trace.DiffApply, trace.Invalidate,
		trace.LockAcquire, trace.LockGrant, trace.BarrierEnter, trace.BarrierExit} {
		if counts[k] == 0 {
			t.Errorf("no %v events captured", k)
		}
	}
	// Events are time-ordered.
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatalf("events out of order at %d: %v then %v", i, evs[i-1], evs[i])
		}
	}
	// Every grant follows an acquire of the same lock on the same node.
	for _, g := range tr.ByKind(trace.LockGrant) {
		found := false
		for _, a := range tr.ByKind(trace.LockAcquire) {
			if a.Node == g.Node && a.Arg == g.Arg && a.T <= g.T {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("grant without acquire: %v", g)
		}
	}
}

func TestTraceGCEvents(t *testing.T) {
	opts := testOpts(ProtoLRC, 4)
	opts.TraceLimit = -1
	opts.GCThreshold = 1
	res := runOrFail(t, opts, migratoryApp(4))
	c := res.Trace.Counts()
	if c[trace.GCStart] == 0 || c[trace.GCStart] != c[trace.GCEnd] {
		t.Fatalf("gc events unbalanced: start=%d end=%d", c[trace.GCStart], c[trace.GCEnd])
	}
}

// Every counted protocol event is traced once: per kind, the trace holds
// exactly as many events as the nodes' summed counter, gather phase
// included — a node's trace stops where its statistics snapshot does. The
// kind/counter list is the test's own, not the engines' table, so a swapped
// table entry fails here. multiWriterApp stores to pages it never loaded —
// HLRC takes that as a read fault, then a write fault; LRC inside its
// write fault — and counterApp acquires locks; multiWriterApp runs once
// more under the hostile fault profile, whose retries and duplicates must
// not count or trace an event twice. Last, with tracing off an event is a
// counter increment and nothing else: no allocation.
func TestTraceAgreesWithCounters(t *testing.T) {
	counters := []struct {
		kind  trace.Kind
		count func(c *stats.Counters) int64
	}{
		{trace.ReadMiss, func(c *stats.Counters) int64 { return c.ReadMisses }},
		{trace.WriteFault, func(c *stats.Counters) int64 { return c.WriteFaults }},
		{trace.PageFetch, func(c *stats.Counters) int64 { return c.PagesFetched }},
		{trace.DiffCreate, func(c *stats.Counters) int64 { return c.DiffsCreated }},
		{trace.DiffApply, func(c *stats.Counters) int64 { return c.DiffsApplied }},
		{trace.LockAcquire, func(c *stats.Counters) int64 { return c.LockAcquires }},
		{trace.BarrierEnter, func(c *stats.Counters) int64 { return c.Barriers }},
		{trace.GCStart, func(c *stats.Counters) int64 { return c.GCs }},
	}
	forEachProto(t, []int{4}, func(t *testing.T, proto Protocol, p int) {
		cells := []struct {
			name string
			app  *testApp
			opts Options
		}{
			{"multiwriter", multiWriterApp(), testOpts(proto, p)},
			{"counter", counterApp(4), testOpts(proto, p)},
			{"multiwriter/hostile", multiWriterApp(), faultOpts(t, proto, p, fault.ProfileHostile, 1)},
		}
		for _, cell := range cells {
			opts := cell.opts
			opts.TraceLimit = -1
			opts.GCThreshold = 1 // the homeless protocols collect at every barrier
			res := runOrFail(t, opts, cell.app)
			traced := res.Trace.Counts()
			for _, c := range counters {
				var counted int64
				for _, nd := range res.Stats.Nodes {
					counted += c.count(&nd.Counts)
				}
				if int64(traced[c.kind]) != counted {
					t.Errorf("%s: %d %v events traced, %d counted", cell.name, traced[c.kind], c.kind, counted)
				}
			}
			if traced[trace.DiffCreate] == 0 || traced[trace.DiffApply] == 0 {
				t.Errorf("%s: no diff created or applied", cell.name)
			}
			if !proto.HomeBased() && traced[trace.GCStart] == 0 {
				t.Errorf("%s: no garbage collection ran", cell.name)
			}
		}
	})

	var allocs float64
	var applied int64
	var addr mem.Addr
	runOrFail(t, testOpts(ProtoHLRC, 2), litmusApp(&addr, func(c *Ctx, id int) {
		if id == 1 {
			b := baseOf(c.sys.Engines[id])
			before := b.st().Counts.DiffsApplied
			allocs = testing.AllocsPerRun(100, func() { b.event(trace.DiffApply, 0, 0, 8) })
			applied = b.st().Counts.DiffsApplied - before
		}
	}))
	if allocs != 0 || applied != 101 {
		t.Errorf("an untraced event allocates %.0f times and counts %d of 101 calls; want 0 and 101", allocs, applied)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	res := runOrFail(t, testOpts(ProtoHLRC, 2), counterApp(3))
	if res.Trace.Len() != 0 {
		t.Fatal("trace captured events without being enabled")
	}
}

func TestTraceLimitRespected(t *testing.T) {
	opts := testOpts(ProtoHLRC, 4)
	opts.TraceLimit = 10
	res := runOrFail(t, opts, migratoryApp(4))
	if res.Trace.Len() != 10 {
		t.Fatalf("trace len = %d, want 10", res.Trace.Len())
	}
}
