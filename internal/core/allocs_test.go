package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"gosvm/internal/mem"
	"gosvm/internal/sim"
)

// oneWriterApp stores into a single page from node 0 each episode, then
// everyone barriers. The active writer set is fixed, so per-sync-op
// protocol work must not grow with machine size.
func oneWriterApp(episodes int) *testApp {
	var addr mem.Addr
	return &testApp{
		name:  "onewriter",
		setup: func(s *Setup) { addr = s.Alloc(1) },
		init: func(w *Init) {
			w.Store(addr, 0)
			w.SetHome(addr, 1, 0)
		},
		worker: func(c *Ctx, id int) {
			for e := 0; e < episodes; e++ {
				if id == 0 {
					c.Store(addr, float64(e+1))
				}
				c.Barrier(e)
			}
		},
		gather: func(c *Ctx) []float64 { return []float64{c.Load(addr)} },
	}
}

// allWritersApp has every node store into a page of its own each episode,
// then everyone barriers: each release carries one interval record per
// peer, and every node takes a write notice for every peer's page.
func allWritersApp(episodes int) *testApp {
	var addr mem.Addr
	var stride mem.Addr
	return &testApp{
		name: "allwriters",
		setup: func(s *Setup) {
			stride = mem.Addr(s.Space.PageWords)
			addr = s.Alloc(s.P * s.Space.PageWords)
		},
		init: func(w *Init) {
			for i := 0; i < w.P; i++ {
				w.SetHome(addr+mem.Addr(i)*stride, 1, i)
			}
		},
		worker: func(c *Ctx, id int) {
			for e := 0; e < episodes; e++ {
				c.Store(addr+mem.Addr(id)*stride, float64(e+1))
				c.Barrier(e)
			}
		},
		gather: func(c *Ctx) []float64 { return []float64{c.Load(addr)} },
	}
}

// TestSyncOpAllocsFlatInNodeCount guards the scaling contract: the host
// allocation COUNT per (node x barrier episode) stays constant as the
// machine grows. Sparse vector clocks, the tree barrier, and lazily
// materialized per-node state keep it O(1); a regression to dense
// per-node vectors or eager state shows up as per-op allocations
// scaling with the node count. (Allocation sizes may still grow — one
// dense clock buffer is one allocation at any machine size.)
//
// With one writer nothing per (node x record) or per (node x page) can
// show, so the all-writers case stands beside it: there every release
// delivers a record and a notice per peer, and what may grow with the
// machine is the slab blocks those are carved from — a private copy of
// each record, or a vector or list allocated per noticed page, costs
// allocations per node per peer per episode and fails this.
func TestSyncOpAllocsFlatInNodeCount(t *testing.T) {
	const episodes = 30
	apps := []struct {
		prefix string
		mk     func(int) *testApp
		slack  float64
	}{{"", oneWriterApp, 2}, {"all-writers/", allWritersApp, 8}}
	for _, app := range apps {
		for _, proto := range []Protocol{ProtoHLRC, ProtoLRC} {
			app, proto := app, proto
			t.Run(app.prefix+string(proto), func(t *testing.T) {
				perOp := func(p int) float64 {
					total := testing.AllocsPerRun(2, func() {
						if _, err := Run(testOpts(proto, p), app.mk(episodes), false); err != nil {
							t.Fatal(err)
						}
					})
					return total / float64(p*episodes)
				}
				// 8 nodes reports straight to the manager, 96 through a
				// radix-8 tree (crossover at 64), so both shapes are under
				// guard.
				small := perOp(8)
				large := perOp(96)
				if large > 1.6*small+app.slack {
					t.Errorf("allocs per sync op grew with machine size: %.1f at p=8, %.1f at p=96", small, large)
				}
				if testing.Verbose() {
					t.Logf("%.1f allocs per (node x episode) at p=8, %.1f at p=96", small, large)
				}
			})
		}
	}
}

// allocatedBytes returns the bytes f allocates (the whole process's; the
// callers run nothing beside it).
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// refetchApp has each reader poll one remote 8 KB page with FreshRead,
// rounds times: node 1 polls node 0's page and, when both is set, node 0
// polls node 1's. check runs on every node before the closing barrier.
func refetchApp(rounds int, both bool, check func(c *Ctx, id int)) *testApp {
	const words = 1024
	var addr mem.Addr
	return &testApp{
		name:  "refetch",
		setup: func(s *Setup) { addr = s.Alloc(2 * words) },
		init: func(w *Init) {
			w.SetHome(addr, words, 0)
			w.SetHome(addr+words, words, 1)
		},
		worker: func(c *Ctx, id int) {
			if id == 1 || both {
				remote := addr + mem.Addr(1-id)*words
				for i := 0; i < rounds; i++ {
					if !c.FreshRead(remote) || c.Load(remote) != 0 {
						panic("refetch: fresh read failed")
					}
				}
			}
			check(c, id)
			c.Barrier(0)
		},
		gather: func(c *Ctx) []float64 { return nil },
	}
}

// poolWithinCopies fails t if the simulation's free list holds more frames
// than its nodes hold copies: a list that grew with refetches would.
func poolWithinCopies(t *testing.T, c *Ctx) {
	if l := c.FrameList(); l.Free > l.Resident {
		t.Errorf("node %d: %d free frames for %d copies resident; want no more frames than copies", c.id, l.Free, l.Resident)
	}
}

// TestRefetchMovesOneFrame guards the fetch path's host cost: a home copies
// its page once per version, not once per fetch. Polling a page nobody
// writes — two nodes polling each other's, or one polling the other's —
// every refetch after the first is answered with the frame already
// published, so the loop allocates no page at all. With eight readers polling one page while
// a ninth node writes and flushes it now and then, the frames allocated are
// bounded by the versions the home published plus one per reader, not by
// the fetches. The simulation's one free list must never hold more frames
// than its nodes hold copies.
func TestRefetchMovesOneFrame(t *testing.T) {
	const rounds = 2000
	for _, proto := range []Protocol{ProtoHLRC, ProtoOHLRC} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			opts := testOpts(proto, 2)
			opts.PageBytes = 8192
			run := func(both bool, check func(c *Ctx, id int)) float64 {
				n := rounds
				if both {
					n = 2 * rounds
				}
				return float64(allocatedBytes(func() { runOrFail(t, opts, refetchApp(rounds, both, check)) })) / float64(n)
			}
			mutual := run(true, func(*Ctx, int) {})
			oneWay := run(false, func(c *Ctx, id int) { poolWithinCopies(t, c) })
			if mutual >= 1024 || oneWay >= 1024 {
				t.Errorf("%.0f bytes allocated per refetch with two nodes polling each other, %.0f with one polling; want < 1024, no 8 KB frame, in both",
					mutual, oneWay)
			}

			const readers, polls = 8, 100
			var addr mem.Addr
			fanIn := func(versions int) *testApp {
				return &testApp{
					name:  "fan-in",
					setup: func(s *Setup) { addr = s.Alloc(1024) },
					init:  func(w *Init) { w.SetHome(addr, 1024, 0) },
					worker: func(c *Ctx, id int) {
						switch {
						case id == readers+1:
							c.Load(addr) // the writer's tables are not what a version costs
							for v := 1; v < versions; v++ {
								c.Compute(30 * sim.Millisecond)
								c.Store(addr, float64(v))
								baseOf(c.eng).closeIntervalOnApp()
							}
						case id > 0:
							last := 0.0
							for i := 0; i < polls; i++ {
								if !c.FreshRead(addr) || c.Load(addr) < last {
									panic("fan-in: a fresh read went back in time")
								}
								last = c.Load(addr)
							}
						}
						poolWithinCopies(t, c)
						c.Barrier(0)
					},
					gather: func(c *Ctx) []float64 { return []float64{c.Load(addr)} },
				}
			}
			opts.Machine.Nodes = readers + 2
			const versions = 20
			var res *Result
			quiet := float64(allocatedBytes(func() { runOrFail(t, opts, fanIn(1)) }))
			busy := float64(allocatedBytes(func() { res = runOrFail(t, opts, fanIn(versions)) }))
			frames := (busy - quiet) / 8192
			if quiet/(readers*polls) >= 1024 || frames > versions+readers {
				t.Errorf("%d readers x %d polls: %.0f bytes per refetch of a page nobody writes, %.1f frames more when a writer makes %d versions of it; want < 1024 bytes and at most versions + readers = %d frames",
					readers, polls, quiet/(readers*polls), frames, versions, versions+readers)
			}
			if res.Data[0] != versions-1 {
				t.Errorf("fan-in page ends at %v, want %d", res.Data[0], versions-1)
			}
			if testing.Verbose() {
				t.Logf("bytes allocated per refetch: %.0f polling each other, %.0f polling one way, %.0f with %d readers; %.1f frames more for %d versions",
					mutual, oneWay, quiet/(readers*polls), readers, frames, versions)
			}
		})
	}
}

// TestFrameCheckIsOffTheAccessPath: the immutability check (CheckFrames in
// export_test.go) may cost a checksum per frame published and released when
// it is on; off it must cost nothing, and on or off it must stay out of
// the Ctx accesses. Loads and ReadRanges of a shared frame and Stores and
// WriteRanges into the copy a write fault made allocate nothing; building
// the Ctx materializes no page-table block of a page the node never
// touches; a polling run allocates the same with the check on as off; and
// ctx.go, the whole access path, does not mention frames at all — there
// is no branch to take.
func TestFrameCheckIsOffTheAccessPath(t *testing.T) {
	var addr mem.Addr
	var shared, untouched bool
	var loads, reads, stores, writes float64
	runOrFail(t, testOpts(ProtoHLRC, 2), litmusApp(&addr, func(c *Ctx, id int) {
		if id == 1 {
			// Node 0 homes every page; the Ctx is built, nothing is touched.
			untouched = c.pt.Peek(c.sys.Space.PageOf(addr)) == nil
			buf := make([]float64, 3)
			c.Load(addr)
			shared = holding(c, addr).frame != nil
			loads = testing.AllocsPerRun(100, func() { c.Load(addr + 3) })
			reads = testing.AllocsPerRun(100, func() { c.ReadRange(addr+3, buf) })
			c.Store(addr+3, 1)
			stores = testing.AllocsPerRun(100, func() { c.Store(addr+3, 2) })
			writes = testing.AllocsPerRun(100, func() { c.WriteRange(addr+3, buf) })
		}
	}))
	if !shared || loads != 0 || reads != 0 || stores != 0 || writes != 0 {
		t.Errorf("reading a shared frame (%v): %.0f allocations per Load and %.0f per ReadRange; after the write fault %.0f per Store and %.0f per WriteRange; want a shared frame and 0 for all four",
			shared, loads, reads, stores, writes)
	}
	if !untouched {
		t.Error("building the Ctx materialized the page-table block of a page its node never touched")
	}

	opts := testOpts(ProtoHLRC, 2)
	opts.PageBytes = 8192
	poll := func() uint64 {
		return allocatedBytes(func() { runOrFail(t, opts, refetchApp(500, true, func(*Ctx, int) {})) })
	}
	off := poll()
	t.Run("on", func(t *testing.T) {
		CheckFrames(t)
		if on := poll(); on > off+off/50 {
			t.Errorf("1000 refetches allocate %d bytes with the frame check on, %d with it off; want the same to 2 %%", on, off)
		}
	})

	src, err := os.ReadFile("ctx.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, word := range []string{"Frame", "Shared", "Verify"} {
		if bytes.Contains(src, []byte(word)) {
			t.Errorf("ctx.go mentions %q: the access path must not know whether a page's copy is shared", word)
		}
	}
}

// TestLRCFreeFramesWithinResidentCopies: garbage collection drops page
// copies into the simulation's one free list, and the next round's misses
// take them back. After several collections the list must hold some frames
// and no more than the machine's nodes still hold copies.
func TestLRCFreeFramesWithinResidentCopies(t *testing.T) {
	for _, proto := range []Protocol{ProtoLRC, ProtoOLRC} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			const words, rounds = 64 * 12, 4 // twelve 512-byte pages
			var addr mem.Addr
			var list FrameList
			app := &testApp{
				name:  "gc-frames",
				setup: func(s *Setup) { addr = s.Alloc(words) },
				init:  func(w *Init) {},
				worker: func(c *Ctx, id int) {
					for round := 0; round < rounds; round++ {
						// Everyone reads every page, then writes a word of
						// each page of a rotating third of them.
						for i := 0; i < words; i += 64 {
							c.Load(addr + mem.Addr(i))
						}
						c.Barrier(2 * round)
						for pg := (id + round) % 3; pg < words/64; pg += 3 {
							a := addr + mem.Addr(pg*64+id)
							c.Store(a, c.Load(a)+1)
						}
						c.Barrier(2*round + 1)
					}
				},
				gather: func(c *Ctx) []float64 {
					list = c.FrameList()
					return nil
				},
			}
			opts := testOpts(proto, 4)
			opts.GCThreshold = 1 // collect at every barrier
			res := runOrFail(t, opts, app)
			if gcs := res.Stats.Nodes[0].Counts.GCs; gcs < 2 {
				t.Fatalf("%d collections, want at least 2", gcs)
			}
			if list.Free > list.Resident {
				t.Errorf("%d free frames for %d copies resident; want no more frames than copies", list.Free, list.Resident)
			}
			if list.Free == 0 {
				t.Error("no free frame: the collection's drops are not recycled")
			}
			if testing.Verbose() {
				t.Logf("{free frames, free backings, resident copies}: %+v", list)
			}
		})
	}
}

// TestSeedImageIsAllocatedOnce: the staging image is the homes' first copy
// of every page, so a run allocates the shared memory once, not an image
// and then a frame per page.
func TestSeedImageIsAllocatedOnce(t *testing.T) {
	const words = 1 << 20 // 8 MB
	app := &testApp{
		name:   "seed-once",
		setup:  func(s *Setup) { s.Alloc(words) },
		init:   func(w *Init) {},
		worker: func(c *Ctx, id int) { c.Barrier(0) },
		gather: func(c *Ctx) []float64 { return nil },
	}
	for _, proto := range []Protocol{ProtoSeq, ProtoHLRC, ProtoLRC} {
		nodes := 2
		if proto == ProtoSeq {
			nodes = 1
		}
		opts := testOpts(proto, nodes)
		opts.PageBytes = 8192
		if got := allocatedBytes(func() { runOrFail(t, opts, app) }); got >= 8*words*3/2 {
			t.Errorf("%s: run allocated %d bytes for %d of shared memory, want under 1.5x", proto, got, 8*words)
		}
	}
}

// noticeOnlyApp has node 0 store into each of pages pages before each of
// barriers barriers; nodes 1 ... n-1 only barrier, so all they ever hold of
// those pages is the write notices.
func noticeOnlyApp(pages, barriers int) *testApp {
	var addr, stride mem.Addr
	return &testApp{
		name: "noticeonly",
		setup: func(s *Setup) {
			stride = mem.Addr(s.Space.PageWords)
			addr = s.Alloc(pages * s.Space.PageWords)
		},
		init: func(w *Init) { w.SetHome(addr, pages*int(stride), 0) },
		worker: func(c *Ctx, id int) {
			for b := 0; b < barriers; b++ {
				if id == 0 {
					for pg := 0; pg < pages; pg++ {
						c.Store(addr+mem.Addr(pg)*stride, float64(b+1))
					}
				}
				c.Barrier(b)
			}
		},
		gather: func(c *Ctx) []float64 { return nil },
	}
}

// TestNoticeOnlyPageBytes guards what a write notice costs a node that
// never touches the page: nothing per page. The node defers the notice
// (base.learn): its record joins the node's deferred list once, and the
// page gets no slot, no notice run and no vector. What is left is the
// node's page bits and its share of fixed per-node state. The writer's own
// cost is the same at every machine size, so the figure is the marginal
// one: bytes a run on n nodes allocates beyond the same run on 2, per added
// (node x page), about 2.4 at p=8 and 3.7 at p=96 under all four protocols,
// where eager delivery read 53 home-based and 116 homeless (a 48-byte slot;
// a 40-byte slot and a 64-byte run of four notices).
func TestNoticeOnlyPageBytes(t *testing.T) {
	const pages, barriers = 4096, 3
	for _, proto := range Protocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			total := func(n int) float64 {
				opts := testOpts(proto, n)
				opts.GCThreshold = 1 << 30 // a collection's own scratch is not a notice's cost
				return float64(allocatedBytes(func() { runOrFail(t, opts, noticeOnlyApp(pages, barriers)) }))
			}
			two := total(2)
			perPage := func(n int) float64 { return (total(n) - two) / float64((n-2)*pages) }
			const limit = 8.0
			small, large := perPage(8), perPage(96)
			if small > limit || large > limit {
				t.Errorf("%.0f bytes per notice-only page at p=8, %.0f at p=96; want at most %.0f", small, large, limit)
			}
			if large > 1.25*small+8 {
				t.Errorf("bytes per notice-only page grew with machine size: %.0f at p=8, %.0f at p=96", small, large)
			}
			if testing.Verbose() {
				t.Logf("%s: %.1f bytes per notice-only (node x page) at p=8, %.1f at p=96", proto, small, large)
			}
		})
	}
}

// TestPageSlotSizes pins the tier every page a node faults on, homes or
// folds deferred notices into pays for: a field added to a slot instead of
// to its use-tier record fails here, not in a benchmark three PRs later.
func TestPageSlotSizes(t *testing.T) {
	if got := unsafe.Sizeof(hlrcPage{}); got > 48 {
		t.Errorf("hlrcPage slot is %d bytes, want at most 48 (one inline vc.Sparse and one pointer)", got)
	}
	if got := unsafe.Sizeof(lrcPage{}); got > 40 {
		t.Errorf("lrcPage slot is %d bytes, want at most 40 (the notice list's header, one pointer, the holder hint and the collection's mark)", got)
	}
	if got := unsafe.Sizeof(mem.Page{}); got > 64 {
		t.Errorf("mem.Page is %d bytes, want at most 64 (state and alias flag, two slices and one frame pointer)", got)
	}
}

// lockChainApp has k writers (nodes 1 ... k) each write their own word of
// one page in turn under one lock, then node 0 takes the lock and reads
// the page: it holds k write notices, and the last writer, which fetched
// and cached every earlier diff, answers them all in one request. Each of
// epochs epochs starts with nodes 0 ... k reading the page, so every
// writer's fault fetches diffs rather than a page, and ends with a
// collection (GCThreshold 1). misses[e] is the allocations of node 0's read
// in epoch e.
func lockChainApp(k, epochs int, misses []uint64) *testApp {
	const step = 20 * sim.Millisecond // far longer than a lock hand-off and a miss
	var addr mem.Addr
	return &testApp{
		name:  "lockchain",
		setup: func(s *Setup) { addr = s.Alloc(s.Space.PageWords) },
		init:  func(w *Init) { w.SetHome(addr, 1, 0) },
		worker: func(c *Ctx, id int) {
			for e := 0; e < epochs; e++ {
				if id <= k {
					c.Load(addr)
				}
				c.Barrier(2 * e)
				switch {
				case id == 0:
					c.Wait(sim.Time(k+1) * step)
					c.Lock(0)
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					c.Load(addr)
					runtime.ReadMemStats(&after)
					misses[e] = after.Mallocs - before.Mallocs
					c.Unlock(0)
				case id <= k:
					c.Wait(sim.Time(id) * step)
					c.Lock(0)
					c.Store(addr+mem.Addr(id), float64(e+1))
					c.Unlock(0)
				}
				c.Barrier(2*e + 1)
			}
		},
		gather: func(c *Ctx) []float64 { return nil },
	}
}

// TestLRCMissAllocsFlatInNotices guards the homeless miss path's host
// cost: a read miss that brings k write notices' diffs in one request
// allocates the same number of objects at k = 32 as at k = 2 — the request,
// the reply and the messages, never a list that grows per notice. The
// machine is the same size for both, and the miss measured is the last
// epoch's, when the reader's scratch and diff store have their size.
func TestLRCMissAllocsFlatInNotices(t *testing.T) {
	const nodes, epochs, slack = 33, 3, 4
	for _, proto := range []Protocol{ProtoLRC, ProtoOLRC} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			perMiss := func(k int) uint64 {
				misses := make([]uint64, epochs)
				opts := testOpts(proto, nodes)
				opts.GCThreshold = 1
				res := runOrFail(t, opts, lockChainApp(k, epochs, misses))
				// Node 0 homes the page, so only its reads after a
				// collection miss beside the measured ones.
				if c := res.Stats.Nodes[0].Counts; c.ReadMisses != 2*epochs-1 || c.DiffsApplied != int64(k*epochs) {
					t.Fatalf("k=%d: node 0 took %d read misses and applied %d diffs, want %d and %d",
						k, c.ReadMisses, c.DiffsApplied, 2*epochs-1, k*epochs)
				}
				return misses[epochs-1]
			}
			few, many := perMiss(2), perMiss(32)
			if many > few+slack {
				t.Errorf("a miss on 32 notices allocates %d objects, on 2 notices %d; want at most %d more", many, few, slack)
			}
			if testing.Verbose() {
				t.Logf("allocations per miss: %d on 2 notices, %d on 32", few, many)
			}
		})
	}
}

// noticeChainApp has k writers (nodes 1 ... k) each write their own word of
// the same pages pages in turn under one lock, then node 0 takes the lock:
// its grant brings k interval records naming those pages, so each page's
// requirement vector on node 0 grows to k writers inside that one acquire.
// Node 0 homes the pages and never reads them. Every epoch writes fresh
// pages, so every epoch's acquire grows new vectors; acquires[e] is the
// allocations of node 0's acquire in epoch e.
func noticeChainApp(k, pages, epochs int, acquires []uint64) *testApp {
	const step = 20 * sim.Millisecond // far longer than a lock hand-off and a flush
	var addr, stride mem.Addr
	return &testApp{
		name: "noticechain",
		setup: func(s *Setup) {
			stride = mem.Addr(s.Space.PageWords)
			addr = s.Alloc(epochs * pages * s.Space.PageWords)
		},
		init: func(w *Init) { w.SetHome(addr, epochs*pages*int(stride), 0) },
		worker: func(c *Ctx, id int) {
			for e := 0; e < epochs; e++ {
				switch {
				case id == 0:
					c.Wait(sim.Time(k+1) * step)
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					c.Lock(0)
					runtime.ReadMemStats(&after)
					acquires[e] = after.Mallocs - before.Mallocs
					c.Unlock(0)
				case id <= k:
					c.Wait(sim.Time(id) * step)
					c.Lock(0)
					for pg := e * pages; pg < (e+1)*pages; pg++ {
						c.Store(addr+mem.Addr(pg)*stride+mem.Addr(id), float64(e+1))
					}
					c.Unlock(0)
				}
				c.Barrier(e)
			}
		},
		gather: func(c *Ctx) []float64 { return nil },
	}
}

// TestHLRCAcquireAllocsFlatInNotices is TestLRCMissAllocsFlatInNotices'
// counterpart for the home-based write-notice path: an acquire whose grant
// names the same pages for k writers allocates the same number of objects
// at k = 32 as at k = 2 — the grant, its one record list and the messages,
// never a step of growth per requirement vector, whose pairs come from the
// node's slab blocks. The machine is the same size for both, and the
// acquire measured is the last epoch's, when node 0's log lists have their
// size.
func TestHLRCAcquireAllocsFlatInNotices(t *testing.T) {
	const nodes, pages, epochs, slack = 33, 4, 3, 4
	for _, proto := range []Protocol{ProtoHLRC, ProtoOHLRC} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			perAcquire := func(k int) uint64 {
				acquires := make([]uint64, epochs)
				res := runOrFail(t, testOpts(proto, nodes), noticeChainApp(k, pages, epochs, acquires))
				if c := res.Stats.Nodes[0].Counts; c.LockAcquires != epochs || c.DiffsApplied != int64(k*pages*epochs) {
					t.Fatalf("k=%d: node 0 took %d remote acquires and applied %d diffs, want %d and %d",
						k, c.LockAcquires, c.DiffsApplied, epochs, k*pages*epochs)
				}
				return acquires[epochs-1]
			}
			few, many := perAcquire(2), perAcquire(32)
			if many > few+slack {
				t.Errorf("an acquire bringing 32 writers' notices on %d pages allocates %d objects, 2 writers' %d; want at most %d more",
					pages, many, few, slack)
			}
			if testing.Verbose() {
				t.Logf("allocations per acquire: %d on 2 writers' notices, %d on 32", few, many)
			}
		})
	}
}

// TestDiffKeysNeverCollide: the diff store's one-word key keeps triples at
// the fields' maxima apart, a field out of range panics naming the field
// instead of sharing a key, and a machine whose (node, page) pairs do not
// fit in 32 bits is refused when the keys are made.
func TestDiffKeysNeverCollide(t *testing.T) {
	const nodes, pages = 64, 1000
	k := newDiffKeys(nodes, pages)
	seen := map[uint64][3]int{}
	for _, w := range []int{0, 1, nodes - 2, nodes - 1} {
		for _, p := range []int{0, 1, pages - 2, pages - 1} {
			for _, iv := range []int32{0, 1, math.MaxInt32 - 1, math.MaxInt32} {
				key := k.of(w, p, iv)
				if prev, ok := seen[key]; ok {
					t.Fatalf("%v and %v share key %#x", prev, [3]int{w, p, int(iv)}, key)
				}
				seen[key] = [3]int{w, p, int(iv)}
			}
		}
	}
	wantPanic := func(what, field string, f func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, field) {
				t.Errorf("%s panicked with %q, want a panic naming the %s", what, msg, field)
			}
		}()
		f()
	}
	for _, bad := range []struct {
		field string
		w, p  int
		iv    int32
	}{
		{"writer", nodes, 0, 1},
		{"writer", -1, 0, 1},
		{"page", 0, pages, 1},
		{"page", 0, -1, 1},
		{"interval", 0, 0, -1},
	} {
		wantPanic(fmt.Sprintf("key of (%d, %d, %d)", bad.w, bad.p, bad.iv), bad.field, func() { k.of(bad.w, bad.p, bad.iv) })
	}
	wantPanic("keys for 2^20 nodes x 2^20 pages", "pages", func() { newDiffKeys(1<<20, 1<<20) })
}

// writersPollApp has nodes 2 ... 1+k each store a word of one page homed at
// node 0, and after a barrier node 1 polls the page with FreshRead rounds
// times: its requirement vector, and the Need of every fetch, names k
// writers.
func writersPollApp(k, rounds int) *testApp {
	var addr mem.Addr
	return &testApp{
		name:  "writers-poll",
		setup: func(s *Setup) { addr = s.Alloc(s.Space.PageWords) },
		init:  func(w *Init) { w.SetHome(addr, 1, 0) },
		worker: func(c *Ctx, id int) {
			if id >= 2 && id <= 1+k {
				c.Store(addr+mem.Addr(id), float64(id))
			}
			c.Barrier(0)
			for i := 0; id == 1 && i < rounds; i++ {
				if !c.FreshRead(addr) || c.Load(addr+2) != 2 {
					panic("writers-poll: fresh read failed")
				}
			}
			c.Barrier(1)
		},
		gather: func(c *Ctx) []float64 { return nil },
	}
}

// lockPassApp has nodes 1 and 2 take lock 0, which node 0 manages, in turn,
// rounds times each: every acquire is remote, asks the manager and is
// granted by the other node.
func lockPassApp(rounds int) *testApp {
	const step = sim.Millisecond // far longer than a lock hand-off
	return &testApp{
		name:  "lock-pass",
		setup: func(s *Setup) { s.Alloc(1) },
		init:  func(w *Init) {},
		worker: func(c *Ctx, id int) {
			for i := 0; id > 0 && i < rounds; i++ {
				c.Wait(sim.Time(2*i+id) * step)
				c.Lock(0)
				c.Unlock(0)
			}
			c.Barrier(0)
		},
		gather: func(c *Ctx) []float64 { return nil },
	}
}

// perOp is the objects one more op allocates: the whole run's allocations
// with 2n ops less those with n, over n, so setting up and winding down
// cancel out.
func perOp(t *testing.T, opts Options, n int, app func(n int) *testApp) float64 {
	run := func(n int) float64 { return testing.AllocsPerRun(1, func() { runOrFail(t, opts, app(n)) }) }
	return (run(2*n) - run(n)) / float64(n)
}

// pageFetchApp has node 1 read n pages homed at node 0, each once: under
// the homeless protocols every read fetches a page copy from the home.
func pageFetchApp(n int) *testApp {
	var addr, stride mem.Addr
	return &testApp{
		name: "page-fetch",
		setup: func(s *Setup) {
			stride = mem.Addr(s.Space.PageWords)
			addr = s.Alloc(n * s.Space.PageWords)
		},
		init: func(w *Init) { w.SetHome(addr, n*int(stride), 0) },
		worker: func(c *Ctx, id int) {
			for pg := 0; id == 1 && pg < n; pg++ {
				c.Load(addr + mem.Addr(pg)*stride)
			}
			c.Barrier(0)
		},
		gather: func(c *Ctx) []float64 { return nil },
	}
}

// diffFetchApp has node 1 write a word of one page each epoch; then node 0
// reads the page, which makes node 1 hold the epoch's diff, and then node 2
// reads it: node 2's miss fetches one diff its writer already holds.
// misses[e] is the objects node 2's read allocates in epoch e; everyone
// else is parked at a barrier meanwhile.
func diffFetchApp(epochs int, misses []uint64) *testApp {
	const step = 20 * sim.Millisecond // far longer than a miss
	var addr mem.Addr
	return &testApp{
		name:  "diff-fetch",
		setup: func(s *Setup) { addr = s.Alloc(s.Space.PageWords) },
		init:  func(w *Init) { w.SetHome(addr, 1, 0) },
		worker: func(c *Ctx, id int) {
			for e := 0; e < epochs; e++ {
				if id == 1 {
					c.Store(addr+1, float64(e+1))
				}
				c.Barrier(2 * e)
				switch id {
				case 0:
					c.Load(addr)
				case 2:
					c.Wait(step)
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					c.Load(addr)
					runtime.ReadMemStats(&after)
					misses[e] = after.Mallocs - before.Mallocs
				}
				c.Barrier(2*e + 1)
			}
		},
		gather: func(c *Ctx) []float64 { return nil },
	}
}

// crossFlushApp has nodes 0 and 1 home pages pages each and, every one of
// epochs epochs, store a word into each page the other node homes (cross)
// or each of their own, then barrier; oneWay, node 0 stores nothing.
// Crossed, every store ends in a diff flushed to the other node, and the
// home puts each record it applies back on the simulation's free list for
// the next flush; uncrossed, in none. The interval records are the same
// either way, so the difference is the flushes'.
func crossFlushApp(pages int, cross, oneWay bool) func(epochs int) *testApp {
	return func(epochs int) *testApp {
		var addr, stride mem.Addr
		return &testApp{
			name: "cross-flush",
			setup: func(s *Setup) {
				stride = mem.Addr(s.Space.PageWords)
				addr = s.Alloc(2 * pages * s.Space.PageWords)
			},
			init: func(w *Init) {
				w.SetHome(addr, pages*int(stride), 0)
				w.SetHome(addr+mem.Addr(pages)*stride, pages*int(stride), 1)
			},
			worker: func(c *Ctx, id int) {
				first := id
				if cross {
					first = 1 - id
				}
				for e := 0; e < epochs; e++ {
					for pg := first * pages; pg < (first+1)*pages && !(oneWay && id == 0); pg++ {
						c.Store(addr+mem.Addr(pg)*stride+mem.Addr(id), float64(e+1))
					}
					c.Barrier(e)
				}
			},
			gather: func(c *Ctx) []float64 { return nil },
		}
	}
}

// versionFetchApp has node 0 store into the page it homes every epoch; after
// the barrier node 1 reads the page, a fetch of the new version, and then
// node 2, a fetch of the version node 1's fetch published. misses[e] is the
// objects the two reads allocate in epoch e; everyone else is parked at a
// barrier meanwhile.
func versionFetchApp(epochs int, misses [][2]uint64) *testApp {
	const step = 20 * sim.Millisecond // far longer than a miss
	var addr mem.Addr
	return &testApp{
		name:  "version-fetch",
		setup: func(s *Setup) { addr = s.Alloc(s.Space.PageWords) },
		init:  func(w *Init) { w.SetHome(addr, 1, 0) },
		worker: func(c *Ctx, id int) {
			for e := 0; e < epochs; e++ {
				if id == 0 {
					c.Store(addr, float64(e+1))
				}
				c.Barrier(2 * e)
				if id == 1 || id == 2 {
					c.Wait(sim.Time(id) * step)
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					if c.Load(addr) != float64(e+1) {
						panic("version-fetch: read an old version")
					}
					runtime.ReadMemStats(&after)
					misses[e][id-1] = after.Mallocs - before.Mallocs
				}
				c.Barrier(2*e + 1)
			}
		},
		gather: func(c *Ctx) []float64 { return nil },
	}
}

// barrierApp has every node take n barriers with nothing to publish.
func barrierApp(n int) *testApp {
	return &testApp{
		name:  "barriers",
		setup: func(s *Setup) { s.Alloc(1) },
		init:  func(w *Init) {},
		worker: func(c *Ctx, id int) {
			for i := 0; i < n; i++ {
				c.Barrier(i)
			}
		},
		gather: func(c *Ctx) []float64 { return nil },
	}
}

// TestExchangeAllocs puts ceilings on the host objects of every exchange
// in which a requester blocks, under all four protocols: a remote page
// fetch (home-based, of a quiet page, of one whose Need names four writers,
// of a new version and of a version another fetch published; homeless, of
// a page copy and of a diff), a remote lock acquire, and a barrier episode
// per node on the star barrier (8 nodes) and a radix-8 tree (96); and on
// the home-based protocols' one-way exchange, a diff flushed to its home.
// Servicing a message allocates nothing (no effect closure), every request
// is its requester's one body, and the server writes its answer into that
// body (DESIGN §9), so no exchange allocates a request or a reply object.
// What an exchange may still allocate is the data it moves: a homeless page
// fetch copies the page at the holder, and the free list is empty since the
// reader keeps every page it fetches (one frame per fetch, counted out
// below); a home-based fetch of a new version publishes its frame, whose
// words are the previous version's, released by its last reader onto the
// simulation's one free list, so only the Frame is new; and the diff
// fetched was made before the measured read.
//
// A diff record comes off the simulation's free list and goes back on it
// once its home applied it (diffFlush), so a warm flush allocates nothing,
// whichever way the flushes go. It is measured twice: where two nodes each
// home pages the other writes, and one-way, where one writer flushes to a
// home that never flushes back. Each is the objects of an epoch in which
// the writers write the other node's pages less those of one in which each
// writes its own, per flush.
//
// The diff fetch is the mean over 255 epochs, in which the reader's diff
// store grows, as it does until a collection: its growth amortizes to
// under 0.1 objects per fetch.
//
// Objects per exchange with a request and a reply object each → with the
// answer written into the request's body: homeless page fetch 2.03 → 0.03
// beyond its frame, diff fetch 4.09 → 0.09; remote acquire 4.00 → 0.00,
// barrier episode per node 4.75 → 0.00 at 8 nodes and 6.99 → 0.00 at 96,
// under all four protocols. The home-based fetches of a quiet page read
// 0.00 in both. With a reply record per version and a record per flush →
// with the answer in the requester's body and recycled diff records: a
// fetch of a new version 4.00 → 2.00, its frame and words; a flush between
// two homes 4.00 → 0.00. With a free list per node → one per simulation: a
// fetch of a new version 2.00 → 1.01, a one-way flush 4.00 → 0.00.
func TestExchangeAllocs(t *testing.T) {
	const rounds, episodes = 400, 100
	type ceiling struct {
		what     string
		got, max float64
	}
	for _, proto := range Protocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			var checks []ceiling
			if proto.HomeBased() {
				quiet := perOp(t, testOpts(proto, 2), rounds, func(n int) *testApp {
					return refetchApp(n, false, func(*Ctx, int) {})
				})
				writers := perOp(t, testOpts(proto, 6), rounds, func(n int) *testApp { return writersPollApp(4, n) })
				const epochs = 100
				misses := make([][2]uint64, epochs)
				res := runOrFail(t, testOpts(proto, 3), versionFetchApp(epochs, misses))
				if c := res.Stats.Nodes[2].Counts; c.PagesFetched != epochs {
					t.Fatalf("node 2 fetched %d pages, want %d", c.PagesFetched, epochs)
				}
				var sum [2]uint64
				for _, m := range misses[1:] { // epoch 0 makes the readers' page state
					sum[0] += m[0]
					sum[1] += m[1]
				}
				const pages = 32
				flush := func(oneWay bool) float64 {
					flushes := 2 * pages
					if oneWay {
						flushes = pages
					}
					return (perOp(t, testOpts(proto, 2), episodes, crossFlushApp(pages, true, oneWay)) -
						perOp(t, testOpts(proto, 2), episodes, crossFlushApp(pages, false, oneWay))) / float64(flushes)
				}
				checks = append(checks,
					ceiling{"a remote fetch of a quiet page", quiet, 0.25},
					ceiling{"a remote fetch naming 4 writers", writers, 0.25},
					ceiling{"a fetch of a new version", float64(sum[0]) / (epochs - 1), 1.25},
					ceiling{"a fetch of a version another fetch published", float64(sum[1]) / (epochs - 1), 0.25},
					ceiling{"a diff flush between two homes", flush(false), 0.25},
					ceiling{"a diff flush from a writer to a home that never flushes back", flush(true), 0.25})
			} else {
				const epochs = 256
				misses := make([]uint64, epochs)
				res := runOrFail(t, testOpts(proto, 3), diffFetchApp(epochs, misses))
				if c := res.Stats.Nodes[2].Counts; c.ReadMisses != epochs || c.DiffsApplied != epochs-1 {
					t.Fatalf("node 2 took %d read misses and applied %d diffs, want %d and %d",
						c.ReadMisses, c.DiffsApplied, epochs, epochs-1)
				}
				var sum uint64
				for _, m := range misses[1:] { // epoch 0 fetches the page
					sum += m
				}
				checks = append(checks,
					ceiling{"a page fetch beyond its frame", perOp(t, testOpts(proto, 2), rounds, pageFetchApp) - 1, 0.25},
					ceiling{"a diff fetch", float64(sum) / float64(epochs-1), 0.25})
			}
			checks = append(checks, ceiling{"a remote acquire", perOp(t, testOpts(proto, 3), rounds, lockPassApp) / 2, 0.25})
			for _, p := range []int{8, 96} {
				checks = append(checks, ceiling{fmt.Sprintf("a barrier episode per node at %d nodes", p),
					perOp(t, testOpts(proto, p), episodes, barrierApp) / float64(p), 0.25})
			}
			for _, c := range checks {
				if c.got > c.max {
					t.Errorf("%s allocates %.2f objects, want at most %.2f", c.what, c.got, c.max)
				}
				if testing.Verbose() {
					t.Logf("%s: %.2f objects", c.what, c.got)
				}
			}
		})
	}
}
