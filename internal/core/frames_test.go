package core

import (
	"slices"
	"testing"

	"gosvm/internal/mem"
	"gosvm/internal/paragon"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
)

// Page-frame ownership (DESIGN §9): a home copies its page once per version
// into a frame every fetch of that version shares read-only, a fetch that
// finds the home writing gets a one-off of its own, and no holder of a frame
// ever sees it change. The
// litmus tests below run with mem.CheckFrames on, so a write through a
// shared frame that no assertion happens to look at still fails the run.

// homeProtocols are the engines that publish frames.
var homeProtocols = []Protocol{ProtoHLRC, ProtoOHLRC}

// litmusWords is the litmus page: one 512-byte page (testOpts) homed at node
// 0, word 3 seeded with 7.
const litmusWords = 64

// litmusApp runs worker on every node over the litmus page, then one barrier.
func litmusApp(addr *mem.Addr, worker func(c *Ctx, id int)) *testApp {
	return &testApp{
		name:  "frames",
		setup: func(s *Setup) { *addr = s.Alloc(litmusWords) },
		init: func(w *Init) {
			w.Store(*addr+3, 7)
			w.SetHome(*addr, litmusWords, 0)
		},
		worker: func(c *Ctx, id int) {
			worker(c, id)
			c.Barrier(0)
		},
		gather: func(c *Ctx) []float64 {
			out := make([]float64, litmusWords)
			c.ReadRange(*addr, out)
			return out
		},
	}
}

// held is what a node holds of a page at one instant.
type held struct {
	words *float64   // &Data[0]
	frame *mem.Frame // the shared frame aliased, if any
	twin  bool       // ... by the twin, not the data
	w3    float64    // Data[3]
}

func holding(c *Ctx, addr mem.Addr) held {
	p := c.pt.Page(c.sys.Space.PageOf(addr))
	f, twin := p.Shared()
	return held{&p.Data[0], f, twin, p.Data[3]}
}

// published is the frame node 0 currently publishes for the page, nil while
// it publishes none.
func published(c *Ctx, addr mem.Addr) *mem.Frame {
	return c.sys.Engines[0].(*hlrcEngine).useOf(c.sys.Space.PageOf(addr)).pub
}

// TestFetchAdoptsTheHomesSnapshot: node 0 homes one page and keeps storing
// into it; the other nodes (one at p2, two at p3) fault it in a millisecond
// apart. The home has the page open, so there is no version to share: each
// reader must end up holding a one-off of its own — the very buffer node 0
// drew for its reply (marker frames planted in its pool) — with the value of
// reply time in it: a store the home made while a reply was in flight is in
// no reader's copy, and no copy moves while the home keeps writing.
func TestFetchAdoptsTheHomesSnapshot(t *testing.T) {
	CheckFrames(t)
	forEachProto(t, []int{2, 3}, fetchAdoptsTheHomesSnapshot)
}

func fetchAdoptsTheHomesSnapshot(t *testing.T, proto Protocol, nodes int) {
	const words = 64 // one 512-byte page
	var addr mem.Addr
	markers := make([][]float64, nodes-1)
	for i := range markers {
		markers[i] = make([]float64, words)
	}
	type store struct {
		at sim.Time
		v  float64
	}
	var stores []store
	got := make([]struct {
		adopted        int  // index of the marker adopted, -1 if none
		wrapped        bool // in a mem.Frame, as the home-based protocols ship one
		first, later   float64
		receipt, final sim.Time
	}, nodes-1)
	var pubWhileOpen *mem.Frame
	app := &testApp{
		name:  "adopt",
		setup: func(s *Setup) { addr = s.Alloc(words) },
		init:  func(w *Init) { w.SetHome(addr, words, 0) },
		worker: func(c *Ctx, id int) {
			if id == 0 {
				for i := 1; i <= 800; i++ {
					c.Store(addr, float64(i))
					stores = append(stores, store{c.Now(), float64(i)})
					if i == 1 {
						// After the first store: the homeless protocols
						// have drawn their twin by now.
						for _, m := range markers {
							baseOf(c.eng).pool().PutPage(m)
						}
					}
					c.Compute(5 * sim.Microsecond)
				}
				if e, ok := c.eng.(*hlrcEngine); ok {
					pubWhileOpen = e.useOf(c.sys.Space.PageOf(addr)).pub
				}
			} else {
				g := &got[id-1]
				c.Compute(sim.Time(id)*sim.Millisecond - 700*sim.Microsecond)
				g.first = c.Load(addr)
				g.receipt = c.Now()
				p := c.pt.Page(c.sys.Space.PageOf(addr))
				g.adopted = -1
				for i, m := range markers {
					if &p.Data[0] == &m[0] {
						g.adopted = i
					}
				}
				f, _ := p.Shared()
				g.wrapped = f != nil
				c.Compute(sim.Millisecond)
				g.later = c.Load(addr)
				g.final = c.Now()
			}
			c.Barrier(0)
		},
		gather: func(c *Ctx) []float64 { return []float64{c.Load(addr)} },
	}
	res := runOrFail(t, testOpts(proto, nodes), app)
	homeAt := func(at sim.Time) (v float64) {
		for _, s := range stores {
			if s.at <= at {
				v = s.v
			}
		}
		return v
	}
	for i, g := range got {
		if g.adopted < 0 || g.wrapped != proto.HomeBased() {
			t.Errorf("reader %d holds marker %d, in a mem.Frame: %v; want a buffer the home put in a reply, framed only by a home-based protocol",
				i+1, g.adopted, g.wrapped)
		}
		if g.first < 1 || g.first >= homeAt(g.receipt) {
			t.Errorf("reader %d saw %v; the home held %v when the reply landed: want an earlier, non-zero value",
				i+1, g.first, homeAt(g.receipt))
		}
		if g.later != g.first || homeAt(g.final) <= homeAt(g.receipt) {
			t.Errorf("reader %d's copy went %v -> %v while the home went %v -> %v: want it still, the home moving",
				i+1, g.first, g.later, homeAt(g.receipt), homeAt(g.final))
		}
	}
	if nodes == 3 && got[0].adopted == got[1].adopted {
		t.Errorf("both readers hold marker %d: a home with the page open must give each fetch its own copy", got[0].adopted)
	}
	if pubWhileOpen != nil {
		t.Error("the home published a frame while it had the page open")
	}
	if res.Data[0] != 800 {
		t.Errorf("final value %v, want 800", res.Data[0])
	}
}

// TestFetchesOfOneVersionShareOneFrame: nodes 1 and 2 read the page while
// nothing changes it at the home; node 3 then writes a word and flushes;
// node 4 reads after the home applied that diff. The first three fetches
// (the writer's too) must hold the same backing array — the frame the home
// publishes — and node 4 a different one with the diff in it, while the
// readers of the old version keep theirs unchanged.
func TestFetchesOfOneVersionShareOneFrame(t *testing.T) {
	CheckFrames(t)
	for _, proto := range homeProtocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			var addr mem.Addr
			var early, late [5]held
			var pubEarly, pubLate *mem.Frame
			app := litmusApp(&addr, func(c *Ctx, id int) {
				switch id {
				case 0:
					c.Compute(500 * sim.Microsecond)
					pubEarly = published(c, addr)
					c.Compute(3 * sim.Millisecond)
					pubLate = published(c, addr)
				case 1, 2:
					c.Compute(100 * sim.Microsecond)
					c.Load(addr)
					early[id] = holding(c, addr)
					c.Compute(4 * sim.Millisecond)
					late[id] = holding(c, addr)
				case 3:
					c.Compute(sim.Millisecond)
					c.Load(addr)
					early[id] = holding(c, addr)
					c.Store(addr+3, 99)
					baseOf(c.eng).closeIntervalOnApp()
				case 4:
					c.Compute(3 * sim.Millisecond)
					c.Load(addr)
					late[id] = holding(c, addr)
				}
			})
			res := runOrFail(t, testOpts(proto, 5), app)
			if pubEarly == nil || pubLate == nil || pubEarly == pubLate {
				t.Fatalf("the home published %p, then %p after the diff: want two frames", pubEarly, pubLate)
			}
			for _, id := range []int{1, 2, 3} {
				if h := early[id]; h.frame != pubEarly || h.twin || h.words != &pubEarly.Words[0] || h.w3 != 7 {
					t.Errorf("node %d holds %+v; want the frame the home published for the first version (%p), word 3 = 7", id, h, pubEarly)
				}
			}
			for _, id := range []int{1, 2} {
				if late[id] != early[id] {
					t.Errorf("node %d's copy went %+v -> %+v with no fetch in between", id, early[id], late[id])
				}
			}
			if h := late[4]; h.frame != pubLate || h.words == early[1].words || h.w3 != 99 {
				t.Errorf("node 4, fetching after the diff, holds %+v; want the second version's frame (%p), word 3 = 99", h, pubLate)
			}
			if res.Data[3] != 99 {
				t.Errorf("final word 3 = %v, want 99", res.Data[3])
			}
		})
	}
}

// TestHomeStoreRetiresThePublishedFrame: nodes 1 and 2 share the published
// frame; the home then write-faults on the page and stores. From the fault
// on it publishes nothing — node 3's fetch finds the page open and gets a
// one-off with the store in it — and when its interval closes, node 4's
// fetch publishes the next version. Nodes 1 and 2 keep the first.
func TestHomeStoreRetiresThePublishedFrame(t *testing.T) {
	CheckFrames(t)
	for _, proto := range homeProtocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			var addr mem.Addr
			var got [5]held
			var pubBefore, pubOpen, pubFetched, pubClosed *mem.Frame
			app := litmusApp(&addr, func(c *Ctx, id int) {
				switch id {
				case 0:
					c.Compute(4 * sim.Millisecond)
					pubBefore = published(c, addr)
					c.Store(addr+3, 99)
					pubOpen = published(c, addr)
					c.Compute(6 * sim.Millisecond)
					pubFetched = published(c, addr) // node 3 has fetched meanwhile
					baseOf(c.eng).closeIntervalOnApp()
					c.Compute(6 * sim.Millisecond)
					pubClosed = published(c, addr)
				case 1, 2:
					c.Load(addr)
					c.Compute(20 * sim.Millisecond)
					got[id] = holding(c, addr)
				case 3:
					c.Compute(8 * sim.Millisecond)
					c.Load(addr)
					got[id] = holding(c, addr)
				case 4:
					c.Compute(15 * sim.Millisecond)
					c.Load(addr)
					got[id] = holding(c, addr)
				}
			})
			runOrFail(t, testOpts(proto, 5), app)
			if pubBefore == nil || pubOpen != nil || pubFetched != nil || pubClosed == nil || pubClosed == pubBefore {
				t.Errorf("the home published %p before its store, %p and %p with the page open, %p after the close; want a frame, none, none, another frame", pubBefore, pubOpen, pubFetched, pubClosed)
			}
			for _, id := range []int{1, 2} {
				if h := got[id]; h.frame != pubBefore || h.w3 != 7 {
					t.Errorf("node %d holds %+v after the home's store; want the first version's frame %p, word 3 = 7", id, h, pubBefore)
				}
			}
			if h := got[3]; h.frame == nil || h.frame == pubBefore || h.frame == pubClosed || h.w3 != 99 {
				t.Errorf("node 3, fetching with the home's page open, holds %+v; want a one-off with word 3 = 99", h)
			}
			if h := got[4]; h.frame != pubClosed || h.w3 != 99 {
				t.Errorf("node 4, fetching after the close, holds %+v; want the second version's frame %p, word 3 = 99", h, pubClosed)
			}
		})
	}
}

// TestDiffInFlightReachesNoReader: node 1 holds the published frame, node
// 2's fetch of it is answered, and node 3's diff is applied at the home
// while that reply is in flight — on a network with a 10 ms latency, so the
// flight is longer than servicing a diff takes. The reply carries the old
// version: both readers must see 7, the frame they share must not have
// moved, and the home must have retired it.
func TestDiffInFlightReachesNoReader(t *testing.T) {
	CheckFrames(t)
	for _, proto := range homeProtocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			const latency = 10 * sim.Millisecond
			var addr mem.Addr
			var served, applied, landed sim.Time
			var early, inFlight held
			var pubAfter *mem.Frame
			app := litmusApp(&addr, func(c *Ctx, id int) {
				switch id {
				case 0:
					e := c.eng.(*hlrcEngine)
					wrap(e, func(m paragon.Msg) {
						switch now := e.sys.K.Now(); {
						case m.Kind == kFetchPage && m.From == 2:
							served = now
						case m.Kind == kDiffFlush:
							applied = now
						}
					})
					c.Compute(6 * latency)
					pubAfter = published(c, addr)
				case 1:
					c.Load(addr)
					c.Compute(6 * latency)
					early = holding(c, addr)
				case 2:
					c.Compute(3 * latency)
					c.Load(addr) // asks at 3, is answered at 4, holds the page at 5
					landed = c.Now()
					inFlight = holding(c, addr)
				case 3:
					c.Load(addr)
					c.Compute(7*latency/2 - c.Now())
					c.Store(addr+3, 99)
					baseOf(c.eng).closeIntervalOnApp() // applied at 4.5
				}
			})
			opts := testOpts(proto, 4)
			opts.Machine.Costs = paragon.DefaultCosts()
			opts.Machine.Costs.MsgLatency = latency
			runOrFail(t, opts, app)
			if !(served < applied && applied < landed) {
				t.Fatalf("the reply left at %v and landed at %v, the diff was applied at %v: not in flight", served, landed, applied)
			}
			f := early.frame
			if f == nil || inFlight.frame != f || early.w3 != 7 || inFlight.w3 != 7 || f.Words[3] != 7 {
				t.Errorf("after a diff applied in flight node 1 holds %+v and node 2 %+v; want one frame, word 3 = 7 in it", early, inFlight)
			}
			if pubAfter != nil {
				t.Errorf("the home still publishes %p after applying a diff and serving no fetch since", pubAfter)
			}
		})
	}
}

// TestWriteFaultLeavesTheSharedFrame: nodes 1 and 2 share the published
// frame; node 1 write-faults and stores two words. The shared frame becomes
// node 1's twin and its data a private copy, so node 2, the frame the home
// publishes and node 3, fetching afterwards, still read the old words — and
// the diff node 1 flushes is exactly its two stores, after which it holds no
// reference.
func TestWriteFaultLeavesTheSharedFrame(t *testing.T) {
	CheckFrames(t)
	for _, proto := range homeProtocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			var addr mem.Addr
			var before, writing, flushed, other, later held
			var pubWriting *mem.Frame
			var diffs []mem.Diff
			app := litmusApp(&addr, func(c *Ctx, id int) {
				switch id {
				case 0:
					tap(c.eng.(*hlrcEngine), func(m paragon.Msg) {
						if df, ok := m.Body.(*diffFlush); ok {
							// The record is recycled once applied: keep
							// its runs, not the backing they alias.
							d := mem.Diff{Page: df.Diff.Page}
							for _, r := range df.Diff.Runs {
								d.Runs = append(d.Runs, mem.Run{Off: r.Off, Vals: slices.Clone(r.Vals)})
							}
							diffs = append(diffs, d)
						}
					})
				case 1:
					c.Load(addr)
					before = holding(c, addr)
					c.Compute(sim.Millisecond)
					c.Store(addr+3, 99)
					c.Store(addr+9, 5)
					writing = holding(c, addr)
					pubWriting = published(c, addr)
					c.Compute(2 * sim.Millisecond)
					baseOf(c.eng).closeIntervalOnApp()
					c.Compute(sim.Millisecond) // OHLRC: the co-processor diffs
					flushed = holding(c, addr)
				case 2:
					c.Load(addr)
					c.Compute(2 * sim.Millisecond)
					other = holding(c, addr)
				case 3:
					c.Compute(2 * sim.Millisecond)
					c.Load(addr)
					later = holding(c, addr)
				}
			})
			res := runOrFail(t, testOpts(proto, 4), app)
			f := before.frame
			if f == nil || writing.frame != f || !writing.twin || writing.words == before.words || writing.w3 != 99 {
				t.Errorf("the writer went %+v -> %+v; want the shared frame to become its twin and its data a private copy", before, writing)
			}
			if pubWriting != f || f.Words[3] != 7 || f.Words[9] != 0 {
				t.Errorf("the home publishes %p (%v, %v) while node 1 writes; want %p still, words 7 and 0", pubWriting, f.Words[3], f.Words[9], f)
			}
			for name, h := range map[string]held{"node 2": other, "node 3, fetching later,": later} {
				if h.frame != f || h.twin || h.w3 != 7 {
					t.Errorf("%s holds %+v; want the shared frame %p, word 3 = 7", name, h, f)
				}
			}
			if flushed.frame != nil || flushed.words != writing.words {
				t.Errorf("after its flush the writer holds %+v; want its private data and no reference", flushed)
			}
			if len(diffs) != 1 || diffs[0].Words() != 2 {
				t.Fatalf("the home received %d diffs, the first of %v; want one diff of the writer's two words", len(diffs), diffs)
			}
			image := make([]float64, litmusWords)
			diffs[0].Apply(image)
			if image[3] != 99 || image[9] != 5 || res.Data[3] != 99 || res.Data[9] != 5 {
				t.Errorf("the diff carries %v and %v, the run ends with %v and %v; want 99 and 5", image[3], image[9], res.Data[3], res.Data[9])
			}
		})
	}
}

// TestSecondFetchAnswerIsDropped: the home answers in the requester's one
// fetch body, which the requester's next fetch refills, so a stale answer
// must neither write that body nor be adopted; the node's reply port drops
// it. Node 1 fetches page A, then page B, both homed at node 0, on a
// network with a 10 ms latency. Node 0 answers the fetch of A a second
// time, 15 ms after the first, so the second answer lands while node 1
// waits for B. Forged as a server that did not serve twice would, it takes
// a reference to A's frame but writes nothing into the body, which by then
// holds node 1's request for B: the reply port must drop it before
// adoption, or node 1 would take the answer for B's. The references
// balance: each answer to A carried one of its own, so A's frame ends with
// three — the home's, node 1's and the dropped answer's, lost with it.
func TestSecondFetchAnswerIsDropped(t *testing.T) {
	CheckFrames(t)
	const latency = 10 * sim.Millisecond
	var addr mem.Addr
	var words int
	var pubA, heldA *mem.Frame
	var sentAgain, askedB, gotB sim.Time
	app := &testApp{
		name: "answer-twice",
		setup: func(s *Setup) {
			words = s.Space.PageWords
			addr = s.Alloc(2 * words)
		},
		init: func(w *Init) {
			w.Store(addr, 7)
			w.Store(addr+mem.Addr(words), 5)
			w.SetHome(addr, 2*words, 0)
		},
		worker: func(c *Ctx, id int) {
			e := c.eng.(*hlrcEngine)
			pgA := c.sys.Space.PageOf(addr)
			switch id {
			case 0:
				wrap(e, func(m paragon.Msg) {
					if m.Kind != kFetchPage || m.Body.(*fetchPageReq).Page != pgA || sentAgain != 0 {
						return
					}
					e.publish(pgA) // its own reference, as respondFetch adds
					sentAgain = e.sys.K.Now() + 3*latency/2
					e.sys.K.Post(0, 0, sentAgain, func() {
						e.node.Respond(m, paragon.Msg{Kind: kFetchPage, Size: 8, Class: stats.ClassData, Body: m.Body})
					})
				})
				c.Compute(6 * latency)
				pubA = published(c, addr)
			case 1:
				c.Load(addr)
				heldA, _ = c.pt.Page(pgA).Shared()
				askedB = c.Now()
				if v := c.Load(addr + mem.Addr(words)); v != 5 {
					t.Errorf("node 1 reads %v from page B, want 5", v)
				}
				gotB = c.Now()
				if fr := &e.fetch; fr.Page != c.sys.Space.PageOf(addr+mem.Addr(words)) || fr.Frame != nil {
					t.Errorf("node 1's fetch body ends naming page %d and holding frame %p; want page B's request, its frame adopted", fr.Page, fr.Frame)
				}
			}
			c.Barrier(0)
		},
		gather: func(c *Ctx) []float64 { return nil },
	}
	opts := testOpts(ProtoHLRC, 2)
	opts.Machine.Costs = paragon.DefaultCosts()
	opts.Machine.Costs.MsgLatency = latency
	res := runOrFail(t, opts, app)
	if landed := sentAgain + latency; !(askedB < landed && landed < gotB) {
		t.Fatalf("the second answer to A landed at %v, node 1 waited for B from %v to %v: not during the wait", landed, askedB, gotB)
	}
	if n := res.Stats.Nodes[1].Counts.PagesFetched; n != 2 {
		t.Errorf("node 1 fetched %d pages, want 2", n)
	}
	if pubA == nil || heldA != pubA {
		t.Fatalf("node 1 holds frame %p of page A, the home publishes %p; want the published frame", heldA, pubA)
	}
	// Count the references by releasing them: the frame is dead after.
	refs := 0
	for pubA.Words != nil {
		pubA.Release(nil)
		refs++
	}
	if refs != 3 {
		t.Errorf("page A's frame held %d references, want 3: the home's, node 1's and the dropped answer's", refs)
	}
}

// TestSeedFramesAreClipped: the homes' first copies are slices of one
// staging image, each clipped to its page, so growing one cannot write
// into its neighbour, which another node may home.
func TestSeedFramesAreClipped(t *testing.T) {
	const words = 64
	var addr mem.Addr
	var caps [2]int
	var neighbour float64
	app := &testApp{
		name:  "seed",
		setup: func(s *Setup) { addr = s.Alloc(2 * words) },
		init: func(w *Init) {
			w.Store(addr+words, 5)
			w.SetHome(addr, words, 0)
			w.SetHome(addr+words, words, 1)
		},
		worker: func(c *Ctx, id int) {
			if id == 0 {
				p0 := c.sys.Tables[0].Page(c.sys.Space.PageOf(addr))
				p1 := c.sys.Tables[1].Page(c.sys.Space.PageOf(addr + words))
				caps = [2]int{cap(p0.Data), cap(p1.Data)}
				_ = append(p0.Data, 777)
				neighbour = p1.Data[0]
			}
			c.Barrier(0)
		},
		gather: func(c *Ctx) []float64 { return []float64{c.Load(addr + words)} },
	}
	res := runOrFail(t, testOpts(ProtoHLRC, 2), app)
	if caps != [2]int{words, words} || neighbour != 5 || res.Data[0] != 5 {
		t.Errorf("seed frames have capacity %v (want %d each); the neighbour reads %v, gathers %v (want 5)",
			caps, words, neighbour, res.Data[0])
	}
}
