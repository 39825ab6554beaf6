package core

import (
	"testing"

	"gosvm/internal/mem"
	"gosvm/internal/paragon"
	"gosvm/internal/sim"
	"gosvm/internal/trace"
	"gosvm/internal/vc"
)

// tap makes fn see every message e's two processors service, as each
// dispatcher takes it.
func tap(e *hlrcEngine, fn func(paragon.Msg)) {
	install(e, func(s *service) paragon.Handler {
		return func(m paragon.Msg) (sim.Time, func()) {
			fn(m)
			return s.serve(m)
		}
	})
}

// wrap makes fn see every message e's two processors service, once its
// effect has run.
func wrap(e *hlrcEngine, fn func(paragon.Msg)) {
	install(e, func(s *service) paragon.Handler {
		return func(m paragon.Msg) (sim.Time, func()) {
			work, effect := s.serve(m)
			return work, func() {
				effect()
				fn(m)
			}
		}
	})
}

// install replaces the entries of e's dispatchers with what h makes of
// each one's service slot.
func install(e *hlrcEngine, h func(*service) paragon.Handler) {
	e.node.InstallCompute(h(&e.compute))
	e.node.InstallCoproc(h(&e.coproc))
}

// TestAbsentSeenReadsAsNil drives every reader of a page's requirement
// vector on a page whose vector was never initialised (the slot's inline
// vc.Sparse still has Dim() == 0) and checks it behaves as the nil vector
// the parent's *vc.Sparse field was: a fetch asks for nothing, a home's
// first write makes the vector, a home is covered and wakes its waiters,
// and a notice to a home that applied no diff yet invalidates (traced once:
// a second notice finds the page already Invalid).
// Beside each, the protocol-memory charge for the vector: made by the first
// seenOf of a (node, page) and by nothing after it.
//
// Four pages homed at node 0 of a 3-node machine; simulated time orders the
// steps, the one barrier closes the run.
func TestAbsentSeenReadsAsNil(t *testing.T) {
	const words = 64 // one 512-byte page
	for _, proto := range []Protocol{ProtoHLRC, ProtoOHLRC} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			var base mem.Addr
			var got struct {
				need                  *vc.Sparse
				needSeen              bool
				readCharge, reCharge  int64
				noticeCost, pageInval sim.Time
				noticeState           mem.State
				noticeCharge, renote  int64
				noticedTo             int32
				notePage              int
				usedBeforeNotice      bool
				wokeAt                sim.Time
				readerSeenAfter       *vc.Sparse
				writerSeenBeforeClose *vc.Sparse
			}
			app := &testApp{
				name:  "absent-seen",
				setup: func(s *Setup) { base = s.Alloc(4 * words) },
				init:  func(w *Init) { w.SetHome(base, 4*words, 0) },
				worker: func(c *Ctx, id int) {
					e := c.sys.Engines[id].(*hlrcEngine)
					pg := func(i int) int { return c.sys.Space.PageOf(base + mem.Addr(i*words)) }
					pgRead, pgWrite, pgWait, pgNote := pg(0), pg(1), pg(2), pg(3)
					switch id {
					case 0:
						tap(e, func(m paragon.Msg) {
							if fr, ok := m.Body.(*fetchPageReq); ok && fr.Page == pgRead && !got.needSeen {
								// A snapshot: the body is the requester's
								// one, refilled by its next fetch.
								got.need, got.needSeen = fr.Need.Copy(), true
							}
						})
						// noticePage, home branch, no use tier and no flush vector.
						got.usedBeforeNotice = e.pages.At(pgNote).use != nil
						mem0 := e.st().ProtoMem
						got.notePage = pgNote
						got.noticeCost, got.pageInval = e.noticePage(&IntervalRec{Proc: 2, Interval: 1}, pgNote), e.costs().PageInval
						got.noticeState = e.pt.Page(pgNote).State
						got.noticeCharge = e.st().ProtoMem - mem0
						e.noticePage(&IntervalRec{Proc: 2, Interval: 2}, pgNote)
						got.renote = e.st().ProtoMem - mem0
						got.noticedTo = e.pages.At(pgNote).seenOrNil().Get(2)
						// closeCommit: the home's first write to a page it never
						// had a notice for; the barrier below closes it.
						got.writerSeenBeforeClose = e.pages.At(pgWrite).seenOrNil()
						c.Store(base+mem.Addr(words+1), 7)
						// homeDrain: wait on a page with no vector until node 1
						// drains it.
						u := e.useOf(pgWait)
						u.waiters = append(u.waiters, e.app())
						e.app().Park("test: waiting on a never-noticed home page")
						got.wokeAt = c.Now()
					case 1:
						// ReadFault's Need: a cold read of a page never noticed.
						c.Compute(100 * sim.Microsecond)
						mem0 := e.st().ProtoMem
						c.Load(base)
						got.readCharge = e.st().ProtoMem - mem0
						got.readerSeenAfter = e.pages.At(pgRead).seenOrNil()
						c.FreshRead(base)
						got.reCharge = e.st().ProtoMem - mem0
						c.Compute(sim.Millisecond)
						c.sys.Engines[0].(*hlrcEngine).homeDrain(pgWait)
					}
					c.Barrier(0)
				},
				gather: func(c *Ctx) []float64 { return []float64{c.Load(base + mem.Addr(words+1))} },
			}
			opts := testOpts(proto, 3)
			opts.TraceLimit = -1
			res := runOrFail(t, opts, app)
			vecBytes := int64(4 * 3)

			if !got.needSeen || got.need.Dim() != 0 || got.need.NNZ() != 0 {
				t.Errorf("ReadFault: fetch seen by the home %v, Need %v of dimension %d; want a request with an absent Need (dimension 0)",
					got.needSeen, got.need, got.need.Dim())
			}
			if got.readCharge != vecBytes || got.reCharge != vecBytes || got.readerSeenAfter == nil {
				t.Errorf("ReadFault: protocol memory +%d after the first fetch, +%d after a refetch, vector %v; want +%d once and a vector",
					got.readCharge, got.reCharge, got.readerSeenAfter, vecBytes)
			}
			if got.writerSeenBeforeClose != nil {
				t.Errorf("closeCommit: the home's vector existed before its first write: %v", got.writerSeenBeforeClose)
			}
			if got.wokeAt < sim.Millisecond {
				t.Errorf("homeDrain: the waiter woke at %v, before the drain", got.wokeAt)
			}
			if got.usedBeforeNotice {
				t.Error("noticePage: the page's use tier existed before the notice; the case is not the one meant")
			}
			if got.pageInval == 0 || got.noticeCost != got.pageInval || got.noticeState != mem.Invalid {
				t.Errorf("noticePage at a home with no flush vector: cost %v state %v, want the invalidation (%v, %v)",
					got.noticeCost, got.noticeState, got.pageInval, mem.Invalid)
			}
			var inval []trace.Event
			for _, ev := range res.Trace.ByKind(trace.Invalidate) {
				if ev.Node == 0 && ev.Page == got.notePage {
					inval = append(inval, ev)
				}
			}
			if len(inval) != 1 || inval[0].Peer != 2 {
				t.Errorf("noticePage at the home: invalidations traced %v, want one, from writer 2", inval)
			}
			if got.noticeCharge != vecBytes || got.renote != vecBytes || got.noticedTo != 2 {
				t.Errorf("noticePage: protocol memory +%d after one notice, +%d after two, writer 2 at %d; want +%d once and 2",
					got.noticeCharge, got.renote, got.noticedTo, vecBytes)
			}
			if res.Data[0] != 7 {
				t.Errorf("the home's write reads back %v, want 7", res.Data[0])
			}
		})
	}
}
