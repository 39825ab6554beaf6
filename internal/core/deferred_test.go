package core

import (
	"fmt"
	"reflect"
	"testing"

	"gosvm/internal/mem"
	"gosvm/internal/paragon"
	"gosvm/internal/sim"
	"gosvm/internal/slab"
)

// firstFault is what noticeBurst's reader asks for at its one fault, and
// what it held before it.
type firstFault struct {
	slotBefore bool          // the reader's slot for the page existed before the fault
	need       map[int]int32 // HLRC: the fetch's Need, writer to interval
	pageFrom   int           // LRC: the node asked for a base copy
	diffs      []string      // LRC: each diff request, "node: writer:interval ..."
	last       map[int]int32 // per writer, the last interval that wrote the page
	protoMem   [2]int64      // the reader's protocol memory at the end and its peak
	data       []float64     // what the reader loads
}

// noticeBurst runs writers 1 and 2 of a 4-node machine through rounds of
// writes to pages of the second 128-page block, which node 0 homes and
// reader 3 never touches: first one after the other under lock 0, which
// the reader then takes (notices by lock hand-off), then both at once
// between two barriers (notices by barrier release). Page burstPage is
// written in every phase. After the last round the reader loads four of
// its words, one fault. With eager set, the reader takes every notice as
// it arrives (eager delivery): its whole eager set is marked before the
// first one.
func noticeBurst(t *testing.T, proto Protocol, eager bool) firstFault {
	const words, rounds, reader = 64, 3, 3
	const block = slab.Block // the written block's first page
	var base mem.Addr
	got := firstFault{need: map[int]int32{}, last: map[int]int32{}, pageFrom: -1}
	page := func(pg int) mem.Addr { return base + mem.Addr(pg*words) }
	app := &testApp{
		name:  "notice-burst",
		setup: func(s *Setup) { base = s.Alloc(2 * block * words) },
		init:  func(w *Init) { w.SetHome(base, 2*block*words, 0) },
		worker: func(c *Ctx, id int) {
			write := func(pg, word int, v float64) {
				c.Store(page(pg)+mem.Addr(word), v)
				if pg == burstPage {
					// The open interval closes as the next one of this
					// writer's own clock.
					got.last[id] = baseOf(c.eng).clock[id] + 1
				}
			}
			switch id {
			case reader:
				if eager {
					b := baseOf(c.eng)
					for i := range b.eager {
						b.eager[i] = ^uint64(0)
					}
				}
			default:
				tap(c.eng, func(m paragon.Msg) {
					if m.From != reader {
						return
					}
					switch body := m.Body.(type) {
					case *fetchPageReq:
						if body.Page == burstPage {
							body.Need.Each(func(p int, x int32) { got.need[p] = x })
						}
					case *lrcFetchPageReq:
						if body.Page == burstPage {
							got.pageFrom = id
						}
					case *fetchDiffsReq:
						if body.Page == burstPage {
							req := fmt.Sprintf("%d:", id)
							for _, r := range body.Recs {
								req += fmt.Sprintf(" %d:%d", r.Proc, r.Interval)
							}
							got.diffs = append(got.diffs, req)
						}
					}
				})
			}
			for r := 1; r <= rounds; r++ {
				// Lock 0's manager orders the acquires as they are asked:
				// writer 1, writer 2, the reader.
				c.Compute(sim.Time(10*id) * sim.Millisecond)
				if id != 0 {
					c.Lock(0)
					switch id {
					case 1:
						write(block+r, 0, float64(r))
						write(burstPage, 1, float64(10*r+1))
					case 2:
						write(block+8+r, 0, float64(r))
						write(burstPage, 2, float64(10*r+2))
					}
					c.Unlock(0)
				}
				c.Barrier(2 * r)
				switch id {
				case 1:
					write(burstPage, 3, float64(10*r+3))
					write(block+16+r, 0, float64(r))
				case 2:
					write(burstPage, 4, float64(10*r+4))
					write(block+24+r, 0, float64(r))
				}
				c.Barrier(2*r + 1)
			}
			if id == reader {
				got.slotBefore = slotBuilt(c.eng, burstPage)
				for w := 1; w <= 4; w++ {
					got.data = append(got.data, c.Load(page(burstPage)+mem.Addr(w)))
				}
			}
			c.Barrier(2*rounds + 2)
		},
		gather: func(c *Ctx) []float64 { return nil },
	}
	opts := testOpts(proto, 4)
	opts.GCThreshold = 1 << 30 // a collection folds every deferred notice
	res := runOrFail(t, opts, app)
	st := res.Stats.Nodes[reader]
	got.protoMem = [2]int64{st.ProtoMem, st.ProtoMemPeak}
	return got
}

// burstPage is the page noticeBurst's writers write in every phase.
const burstPage = slab.Block + 2

func slotBuilt(eng Engine, page int) bool {
	switch e := eng.(type) {
	case *hlrcEngine:
		return e.pages.Peek(page) != nil
	case *lrcEngine:
		return e.pages.Peek(page) != nil
	}
	panic(fmt.Sprintf("no page slots in %T", eng))
}

// TestDeferredNoticesResolveAtFirstFault: notices for pages a node never
// touched build no slot there, and its first fault on one of them asks for
// what eager delivery asks for. Under HLRC the fetch's Need is, per writer,
// the last interval that wrote the page. Under LRC the base copy comes from
// the last writer noticed (writer 2, whose record the last release carries
// after writer 1's), and the diffs requested are those its copy lacks:
// writer 1's concurrent last write. The reader's protocol memory, charged
// at delivery either way, is the same to the byte.
func TestDeferredNoticesResolveAtFirstFault(t *testing.T) {
	for _, proto := range Protocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			got, eager := noticeBurst(t, proto, false), noticeBurst(t, proto, true)
			if got.slotBefore {
				t.Error("the reader built a slot for the page before faulting on it")
			}
			if !eager.slotBefore {
				t.Error("with eager delivery the reader had no slot for the page either: the case is not the one meant")
			}
			if want := []float64{31, 32, 33, 34}; !reflect.DeepEqual(got.data, want) {
				t.Errorf("the reader loads %v, want %v", got.data, want)
			}
			if got.protoMem != eager.protoMem {
				t.Errorf("the reader's protocol memory (end, peak) is %v, %v with eager delivery", got.protoMem, eager.protoMem)
			}
			if proto.HomeBased() {
				if !reflect.DeepEqual(got.need, got.last) || !reflect.DeepEqual(eager.need, got.last) {
					t.Errorf("fetch Need %v (eager delivery: %v), want the writers' last intervals %v", got.need, eager.need, got.last)
				}
				return
			}
			want := []string{fmt.Sprintf("1: 1:%d", got.last[1])}
			if got.pageFrom != 2 || !reflect.DeepEqual(got.diffs, want) {
				t.Errorf("base copy from node %d, diff requests %q; want node 2 and %q", got.pageFrom, got.diffs, want)
			}
			if eager.pageFrom != got.pageFrom || !reflect.DeepEqual(eager.diffs, got.diffs) {
				t.Errorf("eager delivery asks node %d for the base copy and %q for diffs; deferred, node %d and %q",
					eager.pageFrom, eager.diffs, got.pageFrom, got.diffs)
			}
		})
	}
}
