package core

import (
	"testing"

	"gosvm/internal/mem"
	"gosvm/internal/paragon"
	"gosvm/internal/sim"
)

// Page-frame ownership (DESIGN §9): a snapshot made for one recipient is
// adopted, an image that fans out is copied, and the home-side copy at
// reply time is what keeps a reader's page from changing under it.

// TestFetchAdoptsTheHomesSnapshot: node 0 homes one page and keeps storing
// into it; node 1 faults it in. The frame node 1 ends up holding must be
// the very buffer node 0 drew for the reply (a marker frame planted in
// its pool), it must hold the value of reply time — a store the home made
// while the reply was in flight is not in it — and it must not move while
// the home keeps writing.
func TestFetchAdoptsTheHomesSnapshot(t *testing.T) {
	forEachProto(t, []int{2}, func(t *testing.T, proto Protocol, p int) {
		const words = 64 // one 512-byte page
		var addr mem.Addr
		marker := make([]float64, words)
		type store struct {
			at sim.Time
			v  float64
		}
		var stores []store
		var got struct {
			adopted        bool
			first, later   float64
			receipt, final sim.Time
		}
		app := &testApp{
			name:  "adopt",
			setup: func(s *Setup) { addr = s.Alloc(words) },
			init:  func(w *Init) { w.SetHome(addr, words, 0) },
			worker: func(c *Ctx, id int) {
				switch id {
				case 0:
					for i := 1; i <= 800; i++ {
						c.Store(addr, float64(i))
						stores = append(stores, store{c.Now(), float64(i)})
						if i == 1 {
							// After the first store: the homeless protocols
							// have drawn their twin by now.
							baseOf(c.eng).pool().PutPage(marker)
						}
						c.Compute(5 * sim.Microsecond)
					}
				case 1:
					c.Compute(300 * sim.Microsecond)
					got.first = c.Load(addr)
					got.receipt = c.Now()
					data := c.pt.Page(c.sys.Space.PageOf(addr)).Data
					got.adopted = &data[0] == &marker[0]
					c.Compute(sim.Millisecond)
					got.later = c.Load(addr)
					got.final = c.Now()
				}
				c.Barrier(0)
			},
			gather: func(c *Ctx) []float64 { return []float64{c.Load(addr)} },
		}
		res := runOrFail(t, testOpts(proto, p), app)
		if !got.adopted {
			t.Error("the reader's frame is not the buffer the home put in the reply")
		}
		homeAt := func(at sim.Time) (v float64) {
			for _, s := range stores {
				if s.at <= at {
					v = s.v
				}
			}
			return v
		}
		if got.first < 1 || got.first >= homeAt(got.receipt) {
			t.Errorf("reader saw %v; the home held %v when the reply landed: want an earlier, non-zero value",
				got.first, homeAt(got.receipt))
		}
		if got.later != got.first || homeAt(got.final) <= homeAt(got.receipt) {
			t.Errorf("reader's copy went %v -> %v while the home went %v -> %v: want it still, the home moving",
				got.first, got.later, homeAt(got.receipt), homeAt(got.final))
		}
		if res.Data[0] != 800 {
			t.Errorf("final value %v, want 800", res.Data[0])
		}
	})
}

// TestAdoptClearsTheReply: adopt takes the frame out of the reply, so the
// reply cannot install it a second time.
func TestAdoptClearsTheReply(t *testing.T) {
	var addr mem.Addr
	var first, second []float64
	var again any
	app := &testApp{
		name:  "adopt-twice",
		setup: func(s *Setup) { addr = s.Alloc(1) },
		init:  func(w *Init) { w.SetHome(addr, 1, 0) },
		worker: func(c *Ctx, id int) {
			if id == 1 {
				b, pg := baseOf(c.eng), c.sys.Space.PageOf(addr)
				resp := b.node.Call(b.app(), 0, paragon.Msg{
					Kind: kFetchPage, Size: 8, Target: paragon.ToCompute,
					Body: &fetchPageReq{Page: pg},
				})
				pr := resp.Body.(*fetchPageResp)
				first = pr.Data
				p := c.pt.Page(pg)
				b.adopt(p, &pr.Data)
				second = pr.Data
				if &p.Data[0] != &first[0] {
					t.Error("adopt installed some other buffer")
				}
				func() {
					defer func() { again = recover() }()
					b.adopt(p, &pr.Data)
				}()
				p.State = mem.ReadOnly
			}
			c.Barrier(0)
		},
		gather: func(c *Ctx) []float64 { return nil },
	}
	runOrFail(t, testOpts(ProtoHLRC, 2), app)
	if first == nil || second != nil {
		t.Errorf("reply carried %d words and still holds %d after adopt; want a page, then nil", len(first), len(second))
	}
	if again == nil {
		t.Error("adopting the same reply twice did not panic")
	}
}

// TestFullPageImageIsNotAdopted: shipFullPage sends one image to every
// replica, so a replica must copy it; two mirrors sharing the buffer would
// write through to each other.
func TestFullPageImageIsNotAdopted(t *testing.T) {
	const words = 64
	var addr mem.Addr
	var m1, m2, home []float64
	app := &testApp{
		name:  "fanout",
		setup: func(s *Setup) { addr = s.Alloc(words) },
		init: func(w *Init) {
			w.Store(addr+3, 7)
			w.SetHome(addr, words, 0)
		},
		worker: func(c *Ctx, id int) {
			if id == 0 {
				pg := c.sys.Space.PageOf(addr)
				e := c.eng.(*hlrcEngine)
				e.shipFullPage(pg, c.sys.replicasOf(0))
				c.Compute(2 * sim.Millisecond)
				m1 = c.sys.Engines[1].(*hlrcEngine).mirrorOf(pg).data
				m2 = c.sys.Engines[2].(*hlrcEngine).mirrorOf(pg).data
				home = e.pt.Page(pg).Data
				m1[3] = 99
			}
			c.Barrier(0)
		},
		gather: func(c *Ctx) []float64 { return []float64{c.Load(addr + 3)} },
	}
	opts := testOpts(ProtoHLRC, 4)
	opts.Recovery = Recovery{Replicas: 2}
	res := runOrFail(t, opts, app)
	if len(m1) != words || len(m2) != words {
		t.Fatalf("mirrors hold %d and %d words, want %d", len(m1), len(m2), words)
	}
	if m1[3] != 99 || m2[3] != 7 || home[3] != 7 || res.Data[0] != 7 {
		t.Errorf("after writing mirror 1: mirror 1 %v, mirror 2 %v, home %v, gathered %v; want 99, 7, 7, 7",
			m1[3], m2[3], home[3], res.Data[0])
	}
}

// TestSeedFramesAreClipped: the homes' first copies are slices of one
// staging image, each clipped to its page, so growing one cannot write
// into its neighbour — and a neighbour on another node's lane at that.
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
