package core

import (
	"fmt"
	"testing"

	"gosvm/internal/mem"
	"gosvm/internal/sim"
)

// BenchmarkCtxAccess times the software MMU's hit path on one node that
// has made two pages writable: a Load and a Store of one word, a 3-word
// ReadRange inside a page (WaterNsq's access) and a 4-word ReadRange that
// crosses from the first page into the second, so both of its pages miss
// the cached entry and neither faults.
func BenchmarkCtxAccess(b *testing.B) {
	ops := []struct {
		name string
		op   func(c *Ctx, a mem.Addr, buf []float64)
	}{
		{"load", func(c *Ctx, a mem.Addr, buf []float64) { buf[0] = c.Load(a + 3) }},
		{"store", func(c *Ctx, a mem.Addr, buf []float64) { c.Store(a+3, buf[0]) }},
		{"read-range", func(c *Ctx, a mem.Addr, buf []float64) { c.ReadRange(a+3, buf[:3]) }},
		{"read-range-crossing", func(c *Ctx, a mem.Addr, buf []float64) { c.ReadRange(a+62, buf[:4]) }},
	}
	for _, o := range ops {
		b.Run(o.name, func(b *testing.B) {
			var addr mem.Addr
			app := &testApp{
				name:  "access",
				setup: func(s *Setup) { addr = s.Alloc(128) },
				init:  func(w *Init) {},
				worker: func(c *Ctx, id int) {
					buf := make([]float64, 4)
					c.Store(addr, 1)
					c.Store(addr+64, 1)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						o.op(c, addr, buf)
					}
					b.StopTimer()
					c.Barrier(0)
				},
				gather: func(c *Ctx) []float64 { return nil },
			}
			if _, err := Run(testOpts(ProtoHLRC, 1), app, false); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestAccessCacheFollowsPageState: the Ctx's cached entry must never
// outlive a protection change. Node 1 fills its cache with page 0, node 0
// writes a word of page 0 and one of page 1 (in every step but close), and
// one protocol action changes the state of node 1's copies:
//   - acquire: the lock grant carries the write notices;
//   - barrier: the barrier release carries them;
//   - close: no notice; node 1's own interval ends (closeCommit) and
//     re-protects the page it wrote;
//   - collect: a barrier that also runs an LRC collection, which drops the
//     copies (GCThreshold 1; homeless protocols only);
//   - fresh-read: node 1 revalidates page 0 with Ctx.FreshRead, which
//     replaces its copy and leaves it readable (home-based protocols only),
//     so a cache that kept the copy instead of the entry reads stale words.
//
// The next access of node 1 must fault exactly as if it had looked the
// page up afresh: a read of an invalidated page misses once and returns
// node 0's value, a read of a re-protected or revalidated one does not
// fault, and a write write-faults once and takes a twin. The crossing
// accesses start in the cached page, which is valid, and run into page 1,
// which is not.
func TestAccessCacheFollowsPageState(t *testing.T) {
	const wrote = 1 // the value node 0 writes to words 6 and 65
	accesses := []struct {
		name  string
		write bool
		page  int                              // the page whose fault is counted
		prime func(c *Ctx, a mem.Addr)         // re-fills the cache before a crossing access
		do    func(c *Ctx, a mem.Addr) float64 // returns the word node 0 wrote on page
	}{
		{"load", false, 0, nil, func(c *Ctx, a mem.Addr) float64 { return c.Load(a + 6) }},
		{"read-range", false, 0, nil, func(c *Ctx, a mem.Addr) float64 {
			buf := make([]float64, 4)
			c.ReadRange(a+4, buf)
			return buf[2]
		}},
		{"store", true, 0, nil, func(c *Ctx, a mem.Addr) float64 {
			c.Store(a+7, 5)
			return c.Load(a + 6)
		}},
		{"write-range", true, 0, nil, func(c *Ctx, a mem.Addr) float64 {
			c.WriteRange(a+7, []float64{5, 5})
			return c.Load(a + 6)
		}},
		{"read-range-crossing", false, 1, func(c *Ctx, a mem.Addr) { c.Load(a + 3) }, func(c *Ctx, a mem.Addr) float64 {
			buf := make([]float64, 4)
			c.ReadRange(a+62, buf)
			return buf[3]
		}},
		{"write-range-crossing", true, 1, func(c *Ctx, a mem.Addr) { c.Store(a+3, 5) }, func(c *Ctx, a mem.Addr) float64 {
			c.WriteRange(a+62, []float64{5, 5, 5})
			return c.Load(a + 65)
		}},
	}
	for _, proto := range Protocols {
		for _, step := range []string{"acquire", "barrier", "close", "collect", "fresh-read"} {
			homeless := proto == ProtoLRC || proto == ProtoOLRC
			if step == "collect" && !homeless || step == "fresh-read" && homeless {
				continue
			}
			for _, ac := range accesses {
				t.Run(fmt.Sprintf("%s/%s/%s", proto, step, ac.name), func(t *testing.T) {
					var addr mem.Addr
					measure := func(c *Ctx) {
						b := baseOf(c.eng)
						first := c.sys.Space.PageOf(addr)
						page := c.pt.Page(first + ac.page)
						if step == "collect" && page.Data != nil {
							t.Errorf("page %d still has a copy after the collection", ac.page)
						}
						if ac.prime != nil {
							ac.prime(c, addr)
						}
						if c.last != c.pt.Page(first) {
							t.Errorf("the cache does not hold page 0 before the access")
							return
						}
						misses, faults := b.st().Counts.ReadMisses, b.st().Counts.WriteFaults
						got := ac.do(c, addr)
						misses, faults = b.st().Counts.ReadMisses-misses, b.st().Counts.WriteFaults-faults
						want, wantMisses := float64(wrote), int64(1)
						if step == "close" {
							want = 0
						}
						if (step == "close" || step == "fresh-read") && ac.page == 0 {
							wantMisses = 0 // the page is readable, not invalid
						}
						switch {
						case ac.write && (faults != 1 || page.Twin == nil):
							t.Errorf("%d write faults, twin %v; want 1 and a twin", faults, page.Twin != nil)
						case !ac.write && misses != wantMisses:
							t.Errorf("%d read misses, want %d", misses, wantMisses)
						}
						if got != want {
							t.Errorf("read %v, want %v", got, want)
						}
					}
					write := func(c *Ctx) {
						c.Store(addr+6, wrote)
						c.Store(addr+65, wrote)
					}
					app := &testApp{
						name:  "cache",
						setup: func(s *Setup) { addr = s.Alloc(192) },
						init:  func(w *Init) { w.SetHome(addr, 192, 0) },
						worker: func(c *Ctx, id int) {
							switch step {
							case "acquire":
								if id == 0 {
									c.Lock(0)
									write(c)
									c.Unlock(0)
								} else {
									c.Load(addr + 3)
									c.Compute(10 * sim.Millisecond)
									c.Lock(0)
									measure(c)
									c.Unlock(0)
								}
							case "barrier", "collect":
								if id == 0 {
									write(c)
								} else {
									c.Load(addr + 3)
								}
								c.Barrier(1)
								if id == 1 {
									measure(c)
								}
							case "fresh-read":
								if id == 0 {
									c.Compute(sim.Millisecond)
									write(c)
									baseOf(c.eng).closeIntervalOnApp()
								} else {
									c.Load(addr + 3)
									c.Compute(10 * sim.Millisecond)
									c.FreshRead(addr)
									measure(c)
								}
							case "close":
								if id == 1 {
									c.Store(addr+3, 1)
									baseOf(c.eng).closeIntervalOnApp()
									measure(c)
								}
							}
							c.Barrier(2)
						},
						gather: func(c *Ctx) []float64 { return nil },
					}
					opts := testOpts(proto, 2)
					if step == "collect" {
						opts.GCThreshold = 1
					}
					runOrFail(t, opts, app)
				})
			}
		}
	}
}
