package core

import (
	"fmt"

	"gosvm/internal/mem"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
)

// Ctx is the per-processor view of the shared virtual memory, passed to
// application workers. It provides the Splash-2 programming interface:
// shared loads and stores (with software page-fault handling), LOCK /
// UNLOCK / BARRIER, and explicit computation charging.
type Ctx struct {
	sys  *System
	eng  Engine
	pt   *mem.Table
	proc *sim.Proc
	id   int
	pw   int // words per page
	// last is the table entry of the page this processor touched last and
	// base the address of that page's first word: a one-entry TLB. It keeps
	// the entry, which never moves, not the entry's copy, which a fetch
	// replaces, and every access tests the entry's state, so a protocol
	// action that invalidates or re-protects the page makes the next access
	// miss and fault as it would without the cache (DESIGN §9).
	last *mem.Page
	base mem.Addr
}

// unmapped is the entry a Ctx starts from: Invalid, so the first access
// misses whatever its address, without materializing page 0's block of a
// node that never touches it. Nothing writes it; a miss caches a real
// entry in its place.
var unmapped mem.Page

func newCtx(sys *System, id int, p *sim.Proc) *Ctx {
	return &Ctx{
		sys:  sys,
		eng:  sys.Engines[id],
		pt:   sys.Tables[id],
		proc: p,
		id:   id,
		pw:   sys.Space.PageWords,
		last: &unmapped,
	}
}

// miss looks up the page of a, which the cached entry does not serve, and
// faults it in for a write if write is set, for a read otherwise; it
// caches the entry and returns it with a's offset in the page.
func (c *Ctx) miss(a mem.Addr, write bool) (*mem.Page, uint64) {
	pg := int(int64(a) / int64(c.pw))
	p := c.pt.Page(pg)
	switch {
	case write && p.State != mem.ReadWrite:
		c.allocated(a, pg)
		c.eng.WriteFault(pg)
	case !write && p.State == mem.Invalid:
		c.allocated(a, pg)
		c.eng.ReadFault(pg)
	}
	c.last, c.base = p, mem.Addr(pg*c.pw)
	return p, uint64(a - c.base)
}

// allocated panics unless page pg, on which an access to a faulted or a
// FreshRead of a revalidates, is inside the allocated shared space. A page
// outside it is never valid, so every access there misses and faults and
// a hit pays nothing for the check; the panic comes before the engine sees
// the page.
func (c *Ctx) allocated(a mem.Addr, pg int) {
	if n := c.sys.Space.NumPages(); pg >= n {
		panic(fmt.Sprintf("core: node %d accessed address %d on page %d, outside the %d allocated pages",
			c.id, a, pg, n))
	}
}

// Nodes returns the machine size.
func (c *Ctx) Nodes() int { return c.sys.Opts.Machine.Nodes }

// Now returns the current simulated time.
func (c *Ctx) Now() sim.Time { return c.proc.Now() }

// Compute charges d of application computation.
func (c *Ctx) Compute(d sim.Time) {
	c.sys.M.Nodes[c.id].CPU.Use(c.proc, d, stats.CatCompute)
}

// Load reads one shared word. A hit on the cached page costs a subtract,
// a compare and the state test; the offset's unsigned compare also sends
// an address below the cached page to miss.
func (c *Ctx) Load(a mem.Addr) float64 {
	p, off := c.last, uint64(a-c.base)
	if off >= uint64(c.pw) || p.State == mem.Invalid {
		p, off = c.miss(a, false)
	}
	return p.Data[off]
}

// Store writes one shared word.
func (c *Ctx) Store(a mem.Addr, v float64) {
	p, off := c.last, uint64(a-c.base)
	if off >= uint64(c.pw) || p.State != mem.ReadWrite {
		p, off = c.miss(a, true)
	}
	p.Data[off] = v
}

// LoadI reads an integer-valued shared word.
func (c *Ctx) LoadI(a mem.Addr) int64 { return int64(c.Load(a)) }

// StoreI writes an integer-valued shared word. Values must be exactly
// representable in a float64 (|v| < 2^53).
func (c *Ctx) StoreI(a mem.Addr, v int64) { c.Store(a, float64(v)) }

// ReadRange copies len(dst) shared words starting at a into dst, faulting
// pages in as needed. It is the bulk fast path for numeric kernels.
func (c *Ctx) ReadRange(a mem.Addr, dst []float64) {
	for len(dst) > 0 {
		p, off := c.last, uint64(a-c.base)
		if off >= uint64(c.pw) || p.State == mem.Invalid {
			p, off = c.miss(a, false)
		}
		n := copy(dst, p.Data[off:])
		dst = dst[n:]
		a += mem.Addr(n)
	}
}

// WriteRange copies src into shared memory starting at a.
func (c *Ctx) WriteRange(a mem.Addr, src []float64) {
	for len(src) > 0 {
		p, off := c.last, uint64(a-c.base)
		if off >= uint64(c.pw) || p.State != mem.ReadWrite {
			p, off = c.miss(a, true)
		}
		n := copy(p.Data[off:], src)
		src = src[n:]
		a += mem.Addr(n)
	}
}

// Wait idles the processor for d of simulated time without charging any
// busy category: the open-loop serving workload's "no request pending"
// state. Zero or negative d returns immediately.
func (c *Ctx) Wait(d sim.Time) {
	if d > 0 {
		c.proc.Sleep(d)
	}
}

// WaitUntil idles until simulated time t (no-op if t has passed). Used
// by open-loop clients to hold requests until their arrival time.
func (c *Ctx) WaitUntil(t sim.Time) { c.Wait(t - c.proc.Now()) }

// fresher is implemented by engines whose protocol keeps an
// authoritative per-page copy a lock-free read can validate against
// (the home-based family).
type fresher interface {
	FreshRead(page int) bool
}

// FreshRead revalidates the page containing a against its authoritative
// copy before a lock-free read: under the home-based protocols any
// cached local copy is dropped and the home's current copy is fetched
// in one round trip, so subsequent Loads of the page observe a single
// atomic snapshot that is at least as new as everything this node is
// required to see. Pages this node homes, or has modified in the open
// interval, are read in place (they are already the freshest view this
// node can have). Returns false when the protocol has no authoritative
// copy to validate against — the homeless LRC family learns of remote
// writes only through synchronization — in which case the caller must
// take the lock instead. An address outside the allocated space panics
// under every protocol, as an access there does.
func (c *Ctx) FreshRead(a mem.Addr) bool {
	pg := int(int64(a) / int64(c.pw))
	c.allocated(a, pg)
	f, ok := c.eng.(fresher)
	if !ok {
		return false
	}
	return f.FreshRead(pg)
}

// Lock acquires the given lock (Splash-2 LOCK).
func (c *Ctx) Lock(l int) { c.eng.Acquire(l) }

// Unlock releases the given lock (Splash-2 UNLOCK).
func (c *Ctx) Unlock(l int) { c.eng.Release(l) }

// Barrier waits until all processors arrive (Splash-2 BARRIER).
func (c *Ctx) Barrier(id int) { c.eng.Barrier(id) }
