package mem

import (
	"fmt"

	"gosvm/internal/slab"
)

// State is the protection state of a page in one node's page table.
type State uint8

const (
	// Invalid: any access faults. The node may still hold stale Data as a
	// base copy for diff application.
	Invalid State = iota
	// ReadOnly: reads proceed; the first write faults (write detection).
	ReadOnly
	// ReadWrite: all accesses proceed.
	ReadWrite
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "invalid"
	case ReadOnly:
		return "read-only"
	case ReadWrite:
		return "read-write"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Page is one node's view of a shared page.
type Page struct {
	State State
	// twinShared says which slice aliases frame's words: Twin when set,
	// Data otherwise. Never both: a write fault moves the alias from Data to
	// Twin (MakeTwin), it does not add one.
	twinShared bool
	// Data is the local copy, nil if the node holds none; when State is
	// Invalid, a stale base copy. A page fetch replaces the slice: read it
	// through the *Page after anything that can block, never from a saved one.
	Data []float64
	// Twin is the clean snapshot taken before the first write of the
	// current interval; nil when the page is not being written.
	Twin []float64
	// frame is the shared snapshot this node holds a reference to (Adopt),
	// nil when Data and Twin are both private. The aliasing slice is
	// read-only: Data while the page is not writable, Twin always.
	frame *Frame
}

// Table is one node's page table. Entries materialize a slab.Block of pages
// at a time on first touch (slab.Chunks), so a node's table costs memory
// proportional to the pages it references, not to the address space — the
// difference between feasible and not at 1024 nodes. Peek and Each are the
// embedded array's.
type Table struct {
	slab.Chunks[Page]
	Space *Space
}

// NewTable returns an empty page table over space, its block index sized
// for the pages allocated so far.
func NewTable(space *Space) *Table {
	return &Table{Chunks: slab.NewChunks[Page](space.NumPages()), Space: space}
}

// Page returns the entry for page id, materializing its block. The
// returned pointer is stable for the table's lifetime.
func (t *Table) Page(id int) *Page {
	if id < 0 {
		panic(fmt.Sprintf("mem: page %d", id))
	}
	return t.At(id)
}

// Materialize ensures the page has a zeroed local copy, returning it.
func (t *Table) Materialize(id int) *Page {
	p := t.Page(id)
	if p.Data == nil {
		p.Data = make([]float64, t.Space.PageWords)
	}
	return p
}

// Shared returns the frame the page's copy aliases, and whether the alias
// is its twin rather than its data; nil when both are private.
func (p *Page) Shared() (f *Frame, twin bool) { return p.frame, p.twinShared }

// Adopt makes f, one reference to which the caller hands over, the page's
// read-only copy. The copy it replaces is recycled into pool (which may be
// nil): its words if it was private, its reference if it was shared.
func (p *Page) Adopt(f *Frame, pool *Pool) {
	switch {
	case p.twinShared:
		panic("mem: page fetched while its twin is a shared frame")
	case p.frame != nil:
		p.frame.Release(pool)
	default:
		pool.PutPage(p.Data) // nil is not a frame: nothing is put
	}
	p.Data, p.frame = f.Words, f
}

// MakeTwin snapshots the current page contents as the twin, one page copy
// either way: a private Data is copied into a twin drawn from pool (nil pool
// allocates); a shared one becomes the twin as it is, and Data the copy.
func (p *Page) MakeTwin(pool *Pool) {
	switch {
	case p.Data == nil:
		panic("mem: twin of a page with no copy")
	case p.frame != nil && !p.twinShared:
		pool.PutPage(p.Twin)
		p.Twin, p.twinShared = p.Data, true
		p.Data = pool.Clone(p.Twin)
	case p.Twin == nil:
		p.Twin = pool.Clone(p.Data)
	case p.twinShared:
		panic("mem: twin retaken over a shared frame")
	default:
		copy(p.Twin, p.Data)
	}
}

// DropTwin discards the twin, recycling its buffer (or, if it is a shared
// frame, this node's reference to it) into pool, which may be nil.
func (p *Page) DropTwin(pool *Pool) {
	if p.twinShared {
		p.frame.Release(pool)
		p.frame, p.twinShared = nil, false
	} else {
		pool.PutPage(p.Twin)
	}
	p.Twin = nil
}
