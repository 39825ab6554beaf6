package mem

import "fmt"

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

// TableChunk is the page-table allocation granule: entries materialize a
// chunk at a time on first touch, so a node's table costs memory
// proportional to the pages it actually references, not to the address
// space — the difference between feasible and not at 1024 nodes.
// Chunking also makes entry pointers stable with no pre-sizing: growing
// the outer chunk list never moves an allocated chunk.
const TableChunk = 128

// Table is one node's page table.
type Table struct {
	Space  *Space
	chunks [][]Page
}

// NewTable returns an empty page table over space.
func NewTable(space *Space) *Table {
	return &Table{Space: space}
}

// Page returns the entry for page id, materializing its chunk. The
// returned pointer is stable for the table's lifetime.
func (t *Table) Page(id int) *Page {
	if id < 0 {
		panic(fmt.Sprintf("mem: page %d", id))
	}
	c := id / TableChunk
	for c >= len(t.chunks) {
		t.chunks = append(t.chunks, nil)
	}
	if t.chunks[c] == nil {
		t.chunks[c] = make([]Page, TableChunk)
	}
	return &t.chunks[c][id%TableChunk]
}

// Peek returns the entry for page id without materializing anything: nil
// when the page's chunk was never referenced, so the entry is zero
// (Invalid, no copy).
func (t *Table) Peek(id int) *Page {
	if c := id / TableChunk; c < len(t.chunks) && t.chunks[c] != nil {
		return &t.chunks[c][id%TableChunk]
	}
	return nil
}

// Each visits every entry in every materialized chunk, in page order.
// Entries in never-referenced chunks are skipped; they are zero (Invalid,
// no copy), so callers that would ignore zero entries anyway see the
// same behavior as a dense scan.
func (t *Table) Each(fn func(id int, p *Page)) {
	for ci, ch := range t.chunks {
		if ch == nil {
			continue
		}
		base := ci * TableChunk
		for i := range ch {
			fn(base+i, &ch[i])
		}
	}
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

// Own makes Data and Twin private, for a node about to write bytes the
// page's write fault did not cover (a home applying a diff, recovery
// rebasing a copy): whichever aliases a shared frame becomes a copy drawn
// from pool and the reference is dropped.
func (p *Page) Own(pool *Pool) {
	if p.frame == nil {
		return
	}
	if p.twinShared {
		p.Twin = pool.Clone(p.Twin)
	} else {
		p.Data = pool.Clone(p.Data)
	}
	// Only recovery gets here. If this was the last reference the words fall
	// to the Go GC: pool has just been drawn from, and a put on top of the
	// draw could take its list past the owner's cap.
	p.frame.Release(nil)
	p.frame, p.twinShared = nil, false
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
