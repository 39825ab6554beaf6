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
	// Data is the local copy, nil if the node holds none; when State is
	// Invalid, a stale base copy. A page fetch replaces the slice: read it
	// through the *Page after anything that can block, never from a saved one.
	Data []float64
	// Twin is the clean snapshot taken before the first write of the
	// current interval; nil when the page is not being written.
	Twin []float64
	// Stores counts individual word stores since the page became
	// writable. Used by the AURC emulation, whose write-through traffic
	// is proportional to stores rather than to distinct modified words.
	Stores int
}

// HasCopy reports whether a local copy exists (possibly stale).
func (p *Page) HasCopy() bool { return p.Data != nil }

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

// MakeTwin snapshots the current page contents as the twin, drawing the
// buffer from pool when one is supplied (nil pool allocates).
func (p *Page) MakeTwin(pool *Pool) {
	if p.Data == nil {
		panic("mem: twin of a page with no copy")
	}
	if p.Twin == nil {
		if pool != nil {
			p.Twin = pool.GetPage()
		} else {
			p.Twin = make([]float64, len(p.Data))
		}
	}
	copy(p.Twin, p.Data)
}

// DropTwin discards the twin, recycling its buffer into pool (which may
// be nil).
func (p *Page) DropTwin(pool *Pool) {
	pool.PutPage(p.Twin)
	p.Twin = nil
}
