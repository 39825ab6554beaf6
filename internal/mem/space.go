// Package mem is the shared-virtual-memory substrate: a word-addressed
// shared address space, per-node software page tables with protection
// states, twin pages, and the word-granularity diff engine used by all
// four protocols.
//
// The unit of addressing is one 64-bit word. Shared data is stored as
// float64 (the Splash-2 workloads are floating-point dominated); integer
// values small enough for exact float64 representation are stored as
// their float64 value. Diffs compare words by bit pattern, so any stored
// value round-trips exactly.
package mem

import "fmt"

// Addr is a word index into the shared address space.
type Addr int64

// Space is the global shared address space: page geometry plus a bump
// allocator (the Splash-2 G_MALLOC). Allocation state is logically
// replicated on every node; a single object serves all simulated nodes.
type Space struct {
	PageWords int // words per page (page bytes / 8)
	next      Addr
}

// NewSpace returns an empty address space with the given page size in
// bytes, which must be a positive multiple of 8.
func NewSpace(pageBytes int) *Space {
	if pageBytes <= 0 || pageBytes%8 != 0 {
		panic(fmt.Sprintf("mem: invalid page size %d", pageBytes))
	}
	return &Space{PageWords: pageBytes / 8}
}

// PageBytes returns the page size in bytes.
func (s *Space) PageBytes() int { return s.PageWords * 8 }

// Alloc reserves n words and returns the base address. Allocations are
// page-aligned: the paper's programs allocate large arrays, and page
// alignment keeps the sharing granularity analysis faithful.
func (s *Space) Alloc(n int) Addr {
	if n <= 0 {
		panic(fmt.Sprintf("mem: Alloc(%d)", n))
	}
	base := s.next
	pw := Addr(s.PageWords)
	if r := base % pw; r != 0 {
		base += pw - r
	}
	s.next = base + Addr(n)
	return base
}

// AllocUnaligned reserves n words with no alignment, packing allocations
// on shared pages — used to reproduce fragmentation/false-sharing layouts.
func (s *Space) AllocUnaligned(n int) Addr {
	if n <= 0 {
		panic(fmt.Sprintf("mem: AllocUnaligned(%d)", n))
	}
	base := s.next
	s.next = base + Addr(n)
	return base
}

// NumPages returns the number of pages spanned by the allocations so far.
func (s *Space) NumPages() int {
	return int((int64(s.next) + int64(s.PageWords) - 1) / int64(s.PageWords))
}

// PageOf returns the page holding address a.
func (s *Space) PageOf(a Addr) int { return int(int64(a) / int64(s.PageWords)) }

// PageBase returns the first address of page id.
func (s *Space) PageBase(id int) Addr { return Addr(id * s.PageWords) }
