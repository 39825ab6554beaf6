package mem

import (
	"slices"

	"gosvm/internal/slab"
)

// Pool recycles page frames (twins, fetch snapshots, dropped copies) and,
// for ComputeDiffPooled and Release only, diff value backings: the
// protocols compute exact-size diffs and never touch that list. A
// simulation owns one Pool, which every node draws from and returns to
// (DESIGN §9), and its kernel is single-threaded: no locking.
//
// Pooling invariants:
//   - A buffer handed out by GetPage/Clone/getBuf is one of two kinds. A
//     private one (a twin, a written copy, a homeless protocol's fetch
//     snapshot) has exactly one owner, which may return it at most once. A
//     shared one is wrapped in a Frame and owned by the frame's reference
//     count: it has any number of read-only holders, and the one whose
//     Release drops the last reference returns it.
//   - Returned buffers are never zeroed: every consumer overwrites the
//     full length it uses (twins and snapshots are copied over, diff
//     backings are filled by ComputeDiffPooled before any run aliases them).
//   - Releasing is optional: a buffer that is not returned falls to the Go
//     GC like any other slice.
type Pool struct {
	pageWords int
	pages     slab.Free[[]float64] // page frames, len == pageWords
	bufs      slab.Free[[]float64] // diff value backings, cap <= pageWords
}

// NewPool returns a pool for pages of pageWords words.
func NewPool(pageWords int) *Pool {
	return &Pool{pageWords: pageWords}
}

// Free returns the lengths of the two free lists.
func (p *Pool) Free() (frames, backings int) { return p.pages.Len(), p.bufs.Len() }

// GetPage returns a page-sized buffer with unspecified contents.
func (p *Pool) GetPage() []float64 {
	if b, ok := p.pages.Take(); ok {
		return b
	}
	return make([]float64, p.pageWords)
}

// Clone returns a copy of the page src in a recycled buffer, or, when none
// is free (and for a nil pool), in a new one allocated without zeroing.
func (p *Pool) Clone(src []float64) []float64 {
	if p == nil || p.pages.Len() == 0 {
		return slices.Clone(src)
	}
	return append(p.GetPage()[:0], src...)
}

// PutPage returns a page-sized buffer to the pool.
func (p *Pool) PutPage(b []float64) {
	if p == nil || len(b) != p.pageWords {
		return
	}
	p.pages.Put(b)
}

// getBuf returns a buffer of length n (n <= pageWords) with unspecified
// contents, reusing a previous diff backing when one is free.
func (p *Pool) getBuf(n int) []float64 {
	if b, ok := p.bufs.Take(); ok {
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this diff; drop it and allocate page-capacity so
		// the replacement fits every future diff.
	}
	return make([]float64, n, p.pageWords)
}

// putBuf returns a diff backing to the pool.
func (p *Pool) putBuf(b []float64) {
	if p == nil || cap(b) == 0 || cap(b) > p.pageWords {
		return
	}
	p.bufs.Put(b)
}
