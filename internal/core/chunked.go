package core

// pageChunk is the allocation granule of per-page protocol state, in
// pages. Mirrors mem.TableChunk's role for the page table.
const pageChunk = 128

// chunked is a lazily-materialized fixed-size array of per-page protocol
// state. Nodes touch only a sliver of the address space at scale, so
// state is allocated a chunk at a time on first touch; untouched entries
// read as zero values through each(), and at() returns pointers that stay
// stable for the container's lifetime.
type chunked[T any] struct {
	n      int
	chunks [][]T
}

func newChunked[T any](n int) chunked[T] {
	return chunked[T]{n: n, chunks: make([][]T, (n+pageChunk-1)/pageChunk)}
}

// at returns a stable pointer to element pg, materializing its chunk.
func (c *chunked[T]) at(pg int) *T {
	ch := c.chunks[pg/pageChunk]
	if ch == nil {
		ch = make([]T, pageChunk)
		c.chunks[pg/pageChunk] = ch
	}
	return &ch[pg%pageChunk]
}

// each visits every element of every materialized chunk in index order,
// skipping untouched chunks (whose elements are zero values).
func (c *chunked[T]) each(fn func(pg int, t *T)) {
	for ci, ch := range c.chunks {
		if ch == nil {
			continue
		}
		base := ci * pageChunk
		for i := range ch {
			if pg := base + i; pg < c.n {
				fn(pg, &ch[i])
			}
		}
	}
}

// slab carves short runs of zeroed T out of pageChunk-sized blocks, so
// per-page vectors, use-tier page records and per-page and per-proc lists
// cost one allocation a block instead of one each. One live run pins its
// whole block: use it for state that lives as long as the node, never for
// per-message objects.
type slab[T any] struct{ free []T }

// take returns n fresh elements, capped so an append past them reallocates
// instead of running into the next run. A run longer than a block is the
// heap's.
func (s *slab[T]) take(n int) []T {
	if n > pageChunk {
		return make([]T, n)
	}
	if len(s.free) < n {
		s.free = make([]T, pageChunk)
	}
	run := s.free[:n:n]
	s.free = s.free[n:]
	return run
}

// lazy returns *p, pointing it at a fresh element of s first if it is nil.
func (s *slab[T]) lazy(p **T) *T {
	if *p == nil {
		*p = &s.take(1)[0]
	}
	return *p
}

// push appends v to a list that lives in s. The list starts in a 4-slot
// run; a full run of n moves to a fresh run of 2n while that fits a block,
// and past that append takes it to the heap. The outgrown run stays pinned
// with its block, which the doubling bounds at the list's final length.
func (s *slab[T]) push(run []T, v T) []T {
	if n := len(run); n == cap(run) && 2*n <= pageChunk {
		grown := s.take(max(4, 2*n))[:n]
		copy(grown, run)
		run = grown
	}
	return append(run, v)
}
