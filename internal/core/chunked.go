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
