// Package slab carves short runs of zeroed elements out of shared blocks, so
// many small, long-lived lists and vectors cost one allocation a block
// instead of one each, and gives them one growth rule: a run doubles inside
// the slab while it fits a block, and past that grows on the heap. Chunks
// uses the same block as the granule of a sparse per-page array.
package slab

import "slices"

// Block is the slab's and the Chunks' allocation granule, in elements.
const Block = 128

// Slab is the zero-value-ready run allocator. One live run pins its whole
// block: use it for state that lives as long as its owner, never for
// per-message objects. The nil *Slab is the heap: Grow and Push on it are
// append's.
type Slab[T any] struct{ free []T }

// Take returns n fresh elements, capped so an append past them reallocates
// instead of running into the next run. A run longer than a block is the
// heap's.
func (s *Slab[T]) Take(n int) []T {
	if n > Block {
		return make([]T, n)
	}
	if len(s.free) < n {
		s.free = make([]T, Block)
	}
	run := s.free[:n:n]
	s.free = s.free[n:]
	return run
}

// Lazy returns *p, pointing it at a fresh element of s first if it is nil.
func (s *Slab[T]) Lazy(p **T) *T {
	if *p == nil {
		*p = &s.Take(1)[0]
	}
	return *p
}

// Grow extends run by k elements for the caller to fill. A run that is full
// moves to a fresh run of max(4, 2*cap, len+k) while that fits a block; past
// that, or on the nil slab, append grows it on the heap. The outgrown run
// stays pinned with its block, which the doubling bounds at the run's final
// length.
func (s *Slab[T]) Grow(run []T, k int) []T {
	n := len(run)
	if n+k <= cap(run) {
		return run[:n+k]
	}
	if c := max(4, 2*cap(run), n+k); s != nil && c <= Block {
		grown := s.Take(c)[:n+k]
		copy(grown, run)
		return grown
	}
	return slices.Grow(run, k)[:n+k]
}

// Push appends v to a list that lives in s (Grow by one).
func (s *Slab[T]) Push(run []T, v T) []T {
	run = s.Grow(run, 1)
	run[len(run)-1] = v
	return run
}

// Chunks is a sparse array indexed from 0 whose elements materialize a Block
// at a time on first touch, so an owner that references a sliver of a large
// index space (a node's pages at 1024 nodes) pays for that sliver. A pointer
// At returns stays valid for the array's lifetime: growing the block index
// never moves a block. The zero value is empty and grows on demand.
type Chunks[T any] struct{ blocks [][]T }

// NewChunks returns an array whose block index is sized for n elements up
// front; At still grows it past n.
func NewChunks[T any](n int) Chunks[T] {
	return Chunks[T]{blocks: make([][]T, (n+Block-1)/Block)}
}

// At returns a stable pointer to element i, materializing its block.
func (c *Chunks[T]) At(i int) *T {
	b := i / Block
	for b >= len(c.blocks) {
		c.blocks = append(c.blocks, nil)
	}
	if c.blocks[b] == nil {
		c.blocks[b] = make([]T, Block)
	}
	return &c.blocks[b][i%Block]
}

// Peek returns element i without materializing anything: nil when its block
// was never touched, so the element is T's zero value.
func (c *Chunks[T]) Peek(i int) *T {
	if b := i / Block; b < len(c.blocks) && c.blocks[b] != nil {
		return &c.blocks[b][i%Block]
	}
	return nil
}

// Each visits every element of every materialized block in index order.
// Untouched blocks are skipped; their elements are zero values, so a caller
// that ignores zero elements sees what a dense scan would show it.
func (c *Chunks[T]) Each(fn func(i int, t *T)) {
	for b, blk := range c.blocks {
		for j := range blk {
			fn(b*Block+j, &blk[j])
		}
	}
}
