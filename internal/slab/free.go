package slab

import "slices"

// Free is a LIFO free list of recycled objects: the one recycling rule of
// the message and page paths. It never zeroes what it holds. An owner that
// wants a stale reference to fail loudly clears the object before Put; one
// whose objects keep backings worth reusing leaves them. A list is touched
// only from its owner's lane. The zero value is an unbounded list.
type Free[T any] struct {
	items []T
	bound int
}

// NewFree returns a list that drops every Put past bound objects. Its
// backing is sized to the bound on the first Put, so it never grows.
func NewFree[T any](bound int) Free[T] { return Free[T]{bound: bound} }

// Take pops the most recently put object; ok is false on an empty list.
func (l *Free[T]) Take() (x T, ok bool) {
	n := len(l.items)
	if n == 0 {
		return x, false
	}
	x, l.items[n-1] = l.items[n-1], x // the backing keeps no reference
	l.items = l.items[:n-1]
	return x, true
}

// Put pushes x, unless the list is bounded and full.
func (l *Free[T]) Put(x T) {
	if l.bound > 0 && len(l.items) >= l.bound {
		return
	}
	if l.bound > 0 && l.items == nil {
		l.items = make([]T, 0, l.bound)
	}
	l.items = append(l.items, x)
}

// Len is the number of objects on the list.
func (l *Free[T]) Len() int { return len(l.items) }

// Holds reports whether x is on l, by a scan: for lifetime checks only.
func Holds[T comparable](l *Free[T], x T) bool { return slices.Contains(l.items, x) }
