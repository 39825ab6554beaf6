package slab

import "slices"

// Free is a LIFO free list of recycled objects: the one recycling rule of
// the message and page paths. Each recycled type has one list per
// simulation, and its owner makes a new object only when the list is empty,
// so the list never holds more objects than were out of it at once: it needs
// no bound. It never zeroes what it holds. An owner that wants a stale
// reference to fail loudly clears the object before Put; one whose objects
// keep backings worth reusing leaves them. The zero value is an empty list.
type Free[T any] struct {
	items []T
}

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

// Put pushes x.
func (l *Free[T]) Put(x T) { l.items = append(l.items, x) }

// Len is the number of objects on the list.
func (l *Free[T]) Len() int { return len(l.items) }

// Holds reports whether x is on l, by a scan: for lifetime checks only.
func Holds[T comparable](l *Free[T], x T) bool { return slices.Contains(l.items, x) }
