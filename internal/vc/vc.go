// Package vc implements the vector timestamps and happens-before machinery
// of lazy release consistency: per-processor interval counters, vector
// clock algebra, and the causal order of a set of intervals (the order in
// which diffs must be applied).
package vc

import (
	"cmp"
	"fmt"
	"slices"
)

// VC is a vector timestamp: VC[i] is the index of the most recent interval
// of processor i whose updates are known.
type VC []int32

// New returns a zero vector clock for n processors.
func New(n int) VC { return make(VC, n) }

// Copy returns an independent copy.
func (v VC) Copy() VC {
	c := make(VC, len(v))
	copy(c, v)
	return c
}

// MaxWith raises each component of v to at least the corresponding
// component of o.
func (v VC) MaxWith(o VC) {
	for i, x := range o {
		if x > v[i] {
			v[i] = x
		}
	}
}

// Covers reports whether v[i] >= o[i] for all i: every interval known to o
// is known to v.
func (v VC) Covers(o VC) bool {
	for i, x := range o {
		if v[i] < x {
			return false
		}
	}
	return true
}

// Equal reports component-wise equality.
func (v VC) Equal(o VC) bool {
	for i, x := range o {
		if v[i] != x {
			return false
		}
	}
	return true
}

func (v VC) String() string { return fmt.Sprint([]int32(v)) }

// WireSize is the encoded size of the vector in bytes.
func (v VC) WireSize() int { return 4 * len(v) }

// Stamp identifies one interval of one processor together with the vector
// timestamp at the interval's end.
type Stamp struct {
	Proc     int
	Interval int32
	VC       *Sparse
}

// HappensBefore reports whether interval a causally precedes interval b.
// Same-processor intervals are ordered by index; cross-processor intervals
// by vector timestamp. (Interval t of proc p "is included in" a VC w when
// w[p] >= t, so a precedes b exactly when b's end-of-interval vector
// already covers a.)
func HappensBefore(a, b Stamp) bool {
	if a.Proc == b.Proc {
		return a.Interval < b.Interval
	}
	return b.VC.Get(a.Proc) >= a.Interval
}

// TopoSort orders stamps so that causally earlier intervals come first
// (the order diffs must be applied in). Concurrent intervals are ordered
// deterministically; in a data-race-free program their diffs touch
// disjoint words, so the tie-break cannot change the merged result.
// Repeats of a (proc, interval) must carry one vector and keep their input
// order.
//
// The stamps must come from one causal history: an interval's vector
// covers the vector of every interval that happens before it, and its own
// component is its interval index. So a predecessor's vector is covered
// and strictly smaller in the later interval's own component, and its sum
// is strictly smaller: sorting by the sum of the vector orders every
// causal pair, with no pair compared.
func TopoSort(stamps []Stamp) {
	in := slices.Clone(stamps)
	for k, i := range new(Sorter).Order(in) {
		stamps[k] = in[i]
	}
}

// Sorter computes TopoSort's order as a permutation, keeping its scratch so
// that sorting on every page miss allocates nothing.
type Sorter struct {
	keys  []sortKey
	order []int
}

// sortKey is one stamp's place in the order: the sum of its vector, then
// (proc, interval) among concurrent intervals, then its input index among
// repeats.
type sortKey struct {
	sum      int64
	proc     int
	interval int32
	i        int
}

// Order returns the indexes of stamps in TopoSort order, valid until the
// next call.
func (s *Sorter) Order(stamps []Stamp) []int {
	s.keys = slices.Grow(s.keys[:0], len(stamps))
	for i, st := range stamps {
		var sum int64
		for _, e := range st.VC.ents {
			sum += int64(e.x)
		}
		s.keys = append(s.keys, sortKey{sum, st.Proc, st.Interval, i})
	}
	slices.SortFunc(s.keys, func(a, b sortKey) int {
		return cmp.Or(cmp.Compare(a.sum, b.sum), cmp.Compare(a.proc, b.proc),
			cmp.Compare(a.interval, b.interval), cmp.Compare(a.i, b.i))
	})
	s.order = slices.Grow(s.order[:0], len(stamps))
	for _, k := range s.keys {
		s.order = append(s.order, k.i)
	}
	return s.order
}
