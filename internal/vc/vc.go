// Package vc implements the vector timestamps and happens-before machinery
// of lazy release consistency: per-processor interval counters, vector
// clock algebra, and topological ordering of causally related intervals
// (the order in which diffs must be applied).
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

// Before reports whether v happens strictly before o: o covers v and they
// differ.
func (v VC) Before(o VC) bool {
	return o.Covers(v) && !v.Covers(o)
}

// Concurrent reports whether neither vector covers the other.
func (v VC) Concurrent(o VC) bool {
	return !v.Covers(o) && !o.Covers(v)
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
// deterministically by (proc, interval); in a data-race-free program their
// diffs touch disjoint words, so the tie-break cannot change the merged
// result. Repeats of a (proc, interval) must carry one vector and keep
// their input order.
func TopoSort(stamps []Stamp) {
	in := slices.Clone(stamps)
	for k, i := range new(Sorter).Order(in) {
		stamps[k] = in[i]
	}
}

// Sorter computes TopoSort's order as a permutation, keeping its scratch so
// that sorting on every page miss allocates nothing. The sets are not small
// (a water-sp miss orders up to 126 notices): Kahn's extraction runs over
// per-proc chains, not over all pairs.
type Sorter struct {
	idx, order []int   // stamp indexes by (proc, interval, index); the result
	chains     [][]int // idx cut into one run per proc; emitted stamps and empty runs are dropped
}

// Order returns the indexes of stamps in TopoSort order, valid until the
// next call. Only a chain's head can be next, and another chain blocks it
// exactly when that chain's head (its smallest interval) does, so each step
// emits the first head in proc order that no head happens before — which
// assumes nothing about happens-before being transitive.
func (s *Sorter) Order(stamps []Stamp) []int {
	s.idx, s.order, s.chains = s.idx[:0], s.order[:0], s.chains[:0]
	for i := range stamps {
		s.idx = append(s.idx, i)
	}
	slices.SortFunc(s.idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(stamps[a].Proc, stamps[b].Proc),
			cmp.Compare(stamps[a].Interval, stamps[b].Interval), cmp.Compare(a, b))
	})
	for lo, hi := 0, 0; lo < len(s.idx); lo = hi {
		for hi = lo + 1; hi < len(s.idx) && stamps[s.idx[hi]].Proc == stamps[s.idx[lo]].Proc; hi++ {
		}
		s.chains = append(s.chains, s.idx[lo:hi])
	}
	for len(s.chains) > 0 {
		pick := -1
	heads:
		for c, ch := range s.chains {
			for _, q := range s.chains {
				if HappensBefore(stamps[q[0]], stamps[ch[0]]) {
					continue heads
				}
			}
			pick = c
			break
		}
		if pick < 0 {
			panic(fmt.Sprintf("vc: happens-before cycle among %d intervals", len(stamps)))
		}
		s.order = append(s.order, s.chains[pick][0])
		if s.chains[pick] = s.chains[pick][1:]; len(s.chains[pick]) == 0 {
			s.chains = slices.Delete(s.chains, pick, pick+1)
		}
	}
	return s.order
}
