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
// (a paper-size water-sp miss at 64 nodes orders up to 574 notices from 63
// writers, 54 from 28 in the mean), so Kahn's extraction runs over per-proc
// chains, reads each vector once, and touches per emission only the counts
// that emission changes: O(n·C) for n stamps in C chains, plus the sort
// that cuts the chains.
type Sorter struct {
	idx, order []int   // stamp indexes by (proc, interval, index); the result
	chains     [][]int // idx cut into one run per proc, emitted from the front
	procs      []int   // procs[c] is chain c's processor, ascending
	comp       []int32 // comp[i*C+c] is stamp i's vector component for procs[c]
	blocked    []int   // blocked[c] counts the other live heads that happen before chain c's; -1 once c is empty
}

// Order returns the indexes of stamps in TopoSort order, valid until the
// next call. Only a chain's head can be next, and another chain blocks it
// exactly when that chain's head (its smallest interval) does, so each step
// emits the first head in proc order that no head happens before — which
// assumes nothing about happens-before being transitive.
func (s *Sorter) Order(stamps []Stamp) []int {
	n := len(stamps)
	s.idx, s.order = slices.Grow(s.idx[:0], n), slices.Grow(s.order[:0], n)
	s.chains, s.procs = s.chains[:0], s.procs[:0]
	for i := range stamps {
		s.idx = append(s.idx, i)
	}
	slices.SortFunc(s.idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(stamps[a].Proc, stamps[b].Proc),
			cmp.Compare(stamps[a].Interval, stamps[b].Interval), cmp.Compare(a, b))
	})
	for lo, hi := 0, 0; lo < n; lo = hi {
		p := stamps[s.idx[lo]].Proc
		for hi = lo + 1; hi < n && stamps[s.idx[hi]].Proc == p; hi++ {
		}
		s.chains = append(s.chains, s.idx[lo:hi])
		s.procs = append(s.procs, p)
	}
	C := len(s.chains)
	s.comp = slices.Grow(s.comp[:0], n*C)[:n*C]
	for i := range stamps {
		s.gather(stamps[i].VC, s.comp[i*C:(i+1)*C])
	}
	s.blocked = slices.Grow(s.blocked[:0], C)[:C]
	for c := range s.chains {
		s.blocked[c] = s.blockers(stamps, c)
	}
	for len(s.order) < n {
		pick := slices.Index(s.blocked, 0)
		if pick < 0 {
			panic(fmt.Sprintf("vc: happens-before cycle among %d intervals", n))
		}
		ch := s.chains[pick]
		gone := stamps[ch[0]].Interval
		s.order = append(s.order, ch[0])
		ch = ch[1:]
		s.chains[pick] = ch
		// Chain pick's head is the only one that moved: every other live
		// head loses the old head as a blocker and may gain the new one.
		for c, h := range s.chains {
			if c == pick || len(h) == 0 {
				continue
			}
			x := s.comp[h[0]*C+pick]
			if x >= gone {
				s.blocked[c]--
			}
			if len(ch) > 0 && x >= stamps[ch[0]].Interval {
				s.blocked[c]++
			}
		}
		if len(ch) > 0 {
			s.blocked[pick] = s.blockers(stamps, pick)
		} else {
			s.blocked[pick] = -1
		}
	}
	return s.order
}

// gather writes v's components for the chain processors into row, in one
// two-pointer walk of v's pairs against the ascending procs (v == nil is
// the zero vector). HappensBefore(a, b) across chains is then
// row_b[chain of a] >= a.Interval.
func (s *Sorter) gather(v *Sparse, row []int32) {
	if v == nil {
		clear(row)
		return
	}
	j := 0
	for c, p := range s.procs {
		for j < len(v.ents) && int(v.ents[j].p) < p {
			j++
		}
		if j < len(v.ents) && int(v.ents[j].p) == p {
			row[c] = v.ents[j].x
		} else {
			row[c] = 0
		}
	}
}

// blockers counts the other live chains whose head happens before chain
// c's head.
func (s *Sorter) blockers(stamps []Stamp, c int) int {
	C := len(s.chains)
	row := s.comp[s.chains[c][0]*C:][:C]
	k := 0
	for q, h := range s.chains {
		if q != c && len(h) > 0 && row[q] >= stamps[h[0]].Interval {
			k++
		}
	}
	return k
}
