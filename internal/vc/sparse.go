package vc

import (
	"fmt"

	"gosvm/internal/slab"
)

// Sparse is a vector timestamp over n processors that stores only its
// non-zero components (interval indices, never negative), as one slice of
// (proc, value) pairs sorted by proc. Per-page vectors in the coherence
// protocols are touched by O(active writers) processors, not O(n), so at
// large machine sizes this makes write-notice records and piggybacked
// timestamps cost O(writers). No pair ever holds zero: setting a component
// to zero removes its pair, and only non-zero pairs are added, so the pair
// count is the number of non-zero components.
//
// The first pair lives inline in the struct, so a single-writer vector is
// one object. That makes a set Sparse self-referential: never copy one by
// value, or the copy's pair slice aliases the source's slot. That holds for
// a vector held by value inside a message too: fill it in place with
// CopyFrom, and read it through a pointer. Copy returns a copy of its own.
//
// Pairs past the first grow on the heap (Set, RaiseTo, MaxWith) or, for a
// vector that lives as long as its owner, in the owner's Arena (the same
// three methods on Arena): one growth rule, whose nil arena is the heap.
//
// Construct with NewSparse or SparseFrom, or Init a zeroed one in place.
// Read methods (Get, Covers, NNZ, WireSize, Dense) tolerate a nil
// receiver, which behaves as an all-zero vector of unknown dimension.
type Sparse struct {
	ents []pair  // non-zero components by ascending proc: nil, one[:k], or a grown run
	one  [1]pair // inline backing for the first component
	n    int32   // dimension (number of processors)
}

type pair struct{ p, x int32 }

// NewSparse returns an all-zero sparse vector for n processors.
func NewSparse(n int) *Sparse { return new(Sparse).Init(n) }

// Init resets s in place to the all-zero vector for n processors and
// returns it: the constructor for vectors that live inside a larger
// allocation. A run s's pairs grew into is kept for them to grow into
// again, so a vector its owner drops and reinitialises (Init(0) is the
// absent vector, Dim 0) pins no second run in an Arena.
func (s *Sparse) Init(n int) *Sparse {
	*s = Sparse{ents: s.ents[:0], n: int32(n)}
	return s
}

// SparseFrom returns a sparse copy of a dense vector.
func SparseFrom(v VC) *Sparse {
	s := NewSparse(len(v))
	nnz := 0
	for _, x := range v {
		if x != 0 {
			nnz++
		}
	}
	if nnz > 1 {
		s.ents = make([]pair, 0, nnz)
	}
	for p, x := range v {
		if x != 0 {
			s.Set(p, x)
		}
	}
	return s
}

// Dim returns the dimension the vector was created with (0 for nil).
func (s *Sparse) Dim() int {
	if s == nil {
		return 0
	}
	return int(s.n)
}

// search returns the position of the first pair with proc >= p, and
// whether that pair is p's. Hand-rolled: it runs once per write notice,
// and slices.BinarySearchFunc's indirect compare doubles its cost.
func (s *Sparse) search(p int) (int, bool) {
	lo, hi := 0, len(s.ents)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); int(s.ents[m].p) < p {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.ents) && int(s.ents[lo].p) == p
}

// Get returns component p (0 when absent or s is nil).
func (s *Sparse) Get(p int) int32 {
	if s == nil {
		return 0
	}
	if i, found := s.search(p); found {
		return s.ents[i].x
	}
	return 0
}

// Arena is the storage the long-lived vectors of one owner grow their pairs
// in: a vector's pairs past the inline first move to runs carved from
// shared blocks, doubling as slab.Slab.Grow does, so growing a vector costs
// no allocation of its own. A run is never handed back: an owner that drops
// a vector reinitialises it in place (Init) rather than making a new one.
// The nil *Arena is the heap; Sparse's own Set, RaiseTo and MaxWith grow
// there.
type Arena slab.Slab[pair]

// grow extends s.ents by k pairs for the caller to fill, starting out in
// the inline slot.
func (a *Arena) grow(s *Sparse, k int) {
	if s.ents == nil {
		s.ents = s.one[:0]
	}
	s.ents = (*slab.Slab[pair])(a).Grow(s.ents, k)
}

// insert puts component p, absent from s, at position i (search's).
func (a *Arena) insert(s *Sparse, i, p int, x int32) {
	a.grow(s, 1)
	copy(s.ents[i+1:], s.ents[i:])
	s.ents[i] = pair{int32(p), x}
}

// Set assigns component p of s, growing s in a. Setting zero removes the
// entry.
func (a *Arena) Set(s *Sparse, p int, x int32) {
	switch i, found := s.search(p); {
	case found && x == 0:
		s.ents = append(s.ents[:i], s.ents[i+1:]...)
	case found:
		s.ents[i].x = x
	case x != 0:
		a.insert(s, i, p, x)
	}
}

// RaiseTo raises component p of s to at least x, growing s in a, with one
// search.
func (a *Arena) RaiseTo(s *Sparse, p int, x int32) {
	switch i, found := s.search(p); {
	case found:
		s.ents[i].x = max(s.ents[i].x, x)
	case x > 0:
		a.insert(s, i, p, x)
	}
}

// MaxWith raises each component of s to at least the corresponding
// component of o (which may be nil), growing s in a: one two-pointer pass
// raises the components both hold and counts the ones s lacks, and a
// second, run from the back, merges those in place.
func (a *Arena) MaxWith(s, o *Sparse) {
	if o == nil {
		return
	}
	i, add := 0, 0
	for _, e := range o.ents {
		for i < len(s.ents) && s.ents[i].p < e.p {
			i++
		}
		if i == len(s.ents) || s.ents[i].p != e.p {
			add++
		} else if s.ents[i].x < e.x {
			s.ents[i].x = e.x
		}
	}
	if add == 0 {
		return
	}
	i, j := len(s.ents)-1, len(o.ents)-1
	a.grow(s, add)
	// s.ents[i+1..k] is the gap still to fill: k-i components of o[..j]
	// are missing from s[..i], so j cannot run out before the gap closes.
	for k := len(s.ents) - 1; k > i; k-- {
		if i >= 0 && s.ents[i].p >= o.ents[j].p {
			if s.ents[i].p == o.ents[j].p {
				j--
			}
			s.ents[k] = s.ents[i]
			i--
		} else {
			s.ents[k] = o.ents[j]
			j--
		}
	}
}

// Set assigns component p, growing on the heap. Setting zero removes the
// entry.
func (s *Sparse) Set(p int, x int32) { (*Arena)(nil).Set(s, p, x) }

// RaiseTo raises component p to at least x, growing on the heap.
func (s *Sparse) RaiseTo(p int, x int32) { (*Arena)(nil).RaiseTo(s, p, x) }

// MaxWith raises each component of s to at least the corresponding
// component of o (which may be nil), growing on the heap.
func (s *Sparse) MaxWith(o *Sparse) { (*Arena)(nil).MaxWith(s, o) }

// Covers reports whether s[i] >= o[i] for all i. Both sides may be nil.
func (s *Sparse) Covers(o *Sparse) bool {
	if o == nil {
		return true
	}
	var have []pair
	if s != nil {
		have = s.ents
	}
	i := 0
	for _, e := range o.ents {
		for i < len(have) && have[i].p < e.p {
			i++
		}
		if i == len(have) || have[i].p != e.p || have[i].x < e.x {
			return false
		}
	}
	return true
}

// Copy returns an independent copy (nil copies to nil), an object of its
// own; the protocols copy into vectors they hold with CopyFrom instead.
func (s *Sparse) Copy() *Sparse {
	if s == nil {
		return nil
	}
	c := new(Sparse)
	c.CopyFrom(s)
	return c
}

// CopyFrom makes s an independent copy of o, in place: the snapshot a
// message holds by value takes no object of its own, and a one-writer
// vector no storage beyond s. As Init does, it keeps the run s's pairs grew
// into and copies o's pairs into it, so a vector refilled by CopyFrom
// allocates only when o has more pairs than s ever held; no pair of s is
// left aliased to o. A nil o leaves s the all-zero vector of unknown
// dimension (Dim 0), which reads as nil does.
func (s *Sparse) CopyFrom(o *Sparse) {
	*s = Sparse{ents: s.ents[:0]}
	if o == nil {
		return
	}
	s.n = o.n
	if len(o.ents) > 0 {
		if s.ents == nil {
			s.ents = s.one[:0]
		}
		s.ents = append(s.ents, o.ents...)
	}
}

// NNZ returns the number of non-zero components.
func (s *Sparse) NNZ() int {
	if s == nil {
		return 0
	}
	return len(s.ents)
}

// Dense materializes the vector as a dense VC of dimension n.
func (s *Sparse) Dense(n int) VC {
	v := New(n)
	s.Each(func(p int, x int32) { v[p] = x })
	return v
}

// Each calls f for every non-zero component in increasing proc order.
func (s *Sparse) Each(f func(p int, x int32)) {
	if s == nil {
		return
	}
	for _, e := range s.ents {
		f(int(e.p), e.x)
	}
}

// WireSize is the encoded size of the vector in bytes: the cheaper of the
// dense encoding (4 bytes per component) and a sparse (proc, value) pair
// list with a 4-byte count.
func (s *Sparse) WireSize() int {
	if s == nil {
		return 4
	}
	return SparseWireSize(int(s.n), s.NNZ())
}

// SparseWireSize is the wire-size model shared by every vector-timestamp
// encoding: min(dense, pair-list) for dimension n with nnz non-zero
// components.
func SparseWireSize(n, nnz int) int {
	dense := 4 * n
	pairs := 4 + 8*nnz
	if pairs < dense {
		return pairs
	}
	return dense
}

func (s *Sparse) String() string {
	if s == nil {
		return "{}"
	}
	out := "{"
	first := true
	s.Each(func(p int, x int32) {
		if !first {
			out += " "
		}
		first = false
		out += fmt.Sprintf("%d:%d", p, x)
	})
	return out + "}"
}
