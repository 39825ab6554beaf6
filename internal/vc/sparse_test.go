package vc

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randTraceOp applies one random mutation to the paired dense/sparse
// vectors, mirroring how the protocols drive per-page vectors: point
// raises (write notices), point sets (own-interval advances), and merges
// with another vector (fetch responses).
func randTraceOp(rng *rand.Rand, n int, d VC, s *Sparse, od VC, os *Sparse) {
	switch rng.Intn(4) {
	case 0: // RaiseTo
		p, x := rng.Intn(n), int32(rng.Intn(8))
		if d[p] < x {
			d[p] = x
		}
		s.RaiseTo(p, x)
	case 1: // Set (including to zero: entry removal)
		p, x := rng.Intn(n), int32(rng.Intn(8))
		d[p] = x
		s.Set(p, x)
	case 2: // MaxWith the other vector
		d.MaxWith(od)
		s.MaxWith(os)
	case 3: // Set on the other vector
		p, x := rng.Intn(n), int32(rng.Intn(8))
		od[p] = x
		os.Set(p, x)
	}
}

// TestSparseMatchesDenseTrace drives a dense VC and a Sparse through the
// same random interval traces and checks every observable agrees at each
// step: components, covers in both directions, NNZ-derived wire size, and
// the materialized dense image.
func TestSparseMatchesDenseTrace(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		da, db := New(n), New(n)
		sa, sb := NewSparse(n), NewSparse(n)
		for step := 0; step < 60; step++ {
			randTraceOp(rng, n, da, sa, db, sb)
			if !sa.Dense(n).Equal(da) || !sb.Dense(n).Equal(db) {
				return false
			}
			if sa.Covers(sb) != da.Covers(db) || sb.Covers(sa) != db.Covers(da) {
				return false
			}
			nnz := 0
			for _, x := range da {
				if x != 0 {
					nnz++
				}
			}
			if sa.NNZ() != nnz || sa.WireSize() != SparseWireSize(n, nnz) {
				return false
			}
			for p := 0; p < n; p++ {
				if sa.Get(p) != da[p] {
					return false
				}
			}
		}
		// Copy independence.
		c := sa.Copy()
		sa.Set(0, 99)
		return c.Get(0) != 99 || da[0] == 99
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseWireSizeCrossover(t *testing.T) {
	// Empty vector: 4 bytes either way is the count header.
	if got := NewSparse(1024).WireSize(); got != 4 {
		t.Fatalf("empty wire size = %d, want 4", got)
	}
	// One writer in a 1024-node machine: 12 bytes, not 4096.
	s := NewSparse(1024)
	s.Set(7, 3)
	if got := s.WireSize(); got != 12 {
		t.Fatalf("1-writer wire size = %d, want 12", got)
	}
	// Fully dense: capped at the dense encoding.
	d := NewSparse(8)
	for p := 0; p < 8; p++ {
		d.Set(p, int32(p+1))
	}
	if got := d.WireSize(); got != 32 {
		t.Fatalf("dense-8 wire size = %d, want 32", got)
	}
	// nil behaves as an empty vector.
	var nilVec *Sparse
	if nilVec.WireSize() != 4 || nilVec.Get(3) != 0 || !nilVec.Covers(nil) {
		t.Fatal("nil Sparse read methods wrong")
	}
}

func TestSparseFromRoundTrip(t *testing.T) {
	v := VC{0, 3, 0, 0, 9, 0, 1, 0}
	s := SparseFrom(v)
	if !s.Dense(len(v)).Equal(v) {
		t.Fatalf("round trip = %v, want %v", s.Dense(len(v)), v)
	}
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", s.NNZ())
	}
}

// mkSparse builds a Sparse from a dense image through Set, in descending
// proc order so every insertion lands at the front.
func mkSparse(v VC) *Sparse {
	s := NewSparse(len(v))
	for p := len(v) - 1; p >= 0; p-- {
		s.Set(p, v[p])
	}
	return s
}

// checkAgainstDense compares every observable of s with the dense image d.
// Its NNZ and wire-size checks are what hold s to storing no zero pair.
func checkAgainstDense(t *testing.T, what string, s *Sparse, d VC) {
	t.Helper()
	if got := s.Dense(len(d)); !got.Equal(d) || !d.Equal(got) {
		t.Fatalf("%s: sparse %v, dense %v", what, got, d)
	}
	nnz, last := 0, -1
	for p, x := range d {
		if s.Get(p) != x {
			t.Fatalf("%s: Get(%d) = %d, want %d", what, p, s.Get(p), x)
		}
		if x != 0 {
			nnz++
		}
	}
	if s.NNZ() != nnz || s.WireSize() != SparseWireSize(len(d), nnz) {
		t.Fatalf("%s: NNZ %d wire %d, want %d and %d", what, s.NNZ(), s.WireSize(), nnz, SparseWireSize(len(d), nnz))
	}
	s.Each(func(p int, x int32) {
		if p <= last || x == 0 || x != d[p] {
			t.Fatalf("%s: Each visited (%d, %d) after proc %d; dense %v", what, p, x, last, d)
		}
		last = p
	})
}

// TestSparseLayoutEdges walks the places where the representation changes
// shape: the first component (inline), the second (first heap growth), and
// removals of either.
func TestSparseLayoutEdges(t *testing.T) {
	s, d := NewSparse(8), New(8)
	set := func(p int, x int32) {
		t.Helper()
		s.Set(p, x)
		d[p] = x
		checkAgainstDense(t, fmt.Sprintf("after Set(%d, %d)", p, x), s, d)
	}
	set(5, 1) // inline
	set(5, 4) // overwrite in place
	set(2, 3) // second component, inserted in front: inline -> heap
	set(7, 2) // third, appended
	set(5, 0) // remove the middle one
	set(2, 0) // remove the front one
	set(7, 0) // remove the last one: empty again
	set(7, 0) // removing an absent component is a no-op
	set(3, 6) // and the vector is still usable
	set(3, 0) // remove the only component
	set(0, 1)
	set(1, 1)

	// A copy of a one-component vector must not share the source's slot.
	src, srcD := NewSparse(8), New(8)
	src.Set(5, 1)
	srcD[5] = 1
	c, cD := src.Copy(), srcD.Copy()
	src.Set(5, 9)
	srcD[5] = 9
	checkAgainstDense(t, "copy after source changed", c, cD)
	c.Set(5, 7)
	c.Set(1, 2) // growth in the copy
	cD[5], cD[1] = 7, 2
	checkAgainstDense(t, "source after copy changed", src, srcD)
	checkAgainstDense(t, "copy after copy changed", c, cD)
	if e := NewSparse(8).Copy(); e == nil || e.NNZ() != 0 || e.Dim() != 8 {
		t.Fatalf("copy of an empty vector = %v", e)
	}
	if (*Sparse)(nil).Copy() != nil {
		t.Fatal("copy of nil is not nil")
	}
}

// TestCopyFromKeepsTheRun: CopyFrom refills a destination in the run its
// pairs grew into, so copying a vector of as many pairs or fewer into the
// same destination again allocates nothing, and the copy holds pairs of its
// own: writing the source afterwards leaves it unchanged.
func TestCopyFromKeepsTheRun(t *testing.T) {
	// Source and destination are Sparse runs.
	t.Run("sparse", func(t *testing.T) {
		const n = 16
		big, small := New(n), New(n)
		for p := 0; p < n; p += 3 {
			big[p] = int32(p + 1)
		}
		small[4] = 2
		small[9] = 5
		sBig, sSmall := mkSparse(big), mkSparse(small)
		dst := new(Sparse)
		dst.CopyFrom(sBig) // grows dst's run once
		for name, src := range map[string]*Sparse{"an equal-size": sBig, "a smaller": sSmall} {
			if a := testing.AllocsPerRun(100, func() { dst.CopyFrom(src) }); a != 0 {
				t.Errorf("copying %s vector into a grown destination allocates %v times, want 0", name, a)
			}
		}
		for _, c := range []struct {
			src *Sparse
			d   VC
		}{{sSmall, small}, {sBig, big}} {
			dst.CopyFrom(c.src)
			want := c.d.Copy()
			for p := 0; p < n; p++ {
				c.src.Set(p, int32(p+7))
			}
			checkAgainstDense(t, "copy after its source was rewritten", dst, want)
		}
		dst.CopyFrom(nil)
		if dst.Dim() != 0 || dst.NNZ() != 0 {
			t.Errorf("copy of nil reads %v of dimension %d, want the absent vector", dst, dst.Dim())
		}
	})
}

// TestSparseMergesMatchDense checks MaxWith and Covers against the dense
// algebra for every shape the two-pointer merges distinguish.
func TestSparseMergesMatchDense(t *testing.T) {
	cases := []struct {
		name string
		a, b VC // b nil: the nil operand
	}{
		{"nil operand", VC{0, 2, 0, 0, 5, 0}, nil},
		{"both empty", VC{0, 0, 0, 0, 0, 0}, VC{0, 0, 0, 0, 0, 0}},
		{"into empty", VC{0, 0, 0, 0, 0, 0}, VC{0, 3, 0, 1, 0, 0}},
		{"empty operand", VC{0, 3, 0, 1, 0, 0}, VC{0, 0, 0, 0, 0, 0}},
		{"one into one, same proc", VC{0, 0, 4, 0, 0, 0}, VC{0, 0, 6, 0, 0, 0}},
		{"one into one, in front", VC{0, 0, 4, 0, 0, 0}, VC{1, 0, 0, 0, 0, 0}},
		{"one into one, behind", VC{0, 0, 4, 0, 0, 0}, VC{0, 0, 0, 0, 0, 2}},
		{"disjoint, all in front", VC{0, 0, 0, 7, 7, 7}, VC{1, 2, 3, 0, 0, 0}},
		{"disjoint, all behind", VC{1, 2, 3, 0, 0, 0}, VC{0, 0, 0, 7, 7, 7}},
		{"interleaved", VC{1, 0, 3, 0, 5, 0}, VC{0, 2, 0, 4, 0, 6}},
		{"interleaved with shared", VC{1, 0, 3, 4, 5, 0}, VC{0, 2, 9, 1, 0, 6}},
		{"covered", VC{3, 3, 3, 3, 3, 3}, VC{0, 1, 0, 3, 0, 2}},
		{"covers but for one", VC{3, 3, 3, 3, 3, 3}, VC{0, 1, 0, 4, 0, 2}},
	}
	for _, tc := range cases {
		sa := mkSparse(tc.a)
		var sb *Sparse
		db := New(len(tc.a))
		if tc.b != nil {
			sb, db = mkSparse(tc.b), tc.b.Copy()
		}
		da := tc.a.Copy()
		if got, want := sa.Covers(sb), da.Covers(db); got != want {
			t.Fatalf("%s: a.Covers(b) = %v, want %v", tc.name, got, want)
		}
		if got, want := sb.Covers(sa), db.Covers(da); got != want {
			t.Fatalf("%s: b.Covers(a) = %v, want %v", tc.name, got, want)
		}
		sa.MaxWith(sb)
		da.MaxWith(db)
		checkAgainstDense(t, tc.name+": a after MaxWith", sa, da)
		if sb != nil {
			checkAgainstDense(t, tc.name+": b after a.MaxWith(b)", sb, db)
			if !sa.Covers(sb) {
				t.Fatalf("%s: the merge does not cover its operand", tc.name)
			}
		}
	}
}

// FuzzSparseVsDense applies an op-sequence byte string to a pair of Sparse
// vectors and their dense images and compares every observable after each
// step. Byte 0 picks the dimension (low four bits) and whether both grow in
// one shared Arena (0x40; else on the heap, the nil arena): there a run that
// spilled into its neighbour's pairs shows as the other vector changing. Its
// other bits mean nothing. Each following triple is (op, proc, value).
func FuzzSparseVsDense(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 0, 5, 1, 0, 2, 3, 0, 5, 0, 0, 2, 0}) // inline, grow in front, remove both
	f.Add([]byte{3, 2, 1, 4, 2, 3, 5, 3, 0, 0, 4, 0, 0}) // interleaved merge, both directions
	f.Add([]byte{0x86, 0, 2, 7, 2, 5, 1, 3, 0, 0, 5, 0, 0, 0, 2, 1})
	f.Add([]byte{9, 5, 0, 0, 0, 4, 4, 6, 0, 0, 1, 4, 2, 6, 0, 0, 7, 0, 0})
	// One arena: a and b grow 1 -> 4 -> 8 pairs in turn, so their runs
	// alternate in the block, then each merges the other in.
	f.Add([]byte{0x46, 0, 0, 1, 2, 1, 1, 0, 2, 1, 2, 3, 1, 0, 4, 1, 2, 5, 1, 1, 6, 2, 2, 7, 1,
		0, 7, 3, 2, 0, 2, 3, 0, 0, 4, 0, 0})
	// Copies into a reused destination, which grows, then takes a smaller
	// vector and grows again.
	f.Add([]byte{7, 0, 1, 3, 0, 4, 2, 0, 6, 1, 8, 2, 0, 8, 0, 0, 7, 4, 0, 8, 3, 0, 0, 5, 5, 8, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		n := 2
		var in *Arena // nil: the heap
		if len(ops) > 0 {
			n = 2 + int(ops[0]&0x0f)
			if ops[0]&0x40 != 0 {
				in = new(Arena)
			}
			ops = ops[1:]
		}
		da, db := New(n), New(n)
		sa, sb := NewSparse(n), NewSparse(n)
		spare := new(Sparse)
		for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
			p, x := int(ops[1])%n, int32(ops[2]%8)
			switch ops[0] % 9 {
			case 0:
				in.Set(sa, p, x)
				da[p] = x
			case 1:
				in.RaiseTo(sa, p, x)
				da[p] = max(da[p], x)
			case 2:
				in.Set(sb, p, x)
				db[p] = x
			case 3:
				in.MaxWith(sa, sb)
				da.MaxWith(db)
			case 4:
				in.MaxWith(sb, sa)
				db.MaxWith(da)
			case 5: // carry on with a copy; the original takes a write the copy must not see
				old := sa
				sa = sa.Copy()
				old.Set(p, x+1)
			case 8: // the same, copying into a reused destination: the previous a
				spare.CopyFrom(sa)
				sa, spare = spare, sa
				spare.Set(p, x+1)
			case 6:
				in.MaxWith(sa, nil)
				if !sa.Covers(nil) || (*Sparse)(nil).Covers(sa) != New(n).Covers(da) {
					t.Fatalf("step %d: nil operand mishandled", step)
				}
			case 7:
				in.Set(sa, p, 0)
				da[p] = 0
			}
			what := fmt.Sprintf("step %d (op %d, proc %d, value %d)", step, ops[0]%9, p, x)
			checkAgainstDense(t, what+": a", sa, da)
			checkAgainstDense(t, what+": b", sb, db)
			if sa.Covers(sb) != da.Covers(db) || sb.Covers(sa) != db.Covers(da) {
				t.Fatalf("%s: Covers disagrees with dense: a=%v b=%v", what, da, db)
			}
		}
	})
}
