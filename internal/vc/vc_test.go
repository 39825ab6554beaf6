package vc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCoversAndBefore(t *testing.T) {
	a := VC{1, 2, 3}
	b := VC{1, 2, 3}
	c := VC{2, 2, 3}
	d := VC{0, 5, 0}
	if !a.Covers(b) || !b.Covers(a) || !a.Equal(b) {
		t.Fatal("equal vectors must cover each other")
	}
	if !c.Covers(a) || a.Covers(c) {
		t.Fatal("c strictly above a")
	}
	if !a.Before(c) || c.Before(a) {
		t.Fatal("Before wrong")
	}
	if !a.Concurrent(d) || !d.Concurrent(a) {
		t.Fatal("a and d are concurrent")
	}
}

func TestMaxWith(t *testing.T) {
	a := VC{1, 5, 0}
	a.MaxWith(VC{3, 2, 2})
	want := VC{3, 5, 2}
	if !a.Equal(want) {
		t.Fatalf("MaxWith = %v, want %v", a, want)
	}
}

func TestHappensBeforeSameProc(t *testing.T) {
	a := Stamp{Proc: 1, Interval: 2, VC: SparseFrom(VC{0, 2, 0})}
	b := Stamp{Proc: 1, Interval: 5, VC: SparseFrom(VC{0, 5, 0})}
	if !HappensBefore(a, b) || HappensBefore(b, a) {
		t.Fatal("same-proc interval order wrong")
	}
}

func TestHappensBeforeCrossProc(t *testing.T) {
	// Proc 0 interval 3 ended with VC {3,0}; proc 1 later acquired from
	// proc 0 so its interval 2 ended with VC {3,2}.
	a := Stamp{Proc: 0, Interval: 3, VC: SparseFrom(VC{3, 0})}
	b := Stamp{Proc: 1, Interval: 2, VC: SparseFrom(VC{3, 2})}
	if !HappensBefore(a, b) {
		t.Fatal("a should precede b")
	}
	if HappensBefore(b, a) {
		t.Fatal("b must not precede a")
	}
	// Concurrent intervals.
	c := Stamp{Proc: 0, Interval: 4, VC: SparseFrom(VC{4, 0})}
	d := Stamp{Proc: 1, Interval: 1, VC: SparseFrom(VC{0, 1})}
	if HappensBefore(c, d) || HappensBefore(d, c) {
		t.Fatal("c and d are concurrent")
	}
}

func TestTopoSortChain(t *testing.T) {
	// A causal chain 0:1 -> 1:1 -> 0:2 presented in reverse.
	s := []Stamp{
		{Proc: 0, Interval: 2, VC: SparseFrom(VC{2, 1})},
		{Proc: 1, Interval: 1, VC: SparseFrom(VC{1, 1})},
		{Proc: 0, Interval: 1, VC: SparseFrom(VC{1, 0})},
	}
	TopoSort(s)
	for i := 0; i < len(s); i++ {
		for j := i + 1; j < len(s); j++ {
			if HappensBefore(s[j], s[i]) {
				t.Fatalf("order violates happens-before: %v before %v", s[i], s[j])
			}
		}
	}
	if s[0].Proc != 0 || s[0].Interval != 1 {
		t.Fatalf("chain head wrong: %v", s)
	}
	if s[2].Proc != 0 || s[2].Interval != 2 {
		t.Fatalf("chain tail wrong: %v", s)
	}
}

func TestTopoSortDeterministicTieBreak(t *testing.T) {
	mk := func() []Stamp {
		return []Stamp{
			{Proc: 2, Interval: 1, VC: SparseFrom(VC{0, 0, 1})},
			{Proc: 0, Interval: 1, VC: SparseFrom(VC{1, 0, 0})},
			{Proc: 1, Interval: 1, VC: SparseFrom(VC{0, 1, 0})},
		}
	}
	a, b := mk(), mk()
	TopoSort(a)
	TopoSort(b)
	for i := range a {
		if a[i].Proc != b[i].Proc {
			t.Fatal("tie-break not deterministic")
		}
	}
	if a[0].Proc != 0 || a[1].Proc != 1 || a[2].Proc != 2 {
		t.Fatalf("concurrent tie-break should order by proc: %v", a)
	}
}

// Property: TopoSort never places an interval before one of its causal
// predecessors, for randomly generated causal histories.
func TestTopoSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nproc := rng.Intn(4) + 2
		// Simulate a random causal history: each proc advances through
		// intervals; at each step a proc may acquire from another,
		// merging clocks.
		clocks := make([]VC, nproc)
		for i := range clocks {
			clocks[i] = New(nproc)
		}
		var stamps []Stamp
		for step := 0; step < 20; step++ {
			p := rng.Intn(nproc)
			if rng.Intn(2) == 0 {
				q := rng.Intn(nproc)
				clocks[p].MaxWith(clocks[q])
			}
			clocks[p][p]++
			stamps = append(stamps, Stamp{Proc: p, Interval: clocks[p][p], VC: SparseFrom(clocks[p])})
		}
		rng.Shuffle(len(stamps), func(i, j int) { stamps[i], stamps[j] = stamps[j], stamps[i] })
		TopoSort(stamps)
		for i := 0; i < len(stamps); i++ {
			for j := i + 1; j < len(stamps); j++ {
				if HappensBefore(stamps[j], stamps[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: MaxWith is commutative and produces a vector covering both
// inputs.
func TestMaxWithProperty(t *testing.T) {
	f := func(xs, ys [6]uint8) bool {
		a, b := New(6), New(6)
		for i := 0; i < 6; i++ {
			a[i], b[i] = int32(xs[i]), int32(ys[i])
		}
		m1 := a.Copy()
		m1.MaxWith(b)
		m2 := b.Copy()
		m2.MaxWith(a)
		return m1.Equal(m2) && m1.Covers(a) && m1.Covers(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseInitInPlace: Init is NewSparse for a vector that lives inside
// a larger allocation (neighbours must not share state), and it resets a
// used one.
func TestSparseInitInPlace(t *testing.T) {
	block := make([]Sparse, 2)
	a, b := block[0].Init(4), block[1].Init(4)
	a.Set(1, 5)
	b.Set(1, 6)
	b.Set(2, 7)
	if a.Get(1) != 5 || a.Get(2) != 0 || b.Get(1) != 6 || b.Get(2) != 7 {
		t.Fatalf("neighbours interfere: a=%v b=%v", a, b)
	}
	if b.Init(3); b.NNZ() != 0 || b.Dim() != 3 || a.Get(1) != 5 {
		t.Fatalf("Init did not reset in place: a=%v b=%v dim %d", a, b, b.Dim())
	}
}
