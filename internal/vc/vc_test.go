package vc

import (
	"fmt"
	"math/rand"
	"slices"
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
	if a.Covers(d) || d.Covers(a) {
		t.Fatal("a and d are concurrent: neither covers the other")
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

// topoSortReference is the selection loop TopoSort was until PR 20, kept as
// the oracle: for every element it emits it re-tests every remaining pair,
// O(n^3) HappensBefore calls, and assumes nothing about the relation.
func topoSortReference(stamps []Stamp) {
	n := len(stamps)
	remaining := append([]Stamp(nil), stamps...)
	out := stamps[:0]
	for len(remaining) > 0 {
		best := -1
		for i, s := range remaining {
			minimal := true
			for j, t := range remaining {
				if j != i && HappensBefore(t, s) {
					minimal = false
					break
				}
			}
			if !minimal {
				continue
			}
			if best == -1 || s.Proc < remaining[best].Proc ||
				(s.Proc == remaining[best].Proc && s.Interval < remaining[best].Interval) {
				best = i
			}
		}
		if best == -1 {
			panic(fmt.Sprintf("vc: happens-before cycle among %d intervals", n))
		}
		out = append(out, remaining[best])
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
}

// sortOutcome runs sort on a copy of stamps and returns the result, or the
// panic value when it found a cycle.
func sortOutcome(sort func([]Stamp), stamps []Stamp) (out []Stamp, cycle any) {
	out = slices.Clone(stamps)
	defer func() {
		if cycle = recover(); cycle != nil {
			out = nil
		}
	}()
	sort(out)
	return out, nil
}

// checkAgainstReference fails unless TopoSort and the reference produce the
// same stamps (same vectors, by pointer) in the same order, or panic with
// the same message.
func checkAgainstReference(t *testing.T, stamps []Stamp) {
	t.Helper()
	want, wantCycle := sortOutcome(topoSortReference, stamps)
	got, gotCycle := sortOutcome(TopoSort, stamps)
	if wantCycle != gotCycle || !slices.Equal(got, want) {
		t.Fatalf("TopoSort disagrees with the reference on %v:\n got  %v (panic %v)\n want %v (panic %v)",
			stamps, got, gotCycle, want, wantCycle)
	}
}

// causalStamps draws a random causal history of up to maxProcs procs and
// fewer than maxSteps steps and returns a shuffled random subset of its
// intervals, the way a page's notices are a subset of the machine's
// intervals.
func causalStamps(rng *rand.Rand, maxProcs, maxSteps int) []Stamp {
	nproc := rng.Intn(maxProcs) + 1
	return causalHistory(rng, nproc, rng.Intn(maxSteps))
}

// causalHistory runs steps steps of nproc procs advancing through intervals
// and merging each other's clocks, keeps about two intervals in three, and
// shuffles them.
func causalHistory(rng *rand.Rand, nproc, steps int) []Stamp {
	clocks := make([]VC, nproc)
	for i := range clocks {
		clocks[i] = New(nproc)
	}
	var stamps []Stamp
	for step := 0; step < steps; step++ {
		p := rng.Intn(nproc)
		for k := rng.Intn(3); k > 0; k-- {
			clocks[p].MaxWith(clocks[rng.Intn(nproc)])
		}
		clocks[p][p]++
		if rng.Intn(3) > 0 {
			stamps = append(stamps, Stamp{Proc: p, Interval: clocks[p][p], VC: SparseFrom(clocks[p])})
		}
	}
	rng.Shuffle(len(stamps), func(i, j int) { stamps[i], stamps[j] = stamps[j], stamps[i] })
	return stamps
}

// chainCount is the number of distinct procs among stamps: the chains a
// Sorter cuts them into.
func chainCount(stamps []Stamp) int {
	procs := map[int]bool{}
	for _, s := range stamps {
		procs[s.Proc] = true
	}
	return len(procs)
}

// vectorOf returns the vector stamps already holds for s's interval, nil if
// it holds none: one interval has one vector, however often it is named.
func vectorOf(stamps []Stamp, s Stamp) *Sparse {
	for _, t := range stamps {
		if t.Proc == s.Proc && t.Interval == s.Interval {
			return t.VC
		}
	}
	return nil
}

// adversarialStamps draws stamps whose vectors come from no history at all:
// happens-before among them is neither transitive nor acyclic, and stamps
// repeat (a repeat carries the vector of the first, as the same interval
// would).
func adversarialStamps(rng *rand.Rand) []Stamp {
	nproc := rng.Intn(5) + 1
	var stamps []Stamp
	for n := rng.Intn(14); n > 0; n-- {
		if len(stamps) > 0 && rng.Intn(4) == 0 {
			stamps = append(stamps, stamps[rng.Intn(len(stamps))])
			continue
		}
		s := Stamp{Proc: rng.Intn(nproc), Interval: int32(rng.Intn(4) + 1)}
		if s.VC = vectorOf(stamps, s); s.VC == nil {
			v := New(nproc)
			for q := range v {
				v[q] = int32(rng.Intn(4)) // mostly small: sparse enough that some inputs are acyclic
				if rng.Intn(2) == 0 {
					v[q] = 0
				}
			}
			s.VC = SparseFrom(v)
		}
		stamps = append(stamps, s)
	}
	return stamps
}

// TestTopoSortMatchesReference: the chain-head sorter emits the reference's
// order bit for bit — on causal histories of up to 7 and of up to 64 procs
// (as many chains as a 64-node miss has writers), and on non-transitive,
// cyclic and duplicate-stamp inputs, where it must also panic exactly when
// the reference does.
func TestTopoSortMatchesReference(t *testing.T) {
	// Every stamp carries a Sparse vector.
	t.Run("sparse", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20))
		for i := 0; i < 12000; i++ {
			checkAgainstReference(t, causalStamps(rng, 7, 40))
		}
		wide := 0
		for i := 0; i < 400; i++ {
			stamps := causalStamps(rng, 64, 300)
			checkAgainstReference(t, stamps)
			if chainCount(stamps) >= 32 {
				wide++
			}
		}
		if wide < 100 {
			t.Fatalf("only %d of 400 wide histories have 32 chains or more", wide)
		}
		sorted, cycles := 0, 0
		for i := 0; i < 12000; i++ {
			stamps := adversarialStamps(rng)
			checkAgainstReference(t, stamps)
			if _, cycle := sortOutcome(topoSortReference, stamps); cycle != nil {
				cycles++
			} else {
				sorted++
			}
		}
		if sorted < 1000 || cycles < 1000 {
			t.Fatalf("adversarial inputs are lopsided: %d sorted, %d cyclic", sorted, cycles)
		}
		// Non-transitive by hand: a before b, b before c, yet c's vector
		// does not cover a — and a duplicate of b.
		a := Stamp{Proc: 2, Interval: 1, VC: SparseFrom(VC{0, 0, 1})}
		b := Stamp{Proc: 1, Interval: 1, VC: SparseFrom(VC{0, 1, 1})}
		c := Stamp{Proc: 0, Interval: 1, VC: SparseFrom(VC{1, 1, 0})}
		checkAgainstReference(t, []Stamp{c, b, a, b})
		got, _ := sortOutcome(TopoSort, []Stamp{c, b, a, b})
		if !slices.Equal(got, []Stamp{a, b, b, c}) {
			t.Fatalf("hand case sorted to %v", got)
		}
	})
}

// TestSorterReusesScratch: one Sorter serves inputs of different shapes
// back to back, and allocates nothing once its scratch has grown — on a
// 64-chain input, the width of a 64-node miss.
func TestSorterReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Sorter
	check := func(i int, stamps []Stamp) {
		want, _ := sortOutcome(topoSortReference, stamps)
		for k, j := range s.Order(stamps) {
			if stamps[j] != want[k] {
				t.Fatalf("input %d: Order[%d] = %v, want %v", i, k, stamps[j], want[k])
			}
		}
	}
	for i := 0; i < 300; i++ {
		check(i, causalStamps(rng, 7, 40))
	}
	big := causalHistory(rng, 64, 400)
	if n := chainCount(big); n != 64 {
		t.Fatalf("the wide input has %d chains, want 64", n)
	}
	check(300, big)
	check(301, causalStamps(rng, 7, 40))
	if allocs := testing.AllocsPerRun(50, func() { s.Order(big) }); allocs != 0 {
		t.Errorf("warm Sorter.Order on %d stamps in 64 chains = %.1f allocs/op, want 0", len(big), allocs)
	}
}

// FuzzTopoSortVsReference decodes arbitrary bytes into stamps — first byte
// the proc count (up to 64), then per stamp a proc, an interval and one
// vector entry per proc, a repeated (proc, interval) reusing the first one's
// vector, up to 96 stamps — and holds TopoSort to the reference. The seeds
// here and under testdata/fuzz (causal-forty-procs has 32 chains) run in
// plain go test.
func FuzzTopoSortVsReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 2, 2, 1, 1, 1, 1, 1, 0, 1, 1, 0})       // the chain 0:1 -> 1:1 -> 0:2, reversed
	f.Add([]byte{3, 2, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1}) // three concurrent intervals
	f.Add([]byte{2, 0, 1, 1, 1, 1, 1, 1, 1})                   // a two-cycle
	f.Add([]byte{2, 1, 1, 0, 1, 1, 1, 9, 9, 0, 1, 1, 0})       // a duplicate whose own bytes are ignored
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		nproc := 1 + int(b[0])%64
		var stamps []Stamp
		for b = b[1:]; len(b) >= 2+nproc && len(stamps) < 96; b = b[2+nproc:] {
			s := Stamp{Proc: int(b[0]) % nproc, Interval: int32(b[1]%8) + 1}
			if s.VC = vectorOf(stamps, s); s.VC == nil {
				v := New(nproc)
				for q := range v {
					v[q] = int32(b[2+q] % 9)
				}
				s.VC = SparseFrom(v)
			}
			stamps = append(stamps, s)
		}
		checkAgainstReference(t, stamps)
	})
}
