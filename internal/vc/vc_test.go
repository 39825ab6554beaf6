package vc

import (
	"cmp"
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

// Property: on causal histories of up to 64 procs (as many writers as a
// 64-node miss has), with some intervals named twice, Order is a linear
// extension of HappensBefore, keeps repeats in input order, and yields the
// same intervals in the same order however its input is shuffled.
func TestTopoSortProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var s Sorter
	wide := 0
	for i := 0; i < 1000; i++ {
		maxProcs, maxSteps := 7, 40
		if i%4 == 0 {
			maxProcs, maxSteps = 64, 300
		}
		stamps := causalStamps(rng, maxProcs, maxSteps)
		for k := len(stamps) / 8; k > 0; k-- {
			stamps = append(stamps, stamps[rng.Intn(len(stamps))])
		}
		rng.Shuffle(len(stamps), func(i, j int) { stamps[i], stamps[j] = stamps[j], stamps[i] })
		order := s.Order(stamps)
		checkCausalOrder(t, stamps, order)
		want := intervals(stamps, order)
		rng.Shuffle(len(stamps), func(i, j int) { stamps[i], stamps[j] = stamps[j], stamps[i] })
		if got := intervals(stamps, s.Order(stamps)); !slices.Equal(got, want) {
			t.Fatalf("input %d: a shuffle changed the order:\n got  %v\n want %v", i, got, want)
		}
		if procCount(stamps) >= 32 {
			wide++
		}
	}
	if wide < 60 {
		t.Fatalf("only %d of 250 wide histories have 32 procs or more", wide)
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

// checkCausalOrder fails unless order, a permutation of stamps' indexes,
// puts no interval after one it happens before and keeps the repeats of an
// interval in input order.
func checkCausalOrder(t *testing.T, stamps []Stamp, order []int) {
	t.Helper()
	seen := make([]bool, len(stamps))
	for _, i := range order {
		if seen[i] {
			t.Fatalf("order names stamp %d twice", i)
		}
		seen[i] = true
	}
	if len(order) != len(stamps) {
		t.Fatalf("order has %d indexes for %d stamps", len(order), len(stamps))
	}
	for i, a := range order {
		for _, b := range order[i+1:] {
			if HappensBefore(stamps[b], stamps[a]) {
				t.Fatalf("%v comes before %v, which happens before it", stamps[a], stamps[b])
			}
			if same := stamps[a].Proc == stamps[b].Proc && stamps[a].Interval == stamps[b].Interval; same && a > b {
				t.Fatalf("repeats of %v left input order: index %d before %d", stamps[a], a, b)
			}
		}
	}
}

// intervals lists the (proc, interval) of stamps in order.
func intervals(stamps []Stamp, order []int) [][2]int {
	out := make([][2]int, len(order))
	for k, i := range order {
		out[k] = [2]int{stamps[i].Proc, int(stamps[i].Interval)}
	}
	return out
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

// procCount is the number of distinct procs among stamps.
func procCount(stamps []Stamp) int {
	procs := map[int]bool{}
	for _, s := range stamps {
		procs[s.Proc] = true
	}
	return len(procs)
}

// topoSortReference is the oracle for TopoSort: a selection loop that
// assumes nothing of vector sums. Each step it re-tests every remaining pair
// with HappensBefore, O(n^3) calls, and among the intervals with no
// remaining predecessor emits the least (sum of the vector read through
// Get, proc, interval), the first in input order among repeats.
func topoSortReference(stamps []Stamp) {
	sum := func(s Stamp) int64 {
		var n int64
		for q := 0; q < s.VC.Dim(); q++ {
			n += int64(s.VC.Get(q))
		}
		return n
	}
	remaining := slices.Clone(stamps)
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
			if best == -1 {
				best = i
				continue
			}
			b := remaining[best]
			if c := cmp.Or(cmp.Compare(sum(s), sum(b)), cmp.Compare(s.Proc, b.Proc),
				cmp.Compare(s.Interval, b.Interval)); c < 0 {
				best = i
			}
		}
		out = append(out, remaining[best])
		remaining = slices.Delete(remaining, best, best+1)
	}
}

// checkAgainstReference fails unless TopoSort and the reference produce the
// same stamps (same vectors, by pointer) in the same order.
func checkAgainstReference(t *testing.T, stamps []Stamp) {
	t.Helper()
	want, got := slices.Clone(stamps), slices.Clone(stamps)
	topoSortReference(want)
	TopoSort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("TopoSort disagrees with the reference on %v:\n got  %v\n want %v", stamps, got, want)
	}
}

// TestTopoSortMatchesReference: sorting by vector sum emits the order of a
// selection loop driven by HappensBefore alone, bit for bit, on causal
// histories of up to 7 and of up to 64 procs (as many writers as a 64-node
// miss has), with some intervals named twice.
func TestTopoSortMatchesReference(t *testing.T) {
	// Every stamp carries a Sparse vector.
	t.Run("sparse", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20))
		withRepeats := func(stamps []Stamp) []Stamp {
			for k := len(stamps) / 8; k > 0; k-- {
				stamps = append(stamps, stamps[rng.Intn(len(stamps))])
			}
			return stamps
		}
		for i := 0; i < 4000; i++ {
			checkAgainstReference(t, withRepeats(causalStamps(rng, 7, 40)))
		}
		wide := 0
		for i := 0; i < 100; i++ {
			stamps := withRepeats(causalStamps(rng, 64, 300))
			checkAgainstReference(t, stamps)
			if procCount(stamps) >= 32 {
				wide++
			}
		}
		if wide < 25 {
			t.Fatalf("only %d of 100 wide histories have 32 procs or more", wide)
		}
		// The reversed chain 0:1 -> 1:1 -> 0:2 beside a concurrent 2:1,
		// with 1:1 named twice.
		a := Stamp{Proc: 0, Interval: 1, VC: SparseFrom(VC{1, 0, 0})}
		b := Stamp{Proc: 1, Interval: 1, VC: SparseFrom(VC{1, 1, 0})}
		c := Stamp{Proc: 0, Interval: 2, VC: SparseFrom(VC{2, 1, 0})}
		d := Stamp{Proc: 2, Interval: 1, VC: SparseFrom(VC{0, 0, 1})}
		checkAgainstReference(t, []Stamp{c, b, d, a, b})
		got := []Stamp{c, b, d, a, b}
		TopoSort(got)
		if !slices.Equal(got, []Stamp{a, d, b, b, c}) {
			t.Fatalf("hand case sorted to %v", got)
		}
	})
}

// TestSorterReusesScratch: one Sorter serves inputs of different shapes
// back to back, and allocates nothing once its scratch has grown — on a
// 64-proc input, the width of a 64-node miss.
func TestSorterReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Sorter
	for i := 0; i < 300; i++ {
		stamps := causalStamps(rng, 7, 40)
		checkCausalOrder(t, stamps, s.Order(stamps))
	}
	big := causalHistory(rng, 64, 400)
	if n := procCount(big); n != 64 {
		t.Fatalf("the wide input has %d procs, want 64", n)
	}
	checkCausalOrder(t, big, s.Order(big))
	small := causalStamps(rng, 7, 40)
	checkCausalOrder(t, small, s.Order(small))
	if allocs := testing.AllocsPerRun(50, func() { s.Order(big) }); allocs != 0 {
		t.Errorf("warm Sorter.Order on %d stamps from 64 procs = %.1f allocs/op, want 0", len(big), allocs)
	}
}

// FuzzTopoSortCausal decodes bytes into a causal history and holds Order
// to checkCausalOrder on its intervals, presented latest first, and to the
// same order when presented in history order. The first byte is the proc
// count (up to 64); then each two bytes are one step: proc p = b0 mod the
// count, and b1's low two bits choose what p does with q = (b1>>2) mod the
// count: 0 closes an interval, 1 merges q's clock and closes one, 2 does
// that but leaves the interval out (the page's notices are a subset of the
// machine's intervals), 3 names stamp q again (a repeat). Up to 128 stamps.
// The seeds here and under testdata/fuzz run in plain go test.
func FuzzTopoSortCausal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 1, 1, 0, 5})                   // the chain 0:1 -> 1:1 -> 0:2
	f.Add([]byte{2, 0, 0, 1, 0, 2, 0})                   // three concurrent intervals
	f.Add([]byte{1, 0, 0, 1, 1, 0, 3, 0, 7})             // both intervals named twice
	f.Add([]byte{2, 0, 0, 1, 2, 2, 6, 1, 9, 0, 0, 2, 1}) // merges of left-out intervals
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		nproc := 1 + int(b[0])%64
		clocks := make([]VC, nproc)
		for i := range clocks {
			clocks[i] = New(nproc)
		}
		var stamps []Stamp
		for b = b[1:]; len(b) >= 2 && len(stamps) < 128; b = b[2:] {
			p, q := int(b[0])%nproc, int(b[1]>>2)%nproc
			switch b[1] & 3 {
			case 3:
				if len(stamps) > 0 {
					stamps = append(stamps, stamps[q%len(stamps)])
				}
				continue
			case 1, 2:
				clocks[p].MaxWith(clocks[q])
			}
			clocks[p][p]++
			if b[1]&3 != 2 {
				stamps = append(stamps, Stamp{Proc: p, Interval: clocks[p][p], VC: SparseFrom(clocks[p])})
			}
		}
		var s Sorter
		want := intervals(stamps, s.Order(stamps))
		slices.Reverse(stamps)
		order := s.Order(stamps)
		checkCausalOrder(t, stamps, order)
		if got := intervals(stamps, order); !slices.Equal(got, want) {
			t.Fatalf("presenting the history latest first changed the order:\n got  %v\n want %v", got, want)
		}
	})
}
