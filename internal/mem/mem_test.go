package mem

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gosvm/internal/slab"
)

func TestSpaceAllocAlignment(t *testing.T) {
	s := NewSpace(4096) // 512 words
	a := s.Alloc(10)
	if a != 0 {
		t.Fatalf("first alloc at %d, want 0", a)
	}
	b := s.Alloc(5)
	if b != 512 {
		t.Fatalf("second alloc at %d, want page-aligned 512", b)
	}
	if s.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", s.NumPages())
	}
}

func TestSpaceAllocUnalignedPacks(t *testing.T) {
	s := NewSpace(4096)
	a := s.AllocUnaligned(10)
	b := s.AllocUnaligned(10)
	if b != a+10 {
		t.Fatalf("unaligned allocs not packed: %d then %d", a, b)
	}
}

func TestSpacePageMath(t *testing.T) {
	s := NewSpace(4096)
	if s.PageWords != 512 {
		t.Fatalf("PageWords = %d", s.PageWords)
	}
	if s.PageOf(511) != 0 || s.PageOf(512) != 1 {
		t.Fatal("PageOf boundary wrong")
	}
	if s.PageOf(Addr(3*s.PageWords)) != 3 || s.PageOf(Addr(3*s.PageWords-1)) != 2 {
		t.Fatal("page 3 does not start at 3*PageWords")
	}
}

func TestSpaceBadSizesPanic(t *testing.T) {
	for _, sz := range []int{0, -8, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSpace(%d) did not panic", sz)
				}
			}()
			NewSpace(sz)
		}()
	}
	s := NewSpace(64)
	defer func() {
		if recover() == nil {
			t.Error("Alloc(0) did not panic")
		}
	}()
	s.Alloc(0)
}

func TestTableGrowth(t *testing.T) {
	s := NewSpace(64)
	s.Alloc(10 * slab.Block * s.PageWords)
	tb := NewTable(s)
	if tb.Peek(100) != nil {
		t.Fatal("Peek found an entry in an empty table")
	}
	p := tb.Page(100)
	if p.State != Invalid || p.Data != nil {
		t.Fatal("fresh page not invalid/empty")
	}
	// Peek sees what Page materialized and materializes nothing itself.
	if tb.Peek(100) != p || tb.Peek(100+slab.Block) != nil || tb.Peek(100+9*slab.Block) != nil {
		t.Fatal("Peek disagrees with Page")
	}
	entries := 0
	tb.Each(func(int, *Page) { entries++ })
	if entries != slab.Block {
		t.Fatalf("%d entries materialized, want one block of %d", entries, slab.Block)
	}
	// Returned pointer must be stable enough for immediate use.
	p.State = ReadWrite
	if tb.Page(100).State != ReadWrite {
		t.Fatal("page state lost")
	}
}

// TestTablePastSpace: a page past the space allocated when the table was
// made reads as one shared Invalid entry with no copy, and materializes
// nothing, however far past it is: an access there must fail before it
// grows the table (the 2^40th word would need a block index of GBs).
func TestTablePastSpace(t *testing.T) {
	s := NewSpace(64)
	s.Alloc(3 * s.PageWords)
	tb := NewTable(s)
	near, far := tb.Page(3), tb.Page(1<<40/s.PageWords)
	if near != far || near.State != Invalid || near.Data != nil {
		t.Fatalf("pages past the space read %p %+v and %p %+v; want one shared Invalid entry with no copy", near, *near, far, *far)
	}
	entries := 0
	tb.Each(func(int, *Page) { entries++ })
	if entries != 0 || tb.Peek(3) != nil {
		t.Fatalf("reading past the space materialized %d entries", entries)
	}
	if tb.Page(2) == near {
		t.Fatal("the last allocated page reads as the shared entry")
	}
	defer func() {
		if recover() == nil {
			t.Error("Page(-1) did not panic")
		}
	}()
	tb.Page(-1)
}

func TestTwinLifecycle(t *testing.T) {
	s := NewSpace(64)
	s.Alloc(s.PageWords)
	tb := NewTable(s)
	p := tb.Page(0)
	p.Data = make([]float64, s.PageWords)
	p.Data[1] = 42
	p.MakeTwin(nil)
	p.Data[1] = 43
	if p.Twin[1] != 42 {
		t.Fatal("twin does not hold pre-write value")
	}
	p.DropTwin(nil)
	if p.Twin != nil {
		t.Fatal("DropTwin left twin")
	}
}

func TestDiffBasic(t *testing.T) {
	twin := []float64{1, 2, 3, 4, 5}
	cur := []float64{1, 9, 9, 4, 8}
	d := ComputeDiff(7, twin, cur)
	if d.Page != 7 {
		t.Fatalf("page = %d", d.Page)
	}
	if len(d.Runs) != 2 {
		t.Fatalf("runs = %d, want 2 (%v)", len(d.Runs), d.Runs)
	}
	if d.Words() != 3 {
		t.Fatalf("words = %d, want 3", d.Words())
	}
	dst := []float64{1, 2, 3, 4, 5}
	d.Apply(dst)
	for i := range cur {
		if dst[i] != cur[i] {
			t.Fatalf("apply mismatch at %d: %v vs %v", i, dst, cur)
		}
	}
}

func TestDiffEmpty(t *testing.T) {
	v := []float64{1, 2, 3}
	d := ComputeDiff(0, v, []float64{1, 2, 3})
	if d.Words() != 0 || len(d.Runs) != 0 {
		t.Fatal("identical pages produced a non-empty diff")
	}
	if d.WireSize() != 16 {
		t.Fatalf("empty diff wire size = %d", d.WireSize())
	}
}

func TestDiffNaNAndSignedZero(t *testing.T) {
	nan1 := math.NaN()
	nan2 := math.Float64frombits(math.Float64bits(nan1) ^ 1) // different NaN payload
	twin := []float64{nan1, 0.0, 1}
	cur := []float64{nan1, math.Copysign(0, -1), 1}
	d := ComputeDiff(0, twin, cur)
	if d.Words() != 1 {
		t.Fatalf("signed-zero change not detected exactly: %d words", d.Words())
	}
	twin2 := []float64{nan1}
	cur2 := []float64{nan2}
	d2 := ComputeDiff(0, twin2, cur2)
	if d2.Words() != 1 {
		t.Fatal("NaN payload change not detected")
	}
	dst := []float64{nan1}
	d2.Apply(dst)
	if math.Float64bits(dst[0]) != math.Float64bits(nan2) {
		t.Fatal("NaN payload not preserved through apply")
	}
}

func TestDiffFullPage(t *testing.T) {
	n := 512
	twin := make([]float64, n)
	cur := make([]float64, n)
	for i := range cur {
		cur[i] = float64(i + 1)
	}
	d := ComputeDiff(0, twin, cur)
	if len(d.Runs) != 1 || d.Words() != n {
		t.Fatalf("full-page diff: %d runs, %d words", len(d.Runs), d.Words())
	}
	if d.WireSize() != 16+8+8*n {
		t.Fatalf("wire size = %d", d.WireSize())
	}
}

// Property: applying Diff(twin, cur) to a copy of twin reconstructs cur
// exactly, for arbitrary modifications.
func TestDiffRoundTripProperty(t *testing.T) {
	f := func(seed int64, nMods uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		twin := make([]float64, n)
		for i := range twin {
			twin[i] = rng.NormFloat64()
		}
		cur := make([]float64, n)
		copy(cur, twin)
		for m := 0; m < int(nMods); m++ {
			cur[rng.Intn(n)] = rng.NormFloat64()
		}
		d := ComputeDiff(0, twin, cur)
		dst := make([]float64, n)
		copy(dst, twin)
		d.Apply(dst)
		for i := range cur {
			if math.Float64bits(dst[i]) != math.Float64bits(cur[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: concurrent diffs against the same twin touching disjoint words
// merge commutatively (the multiple-writer guarantee the protocols rely
// on).
func TestDiffDisjointMergeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		twin := make([]float64, n)
		for i := range twin {
			twin[i] = rng.NormFloat64()
		}
		a := make([]float64, n)
		b := make([]float64, n)
		copy(a, twin)
		copy(b, twin)
		perm := rng.Perm(n)
		for _, i := range perm[:16] {
			a[i] = rng.NormFloat64() + 1e9
		}
		for _, i := range perm[16:32] {
			b[i] = rng.NormFloat64() - 1e9
		}
		da := ComputeDiff(0, twin, a)
		db := ComputeDiff(0, twin, b)

		ab := append([]float64(nil), twin...)
		da.Apply(ab)
		db.Apply(ab)
		ba := append([]float64(nil), twin...)
		db.Apply(ba)
		da.Apply(ba)
		for i := range ab {
			if math.Float64bits(ab[i]) != math.Float64bits(ba[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: diff sizes are consistent — Words matches the sum of run
// lengths implied by WireSize.
func TestDiffSizeConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 128
		twin := make([]float64, n)
		cur := make([]float64, n)
		for i := range cur {
			if rng.Intn(3) == 0 {
				cur[i] = 1
			}
		}
		d := ComputeDiff(0, twin, cur)
		return d.WireSize() == 16+8*len(d.Runs)+8*d.Words()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDiffApply checks ComputeDiff against the pages it encodes. Each
// page word takes nine fuzz bytes: a control byte choosing how cur's
// word relates to twin's (equal, sign flipped, low mantissa bit
// flipped, or high bits flipped), then twin's raw bits, so NaN payloads
// and signed zeros occur.
func FuzzDiffApply(f *testing.F) {
	word := func(control byte, bits uint64) []byte {
		b := []byte{control, 0, 0, 0, 0, 0, 0, 0, 0}
		for i := 0; i < 8; i++ {
			b[1+i] = byte(bits >> (8 * i))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(word(1, 0))                  // +0 becomes -0
	f.Add(word(2, 0x7ff8000000000001)) // a NaN's payload changes
	f.Add(append(append(word(0, 0x7ff8000000000001), word(3, 1)...), word(0, 2)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/9, 1024)
		twin := make([]float64, n)
		cur := make([]float64, n)
		diffs := 0
		for i := range twin {
			control := data[9*i]
			var bits uint64
			for j := 0; j < 8; j++ {
				bits |= uint64(data[9*i+1+j]) << (8 * j)
			}
			twin[i] = math.Float64frombits(bits)
			switch control % 4 {
			case 1:
				bits ^= 1 << 63
			case 2:
				bits ^= 1
			case 3:
				bits ^= uint64(control) << 48
			}
			cur[i] = math.Float64frombits(bits)
			if !sameBits(twin[i], cur[i]) {
				diffs++
			}
		}

		d := ComputeDiff(0, twin, cur)
		got := append([]float64(nil), twin...)
		d.Apply(got)
		for i := range cur {
			if !sameBits(got[i], cur[i]) {
				t.Fatalf("word %d: applying the diff to the twin gives %x, want %x",
					i, math.Float64bits(got[i]), math.Float64bits(cur[i]))
			}
		}
		if d.Words() != diffs {
			t.Fatalf("Words() = %d, %d words differ", d.Words(), diffs)
		}
		wire, end := 16, -1
		for k, r := range d.Runs {
			if len(r.Vals) == 0 || r.Off <= end {
				t.Fatalf("run %d at %d (len %d) is empty, out of order or touches the previous run ending at %d",
					k, r.Off, len(r.Vals), end)
			}
			for i := r.Off; i < r.Off+len(r.Vals); i++ {
				if sameBits(twin[i], cur[i]) {
					t.Fatalf("run %d covers unchanged word %d", k, i)
				}
			}
			if after := r.Off + len(r.Vals); after < n && !sameBits(twin[after], cur[after]) {
				t.Fatalf("run %d stops before changed word %d", k, after)
			}
			end = r.Off + len(r.Vals)
			wire += 8 + 8*len(r.Vals)
		}
		if d.WireSize() != wire {
			t.Fatalf("WireSize() = %d, want %d", d.WireSize(), wire)
		}
	})
}

// TestDiffRecomputeMatchesComputeDiff: a diff recomputed into one reused
// Diff, whose runs and values backing keep every earlier diff's bits, equals
// ComputeDiff's over random twins with NaN payloads and signed zeros in
// them, and once its backing has grown to a page-wide diff, recomputing
// allocates nothing.
func TestDiffRecomputeMatchesComputeDiff(t *testing.T) {
	const n = 64
	nan1 := math.NaN()
	nan2 := math.Float64frombits(math.Float64bits(nan1) ^ 1)
	specials := []float64{nan1, nan2, 0, math.Copysign(0, -1), 1e18}
	word := func(rng *rand.Rand) float64 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	rng := rand.New(rand.NewSource(1))
	pages := func() (twin, cur []float64) {
		twin, cur = make([]float64, n), make([]float64, n)
		for i := range twin {
			twin[i] = word(rng)
		}
		copy(cur, twin)
		for m := rng.Intn(2 * n); m > 0; m-- {
			cur[rng.Intn(n)] = word(rng)
		}
		return twin, cur
	}
	var d Diff
	for round := 0; round < 500; round++ {
		twin, cur := pages()
		d.Recompute(round, twin, cur)
		want := ComputeDiff(round, twin, cur)
		same := d.Page == want.Page && slices.EqualFunc(d.Runs, want.Runs, func(a, b Run) bool {
			return a.Off == b.Off && slices.EqualFunc(a.Vals, b.Vals, func(x, y float64) bool {
				return math.Float64bits(x) == math.Float64bits(y)
			})
		})
		if !same {
			t.Fatalf("round %d: recomputed %+v, ComputeDiff %+v", round, d, want)
		}
	}

	twin, cur := make([]float64, n), make([]float64, n)
	for i := range cur {
		cur[i] = float64(i%2 + 1) // every word, in one run
	}
	d.Recompute(0, twin, cur)
	for i := range cur {
		cur[i] = float64(i % 2) // every other word: the most runs a page has
	}
	d.Recompute(0, twin, cur)
	shapes := make([][2][]float64, 50)
	for i := range shapes {
		shapes[i][0], shapes[i][1] = pages()
	}
	i := 0
	if allocs := testing.AllocsPerRun(len(shapes), func() {
		s := shapes[i%len(shapes)]
		d.Recompute(i, s[0], s[1])
		i++
	}); allocs != 0 {
		t.Errorf("recomputing into a grown Diff allocates %.2f objects, want 0", allocs)
	}
}
