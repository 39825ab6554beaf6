package mem

import "testing"

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestFrameLastReleaseRecycles: the words go to the pool of whoever drops
// the last reference, once, and to no pool before that.
func TestFrameLastReleaseRecycles(t *testing.T) {
	home, reader := NewPool(8), NewPool(8)
	words := home.GetPage()
	f := NewFrame(words)
	f.Share()
	f.Release(home) // the publisher retires it; the reader still holds it
	if free, _ := home.Free(); free != 0 || f.Words == nil {
		t.Fatalf("first release: %d frames on the releaser's list, words %v; want none and the words still there", free, f.Words)
	}
	f.Release(reader)
	if free, _ := reader.Free(); free != 1 || f.Words != nil {
		t.Fatalf("last release: %d frames on the last holder's list, words %v; want one and the frame emptied", free, f.Words)
	}
	if got := reader.GetPage(); &got[0] != &words[0] {
		t.Error("the last holder's pool did not get the frame's words")
	}
	mustPanic(t, "a release beyond the last", func() { f.Release(reader) })
	NewFrame(make([]float64, 8)).Release(nil) // no pool: the Go GC has them
}

// TestCheckFramesCatchesAWrite: with CheckFrames on, a frame written between
// NewFrame and its last release panics there, and at Verify; off, neither
// looks.
func TestCheckFramesCatchesAWrite(t *testing.T) {
	write := func() *Frame {
		f := NewFrame([]float64{1, 2, 3})
		f.Words[1] = 9
		return f
	}
	write().Verify()
	write().Release(nil)

	CheckFrames = true
	defer func() { CheckFrames = false }()
	clean := NewFrame([]float64{1, 2, 3})
	clean.Verify()
	clean.Release(nil)
	mustPanic(t, "Verify of a written frame", func() { write().Verify() })
	mustPanic(t, "the last release of a written frame", func() { write().Release(nil) })
}

// TestSharedPageLifecycle walks one page through the states a reader's copy
// takes: adopted shared, re-adopted, write-faulted (the shared frame becomes
// the twin and the data a private copy) and twin dropped. The frame's words must never be written and every reference must
// be handed back exactly once.
func TestSharedPageLifecycle(t *testing.T) {
	CheckFrames = true
	defer func() { CheckFrames = false }()
	pool := NewPool(4)
	var p Page
	f1 := NewFrame([]float64{1, 2, 3, 4})
	p.Adopt(f1.Share(), pool)
	if f, twin := p.Shared(); f != f1 || twin || &p.Data[0] != &f1.Words[0] {
		t.Fatalf("after Adopt the page shares (%p, twin %v); want frame %p through its data", f, twin, f1)
	}

	// A refetch of a newer version releases the old reference.
	f2 := NewFrame([]float64{5, 6, 7, 8})
	p.Adopt(f2.Share(), pool)
	f1.Release(pool) // the publisher's own: the last, since Adopt dropped the page's
	if free, _ := pool.Free(); free != 1 {
		t.Fatalf("%d frames recycled after the old version's last release, want 1", free)
	}

	// Write fault: one copy, and it is the data that is new.
	p.MakeTwin(pool)
	if f, twin := p.Shared(); f != f2 || !twin || &p.Twin[0] != &f2.Words[0] || &p.Data[0] == &f2.Words[0] {
		t.Fatalf("after MakeTwin the page shares (%p, twin %v); want frame %p through its twin, data private", f, twin, f2)
	}
	p.Data[0] = 50
	d := ComputeDiff(0, p.Twin, p.Data)
	if d.Words() != 1 || f2.Words[0] != 5 {
		t.Fatalf("diff of %d words, frame word %v; want exactly the one store and the frame still 5", d.Words(), f2.Words[0])
	}
	mustPanic(t, "Adopt over a shared twin", func() { p.Adopt(f2, pool) })
	mustPanic(t, "MakeTwin over a live twin", func() { p.MakeTwin(pool) })
	p.DropTwin(pool)
	if f, _ := p.Shared(); f != nil || p.Twin != nil || p.Data[0] != 50 {
		t.Fatalf("after DropTwin: frame %p twin %v data %v; want private data only", f, p.Twin, p.Data)
	}
	// A second write fault twins the private data the old way.
	p.MakeTwin(pool)
	if f, _ := p.Shared(); f != nil || p.Twin[0] != 50 || &p.Twin[0] == &p.Data[0] {
		t.Fatal("twin of a private page is not a private copy of it")
	}
	p.DropTwin(pool)
	f2.Release(nil)
}

// TestPoolCloneDrawsOrAllocates: Clone copies into a free frame when there
// is one and allocates otherwise, nil pool included.
func TestPoolCloneDrawsOrAllocates(t *testing.T) {
	src := []float64{1, 2, 3, 4}
	pool := NewPool(4)
	a := pool.Clone(src)
	if &a[0] == &src[0] || a[2] != 3 {
		t.Fatal("Clone from an empty pool is not a copy")
	}
	a[2] = 30
	pool.PutPage(a)
	b := pool.Clone(src)
	if &b[0] != &a[0] || b[2] != 3 || len(b) != 4 {
		t.Fatal("Clone did not reuse the free frame, or left stale words in it")
	}
	var none *Pool
	if c := none.Clone(src); &c[0] == &src[0] || c[3] != 4 {
		t.Fatal("Clone on a nil pool is not a copy")
	}
}
