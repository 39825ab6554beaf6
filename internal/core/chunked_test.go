package core

import "testing"

// TestSlabTakeBeyondABlock: a run longer than a block cannot be carved out
// of one (the parent sliced past the block and panicked); it is a heap
// slice of the asked length, and the slab's current block is left alone.
func TestSlabTakeBeyondABlock(t *testing.T) {
	var s slab[int32]
	head := s.take(3)
	for _, n := range []int{pageChunk, pageChunk + 1, 4 * pageChunk} {
		run := s.take(n)
		if len(run) != n || cap(run) != n {
			t.Fatalf("take(%d): len %d cap %d", n, len(run), cap(run))
		}
		for i, v := range run {
			if v != 0 {
				t.Fatalf("take(%d)[%d] = %d, want zeroed", n, i, v)
			}
		}
	}
	// take(pageChunk) moved on to a fresh block; the two longer runs did not
	// touch it, so it is exhausted and the next run starts another.
	if len(s.free) != 0 {
		t.Errorf("%d elements left of the block take(pageChunk) consumed", len(s.free))
	}
	next := s.take(2)
	head[2], next[0] = 7, 9
	if head[2] != 7 || next[0] != 9 || len(s.free) != pageChunk-2 {
		t.Errorf("runs overlap or the block is mis-sized: head %v next %v, %d free", head, next, len(s.free))
	}
}

// TestSlabPushGrowsThroughTheSlab: a list doubles inside the slab up to a
// whole block — 4, 8, ... pageChunk slots, one heap allocation per block,
// none per list — and only then is append's. Two lists fed alternately
// never write into each other's runs.
func TestSlabPushGrowsThroughTheSlab(t *testing.T) {
	var s slab[int]
	var a, b []int
	wantCap := 4
	for i := 0; i < pageChunk; i++ {
		a, b = s.push(a, i), s.push(b, -i)
		if len(a) > wantCap {
			wantCap *= 2
		}
		if cap(a) != wantCap || cap(b) != wantCap {
			t.Fatalf("after %d pushes: caps %d and %d, want %d", i+1, cap(a), cap(b), wantCap)
		}
	}
	for i := range a {
		if a[i] != i || b[i] != -i {
			t.Fatalf("element %d: %d and %d, want %d and %d", i, a[i], b[i], i, -i)
		}
	}
	a = s.push(a, pageChunk)
	if len(a) != pageChunk+1 || cap(a) <= pageChunk || a[pageChunk] != pageChunk || a[0] != 0 {
		t.Fatalf("push past a block: len %d cap %d", len(a), cap(a))
	}

	// Two lists of 64 take 4+8+16+32+64 slots each: two blocks' worth,
	// three with the waste at each block's end — not one allocation per
	// doubling per list.
	allocs := testing.AllocsPerRun(10, func() {
		var s slab[int]
		var a, b []int
		for i := 0; i < 64; i++ {
			a, b = s.push(a, i), s.push(b, i)
		}
	})
	if allocs > 3 {
		t.Errorf("two 64-element lists cost %.0f allocations, want at most 3 blocks", allocs)
	}
}
