package slab

import "testing"

// TestSlabTakeBeyondABlock: a run longer than a block cannot be carved out
// of one (slicing past the block panicked); it is a heap slice of the asked
// length, and the slab's current block is left alone.
func TestSlabTakeBeyondABlock(t *testing.T) {
	var s Slab[int32]
	head := s.Take(3)
	for _, n := range []int{Block, Block + 1, 4 * Block} {
		run := s.Take(n)
		if len(run) != n || cap(run) != n {
			t.Fatalf("Take(%d): len %d cap %d", n, len(run), cap(run))
		}
		for i, v := range run {
			if v != 0 {
				t.Fatalf("Take(%d)[%d] = %d, want zeroed", n, i, v)
			}
		}
	}
	// Take(Block) moved on to a fresh block; the two longer runs did not
	// touch it, so it is exhausted and the next run starts another.
	if len(s.free) != 0 {
		t.Errorf("%d elements left of the block Take(Block) consumed", len(s.free))
	}
	next := s.Take(2)
	head[2], next[0] = 7, 9
	if head[2] != 7 || next[0] != 9 || len(s.free) != Block-2 {
		t.Errorf("runs overlap or the block is mis-sized: head %v next %v, %d free", head, next, len(s.free))
	}
}

// TestSlabPushGrowsThroughTheSlab: a list doubles inside the slab up to a
// whole block — 4, 8, ... Block slots, one heap allocation per block, none
// per list — and only then is append's. Two lists fed alternately never
// write into each other's runs.
func TestSlabPushGrowsThroughTheSlab(t *testing.T) {
	var s Slab[int]
	var a, b []int
	wantCap := 4
	for i := 0; i < Block; i++ {
		a, b = s.Push(a, i), s.Push(b, -i)
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
	a = s.Push(a, Block)
	if len(a) != Block+1 || cap(a) <= Block || a[Block] != Block || a[0] != 0 {
		t.Fatalf("push past a block: len %d cap %d", len(a), cap(a))
	}

	// Two lists of 64 take 4+8+16+32+64 slots each: two blocks' worth,
	// three with the waste at each block's end — not one allocation per
	// doubling per list.
	allocs := testing.AllocsPerRun(10, func() {
		var s Slab[int]
		var a, b []int
		for i := 0; i < 64; i++ {
			a, b = s.Push(a, i), s.Push(b, i)
		}
	})
	if allocs > 3 {
		t.Errorf("two 64-element lists cost %.0f allocations, want at most 3 blocks", allocs)
	}
}

// TestSlabGrow: Grow is Push's rule for k elements at once — in place while
// the capacity lasts, else a fresh run of max(4, 2*cap, len+k) — and keeps
// the run's contents. A run that starts in storage of its own (a one-slot
// array inside a larger object) moves into the slab the same way. The nil
// slab grows every run on the heap, and allocates nothing from any block.
func TestSlabGrow(t *testing.T) {
	var inline [1]int
	var s Slab[int]
	run := s.Grow(inline[:0], 1)
	run[0] = 5
	if &run[0] != &inline[0] {
		t.Fatal("Grow moved a run that had room")
	}
	for _, step := range []struct{ k, wantCap int }{{1, 4}, {2, 4}, {1, 8}, {11, 16}, {20, 36}} {
		n := len(run)
		run = s.Grow(run, step.k)
		if len(run) != n+step.k || cap(run) != step.wantCap || run[0] != 5 {
			t.Fatalf("Grow(%d) at len %d: len %d cap %d first %d, want len %d cap %d first 5",
				step.k, n, len(run), cap(run), run[0], n+step.k, step.wantCap)
		}
	}
	used := Block - len(s.free)

	var heap *Slab[int]
	h := heap.Grow(nil, 3)
	h = heap.Grow(h, Block)
	if len(h) != Block+3 || Block-len(s.free) != used {
		t.Fatalf("nil slab: len %d, and the slab's block moved from %d to %d used", len(h), used, Block-len(s.free))
	}
}

// TestChunksPointersSurviveGrowth: a pointer At returned still reads and
// writes the element after later calls grow the block index many times over.
func TestChunksPointersSurviveGrowth(t *testing.T) {
	var c Chunks[int]
	p := c.At(5)
	*p = 42
	for i := 1; i <= 64; i++ {
		*c.At(i * Block) = i
	}
	if c.At(5) != p || *p != 42 {
		t.Fatalf("At(5) moved or lost its value after growth: %d", *c.At(5))
	}
	*p = 43
	if *c.Peek(5) != 43 {
		t.Fatal("a write through the old pointer is not seen by Peek")
	}
}

// TestChunksPeekMaterializesNothing: Peek is nil for an element whose block
// was never touched, inside or beyond the index, and leaves it untouched.
func TestChunksPeekMaterializesNothing(t *testing.T) {
	c := NewChunks[int](4 * Block)
	for _, i := range []int{0, 3 * Block, 100 * Block} {
		if c.Peek(i) != nil {
			t.Fatalf("Peek(%d) of an empty array is not nil", i)
		}
	}
	c.Each(func(i int, _ *int) { t.Fatalf("Peek materialized element %d", i) })
	p := c.At(Block + 1)
	if c.Peek(Block+1) != p || c.Peek(Block) == nil || c.Peek(0) != nil || c.Peek(2*Block) != nil {
		t.Fatal("Peek disagrees with At about which block is materialized")
	}
}

// TestChunksEachInIndexOrder: Each visits every element of the touched
// blocks, ascending, and none of the untouched ones.
func TestChunksEachInIndexOrder(t *testing.T) {
	var c Chunks[int]
	*c.At(3*Block + 7) = 1
	*c.At(Block) = 2
	var got []int
	c.Each(func(i int, v *int) {
		if v != c.Peek(i) {
			t.Fatalf("Each hands element %d a pointer Peek does not return", i)
		}
		got = append(got, i)
	})
	if len(got) != 2*Block {
		t.Fatalf("Each visited %d elements, want the %d of two blocks", len(got), 2*Block)
	}
	for k, i := range got {
		want := Block + k
		if k >= Block {
			want = 3*Block + k - Block
		}
		if i != want {
			t.Fatalf("visit %d is element %d, want %d", k, i, want)
		}
	}
}

// TestChunksGrowPastPresize: an array sized for n elements still takes
// indices beyond n, and keeps what it held below n.
func TestChunksGrowPastPresize(t *testing.T) {
	c := NewChunks[int](10)
	*c.At(9) = 9
	*c.At(10*Block + 3) = 7
	if *c.At(9) != 9 || *c.Peek(10*Block + 3) != 7 {
		t.Fatal("growth past the presized index lost an element")
	}
}
