package slab

import "testing"

// TestFreeIsLIFO: Take returns the most recent Put first, reports an empty
// list with ok false and T's zero value, never touches what it hands back
// and leaves no reference to it in the list's backing. Holds sees exactly
// what is on the list.
func TestFreeIsLIFO(t *testing.T) {
	var l Free[*int]
	if x, ok := l.Take(); ok || x != nil || l.Len() != 0 {
		t.Fatalf("Take on an empty list = %v, %v (len %d), want nil, false", x, ok, l.Len())
	}
	objs := []*int{new(int), new(int), new(int)}
	for i, p := range objs {
		*p = i + 1
		l.Put(p)
	}
	if l.Len() != 3 || !Holds(&l, objs[1]) || Holds(&l, new(int)) {
		t.Fatalf("after three Puts: len %d, holds the second %v", l.Len(), Holds(&l, objs[1]))
	}
	for i := len(objs) - 1; i >= 0; i-- {
		x, ok := l.Take()
		if !ok || x != objs[i] || *x != i+1 {
			t.Fatalf("Take = %p, %v, want the object put %d-th from last, unchanged", x, ok, len(objs)-i)
		}
		if Holds(&l, x) {
			t.Fatalf("list still holds the object Take returned")
		}
	}
	if _, ok := l.Take(); ok || l.Len() != 0 {
		t.Fatalf("Take on the drained list succeeded (len %d)", l.Len())
	}
	for i, p := range l.items[:cap(l.items)] {
		if p != nil {
			t.Fatalf("drained list's backing still references object %d", i)
		}
	}
}

// TestFreeCycleAllocatesNothing: Take keeps the backing, so once a list has
// held n objects, Take/Put cycles of up to n objects allocate nothing.
func TestFreeCycleAllocatesNothing(t *testing.T) {
	const n = 64
	var l Free[*int]
	objs := make([]*int, n)
	for i := range objs {
		objs[i] = new(int)
	}
	cycle := func() {
		for _, p := range objs {
			l.Put(p)
		}
		for l.Len() > 0 {
			l.Take()
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a Take/Put cycle of %d objects allocates %.1f times, want 0", n, allocs)
	}
}
