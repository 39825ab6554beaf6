package mem

import (
	"math"
	"testing"
)

func TestPoolPageRoundTrip(t *testing.T) {
	p := NewPool(8)
	a := p.GetPage()
	if len(a) != 8 {
		t.Fatalf("GetPage len = %d, want 8", len(a))
	}
	a[0] = 42
	p.PutPage(a)
	b := p.GetPage()
	if &a[0] != &b[0] {
		t.Fatal("PutPage buffer was not recycled")
	}
	// Wrong-sized buffers must be rejected, not poison the free list.
	p.PutPage(make([]float64, 4))
	c := p.GetPage()
	if len(c) != 8 {
		t.Fatalf("pool handed out a wrong-sized page: len %d", len(c))
	}
}

func TestPoolNilReceiver(t *testing.T) {
	var p *Pool
	p.PutPage(make([]float64, 8)) // must not panic
	d := ComputeDiffPooled(nil, 0, []float64{0, 1}, []float64{5, 1})
	if d.Words() != 1 {
		t.Fatal("unpooled ComputeDiffPooled broken")
	}
	d.Release(nil) // unpooled release is a no-op
	d.Release(nil) // and safe twice
}

// TestPooledDiffReuseExactness recycles one dirty backing through diffs of
// different shapes, including NaN payloads and signed zeros: reused (never
// zeroed) buffers must not leak stale bits into any run.
func TestPooledDiffReuseExactness(t *testing.T) {
	pool := NewPool(16)
	nan1 := math.NaN()
	nan2 := math.Float64frombits(math.Float64bits(nan1) ^ 1)
	negZero := math.Copysign(0, -1)

	// First diff dirties a backing with large values, then frees it.
	twin := make([]float64, 16)
	cur := make([]float64, 16)
	for i := range cur {
		cur[i] = 1e18
	}
	d := ComputeDiffPooled(pool, 0, twin, cur)
	if d.Words() != 16 {
		t.Fatalf("setup diff words = %d", d.Words())
	}
	d.Release(pool)

	// Second diff reuses the dirty backing for tricky bit patterns.
	twin2 := []float64{nan1, 0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	cur2 := append([]float64(nil), twin2...)
	cur2[0] = nan2    // NaN payload change
	cur2[1] = negZero // signed-zero change
	cur2[5] = 1e18    // same value the stale buffer holds
	d2 := ComputeDiffPooled(pool, 0, twin2, cur2)
	if d2.Words() != 3 {
		t.Fatalf("reused-backing diff words = %d, want 3", d2.Words())
	}
	dst := append([]float64(nil), twin2...)
	d2.Apply(dst)
	for i := range cur2 {
		if math.Float64bits(dst[i]) != math.Float64bits(cur2[i]) {
			t.Fatalf("word %d: got %x want %x after pooled round-trip",
				i, math.Float64bits(dst[i]), math.Float64bits(cur2[i]))
		}
	}
	d2.Release(pool)
	if d2.Runs != nil {
		t.Fatal("Release did not empty the diff")
	}
	d2.Release(pool) // double release is a no-op
}

func TestTwinPooling(t *testing.T) {
	pool := NewPool(8)
	s := NewSpace(64) // 8 words
	s.Alloc(s.PageWords)
	tb := NewTable(s)
	p := tb.Page(0)
	p.Data = make([]float64, 8)
	p.Data[2] = 7
	p.MakeTwin(pool)
	twin0 := p.Twin
	if twin0[2] != 7 {
		t.Fatal("pooled twin does not snapshot data")
	}
	p.DropTwin(pool)
	p.Data[2] = 9
	p.MakeTwin(pool)
	if &p.Twin[0] != &twin0[0] {
		t.Fatal("dropped twin buffer was not recycled")
	}
	if p.Twin[2] != 9 {
		t.Fatal("recycled twin holds stale contents")
	}
	p.DropTwin(pool)
}

// TestComputeDiffPooledAllocs pins the hot-path allocation count: with a
// warm pool, a diff costs exactly one allocation (the runs slice).
func TestComputeDiffPooledAllocs(t *testing.T) {
	pool := NewPool(1024)
	twin := make([]float64, 1024)
	cur := make([]float64, 1024)
	for i := 0; i < 1024; i += 16 {
		cur[i] = 1
	}
	// Warm the pool so the backing is recycled.
	warm := ComputeDiffPooled(pool, 0, twin, cur)
	warm.Release(pool)
	allocs := testing.AllocsPerRun(100, func() {
		d := ComputeDiffPooled(pool, 0, twin, cur)
		d.Release(pool)
	})
	if allocs > 1 {
		t.Errorf("ComputeDiffPooled+Release = %.1f allocs/op, want <= 1", allocs)
	}
}
