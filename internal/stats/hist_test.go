package stats

import (
	"encoding/json"
	"testing"

	"gosvm/internal/sim"
)

// TestBucketBoundsRoundTrip checks the bucket map is a partition: every
// bucket's bounds are contiguous with its neighbors', and every value
// inside [lo, hi) maps back to the bucket.
func TestBucketBoundsRoundTrip(t *testing.T) {
	var prevHi int64
	for i := 0; i < histBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d: lo = %d, previous hi = %d (gap or overlap)", i, lo, prevHi)
		}
		if hi <= lo {
			t.Fatalf("bucket %d: empty range [%d, %d)", i, lo, hi)
		}
		// Check the edges and an interior point map back to i.
		for _, v := range []int64{lo, hi - 1, lo + (hi-lo)/2} {
			if got := bucketOf(v); got != i {
				t.Fatalf("bucketOf(%d) = %d, want %d (bounds [%d, %d))", v, got, i, lo, hi)
			}
		}
		prevHi = hi
	}
}

// TestBucketUnitRange checks values below histSubCount land in exact
// unit-width buckets (no quantization error at the bottom).
func TestBucketUnitRange(t *testing.T) {
	for v := int64(0); v < histSubCount; v++ {
		if got := bucketOf(v); got != int(v) {
			t.Fatalf("bucketOf(%d) = %d, want exact unit bucket", v, got)
		}
		lo, hi := BucketBounds(int(v))
		if lo != v || hi != v+1 {
			t.Fatalf("BucketBounds(%d) = [%d, %d), want [%d, %d)", v, lo, hi, v, v+1)
		}
	}
}

// TestBucketRelativeError checks the log-linear scheme's promise: bucket
// width never exceeds 2/histSubCount of the bucket's lower bound.
func TestBucketRelativeError(t *testing.T) {
	for _, v := range []int64{100, 1_000, 50_000, 1_000_000, 123_456_789, 1 << 40} {
		lo, hi := BucketBounds(bucketOf(v))
		if width := hi - lo; float64(width) > 2.0/histSubCount*float64(lo) {
			t.Errorf("value %d: bucket [%d, %d) width %d exceeds relative error bound", v, lo, hi, width)
		}
	}
}

func TestQuantileEmpty(t *testing.T) {
	h := NewHist()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%g) = %v, want 0", q, got)
		}
	}
	if h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Errorf("empty histogram aggregates non-zero: min=%v max=%v mean=%v count=%d",
			h.Min(), h.Max(), h.Mean(), h.Count())
	}
}

func TestQuantileSingleSample(t *testing.T) {
	h := NewHist()
	h.Record(123_456)
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if got := h.Quantile(q); got != 123_456 {
			t.Errorf("single-sample Quantile(%g) = %v, want exact 123456", q, got)
		}
	}
}

// TestQuantileOneBucket: when every sample shares one bucket, the min/max
// clamp keeps all quantiles inside the observed [min, max].
func TestQuantileOneBucket(t *testing.T) {
	h := NewHist()
	lo, hi := BucketBounds(bucketOf(1_000_000))
	a, b := sim.Time(lo+2), sim.Time(hi-2)
	for i := 0; i < 50; i++ {
		h.Record(a)
		h.Record(b)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		got := h.Quantile(q)
		if got < a || got > b {
			t.Errorf("one-bucket Quantile(%g) = %v outside observed [%v, %v]", q, got, a, b)
		}
	}
	if h.Quantile(0) != a || h.Quantile(1) != b {
		t.Errorf("extreme quantiles not clamped to min/max: q0=%v q1=%v", h.Quantile(0), h.Quantile(1))
	}
}

// TestQuantileUniform checks interpolation accuracy on an exactly
// known distribution: 1..1000, each once. Bucketed quantiles must land
// within one bucket width of the true order statistic.
func TestQuantileUniform(t *testing.T) {
	h := NewHist()
	for v := int64(1); v <= 1000; v++ {
		h.Record(sim.Time(v))
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0, 1}, {0.5, 500}, {0.99, 990}, {1, 1000}} {
		got := int64(h.Quantile(tc.q))
		_, hi := BucketBounds(bucketOf(tc.want))
		lo, _ := BucketBounds(bucketOf(tc.want))
		tol := hi - lo + 1
		if got < tc.want-tol || got > tc.want+tol {
			t.Errorf("Quantile(%g) = %d, want %d ± bucket width %d", tc.q, got, tc.want, tol)
		}
	}
	if h.Count() != 1000 || h.Min() != 1 || h.Max() != 1000 {
		t.Errorf("aggregates wrong: count=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
	if mean := h.Mean(); mean != 500.5 {
		t.Errorf("Mean() = %g, want 500.5 (sum is exact)", mean)
	}
}

func TestHistMerge(t *testing.T) {
	a, b, both := NewHist(), NewHist(), NewHist()
	for v := int64(1); v <= 500; v++ {
		a.Record(sim.Time(v))
		both.Record(sim.Time(v))
	}
	for v := int64(10_000); v <= 10_200; v++ {
		b.Record(sim.Time(v))
		both.Record(sim.Time(v))
	}
	a.Merge(b)
	if a.Count() != both.Count() || a.Sum() != both.Sum() || a.Min() != both.Min() || a.Max() != both.Max() {
		t.Errorf("merged aggregates differ from direct recording")
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Errorf("Quantile(%g): merged %v != direct %v", q, a.Quantile(q), both.Quantile(q))
		}
	}
	// Merging an empty or nil histogram is a no-op.
	before := a.Count()
	a.Merge(NewHist())
	a.Merge(nil)
	if a.Count() != before {
		t.Errorf("merging empty/nil changed count")
	}
}

// TestHistJSONShape decodes the histogram's output into its wire struct:
// the exact aggregates are there, and the non-zero buckets ascend, equal
// the histogram's and sum to its count.
func TestHistJSONShape(t *testing.T) {
	full := NewHist()
	for v := int64(1); v <= 10_000; v += 7 {
		full.Record(sim.Time(v * v % 1_000_003))
	}
	for name, h := range map[string]*Hist{"empty": NewHist(), "full": full} {
		blob, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		var j histJSON
		if err := json.Unmarshal(blob, &j); err != nil {
			t.Fatal(err)
		}
		if j.Count != h.Count() || j.SumNs != int64(h.Sum()) || j.MinNs != int64(h.Min()) || j.MaxNs != int64(h.Max()) {
			t.Errorf("%s: aggregates %+v, histogram count %d sum %d min %d max %d",
				name, j, h.Count(), h.Sum(), h.Min(), h.Max())
		}
		var n int64
		prev := int64(-1)
		for _, b := range j.Buckets {
			if b[0] <= prev || b[0] >= histBuckets || b[1] < 1 || b[1] != h.counts[b[0]] {
				t.Fatalf("%s: bucket %v after index %d does not match the histogram", name, b, prev)
			}
			prev = b[0]
			n += b[1]
		}
		if n != h.Count() {
			t.Errorf("%s: buckets sum to %d, count is %d", name, n, h.Count())
		}
	}
}

// TestServeStatsSaturation checks the offered/achieved divergence signal
// directly on the stats block.
func TestServeStatsSaturation(t *testing.T) {
	mk := func(generated, completed int64, window, lastDone sim.Time) *ServeStats {
		return &ServeStats{Window: window, Generated: generated, Completed: completed,
			LastDone: lastDone, Latency: NewHist()}
	}
	// Steady state: all work finished within ~the window.
	healthy := mk(1000, 1000, sim.Second, sim.Second+50*sim.Millisecond)
	if healthy.Saturated() {
		t.Errorf("healthy cell flagged saturated: ratio %.3f", healthy.SaturationRatio())
	}
	// Overload: completion horizon stretched to 2x the arrival window.
	overloaded := mk(1000, 1000, sim.Second, 2*sim.Second)
	if !overloaded.Saturated() {
		t.Errorf("overloaded cell not flagged: ratio %.3f", overloaded.SaturationRatio())
	}
	if r := overloaded.SaturationRatio(); r < 0.49 || r > 0.51 {
		t.Errorf("SaturationRatio = %.3f, want ~0.5", r)
	}
}
