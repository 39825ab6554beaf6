package stats

import (
	"bytes"
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

// TestHistJSONRoundTrip: marshal → unmarshal → marshal must be
// byte-identical, with derived percentiles recomputed from the buckets.
func TestHistJSONRoundTrip(t *testing.T) {
	h := NewHist()
	for v := int64(1); v <= 10_000; v += 7 {
		h.Record(sim.Time(v * v % 1_000_003))
	}
	first, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Hist
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("JSON round-trip not byte-identical:\n%s\n%s", first, second)
	}
	if back.Count() != h.Count() || back.Sum() != h.Sum() || back.Min() != h.Min() || back.Max() != h.Max() {
		t.Errorf("round-trip lost aggregates")
	}
}

func TestHistJSONRoundTripEmpty(t *testing.T) {
	h := NewHist()
	first, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Hist
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("empty-histogram round-trip not byte-identical:\n%s\n%s", first, second)
	}
	if back.Quantile(0.5) != 0 {
		t.Errorf("restored empty histogram Quantile(0.5) = %v, want 0", back.Quantile(0.5))
	}
}

// corruptHistJSON are histogram blobs UnmarshalJSON must refuse.
var corruptHistJSON = []string{
	`{"count":1,"buckets":[[99999,1]]}`,                       // index out of range
	`{"count":2,"buckets":[[10,1]]}`,                          // count mismatch
	`{"count":1,"buckets":[[-1,1]]}`,                          // negative index
	`{"count":2,"buckets":[[10,1],[10,1]]}`,                   // repeated index
	`{"count":2,"buckets":[[11,1],[10,1]]}`,                   // descending
	`{"count":0,"buckets":[[10,-1],[11,1]]}`,                  // negative count
	`{"count":1,"buckets":[[10,9223372036854775807],[11,2]]}`, // counts overflow
}

// corruptServeJSON are serve blocks whose derived rates would not be
// finite; UnmarshalJSON must refuse them.
var corruptServeJSON = []string{
	`{"window_ns":-1,"generated":1,"completed":1,"last_done_ns":5,"latency":{"count":1,"min_ns":5,"max_ns":5,"sum_ns":5,"buckets":[[5,1]]}}`,
	`{"window_ns":0,"last_done_ns":5}`,
	`{"window_ns":5,"last_done_ns":-5}`,
}

// TestHistJSONRejectsCorrupt checks the unmarshal-side validation.
func TestHistJSONRejectsCorrupt(t *testing.T) {
	for _, bad := range corruptHistJSON {
		var h Hist
		if err := json.Unmarshal([]byte(bad), &h); err == nil {
			t.Errorf("unmarshal accepted corrupt input %s", bad)
		}
	}
	for _, bad := range corruptServeJSON {
		var s ServeStats
		if err := json.Unmarshal([]byte(bad), &s); err == nil {
			t.Errorf("unmarshal accepted corrupt serve block %s", bad)
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

// sampleServeStats is a small but fully populated serve block.
func sampleServeStats() *ServeStats {
	s := &ServeStats{
		Window: 50 * sim.Millisecond, Generated: 100, Completed: 100,
		Gets: 80, Puts: 15, Scans: 5, LastDone: 60 * sim.Millisecond,
		Busy: 40 * sim.Millisecond, MaxUtil: 0.8, Latency: NewHist(),
	}
	for i := 0; i < 100; i++ {
		s.Latency.Record(sim.Time(1+i) * sim.Microsecond)
	}
	return s
}

// TestServeStatsJSONRoundTrip checks the serve block wire shape.
func TestServeStatsJSONRoundTrip(t *testing.T) {
	first, err := json.Marshal(sampleServeStats())
	if err != nil {
		t.Fatal(err)
	}
	var back ServeStats
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("serve block round-trip not byte-identical:\n%s\n%s", first, second)
	}
}

// FuzzHistJSON feeds arbitrary bytes to the histogram and serve-block
// decoders, which read result files back from disk. Neither may panic,
// and anything either accepts must reach a fixed point: marshal,
// unmarshal, marshal again gives the same bytes.
func FuzzHistJSON(f *testing.F) {
	for _, bad := range append(corruptHistJSON, corruptServeJSON...) {
		f.Add([]byte(bad))
	}
	blob, err := json.Marshal(sampleServeStats())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Hist
		if h.UnmarshalJSON(data) == nil {
			jsonFixedPoint(t, "histogram", &h, new(Hist))
		}
		var s ServeStats
		if s.UnmarshalJSON(data) == nil {
			jsonFixedPoint(t, "serve block", &s, new(ServeStats))
		}
	})
}

// jsonFixedPoint checks that a decoded value marshals, that the result
// decodes into fresh, and that fresh marshals to the same bytes.
func jsonFixedPoint(t *testing.T, what string, decoded, fresh interface {
	json.Marshaler
	json.Unmarshaler
}) {
	t.Helper()
	first, err := decoded.MarshalJSON()
	if err != nil {
		t.Fatalf("accepted %s does not marshal: %v", what, err)
	}
	if err := fresh.UnmarshalJSON(first); err != nil {
		t.Fatalf("%s rejects its own output %s: %v", what, first, err)
	}
	second, err := fresh.MarshalJSON()
	if err != nil {
		t.Fatalf("re-decoded %s does not marshal: %v", what, err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("%s is not a fixed point:\n%s\n%s", what, first, second)
	}
}
