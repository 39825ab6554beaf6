package stats

import (
	"encoding/json"
	"math"
	"math/bits"

	"gosvm/internal/sim"
)

// Hist is an HDR-style log-bucketed latency histogram for per-operation
// service times on the simulated clock. Values below histSubCount
// nanoseconds land in exact unit-width buckets; each octave above that
// is split into histSubCount/2 linear sub-buckets, bounding the relative
// quantization error at 2/histSubCount (~3%) while keeping the bucket
// array small and fixed-size. Recording is O(1) and allocation-free;
// merging and quantile extraction are linear in the bucket count.
//
// The zero value is not ready to use; call NewHist.
type Hist struct {
	counts []int64
	count  int64
	sum    int64
	min    int64
	max    int64
}

const (
	// histSubBits fixes the sub-bucket resolution: 2^histSubBits unit
	// buckets at the bottom, 2^(histSubBits-1) sub-buckets per octave
	// above.
	histSubBits  = 6
	histSubCount = 1 << histSubBits // 64

	// histOctaves covers values up to 2^62 ns (~146 simulated years),
	// far beyond any run length.
	histOctaves = 63 - histSubBits

	histBuckets = histSubCount + histOctaves*histSubCount/2
)

// NewHist returns an empty histogram.
func NewHist() *Hist {
	return &Hist{counts: make([]int64, histBuckets), min: -1}
}

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	u := uint64(v)
	if u < histSubCount {
		return int(u)
	}
	m := bits.Len64(u) - 1 // 2^m <= u < 2^(m+1), m >= histSubBits
	oct := m - histSubBits
	sub := (u - 1<<uint(m)) >> uint(m-histSubBits+1)
	return histSubCount + oct*histSubCount/2 + int(sub)
}

// BucketBounds returns the half-open value range [lo, hi) of bucket i.
func BucketBounds(i int) (lo, hi int64) {
	if i < histSubCount {
		return int64(i), int64(i) + 1
	}
	j := i - histSubCount
	m := histSubBits + j/(histSubCount/2)
	sub := int64(j % (histSubCount / 2))
	width := int64(1) << uint(m-histSubBits+1)
	lo = 1<<uint(m) + sub*width
	hi = lo + width
	if hi < lo {
		hi = math.MaxInt64 // the top bucket clips at the int64 ceiling
	}
	return lo, hi
}

// Record adds one sample. Negative samples are clamped to zero (they can
// only arise from programming errors upstream; clamping keeps the
// histogram total consistent with the op count).
func (h *Hist) Record(v sim.Time) {
	n := int64(v)
	if n < 0 {
		n = 0
	}
	h.counts[bucketOf(n)]++
	h.count++
	h.sum += n
	if h.min < 0 || n < h.min {
		h.min = n
	}
	if n > h.max {
		h.max = n
	}
}

// Merge folds o into h. Merging preserves exact counts, sums, and
// min/max; quantiles of the merged histogram carry the same bounded
// bucket error as recording directly.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.count == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if h.min < 0 || (o.min >= 0 && o.min < h.min) {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of recorded samples.
func (h *Hist) Count() int64 { return h.count }

// Sum returns the sum of all recorded samples.
func (h *Hist) Sum() sim.Time { return sim.Time(h.sum) }

// Min returns the smallest recorded sample (0 when empty).
func (h *Hist) Min() sim.Time {
	if h.min < 0 {
		return 0
	}
	return sim.Time(h.min)
}

// Max returns the largest recorded sample (0 when empty).
func (h *Hist) Max() sim.Time { return sim.Time(h.max) }

// Mean returns the arithmetic mean of the samples (0 when empty).
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the q-quantile (0 <= q <= 1) with linear
// interpolation inside the containing bucket, clamped to the exact
// observed [Min, Max] so degenerate histograms (empty, single sample,
// all samples in one bucket) stay exact. Empty histograms return 0.
func (h *Hist) Quantile(q float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	// The extreme quantiles are tracked exactly.
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return sim.Time(h.max)
	}
	// rank is the 1-based index of the sample the quantile falls on.
	rank := int64(q*float64(h.count-1)) + 1
	var seen int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo, hi := BucketBounds(i)
			// Interpolate by the rank's position within this bucket.
			frac := float64(rank-seen-1) / float64(c)
			v := int64(float64(lo) + frac*float64(hi-lo))
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return sim.Time(v)
		}
		seen += c
	}
	return sim.Time(h.max)
}

// P50, P99 and P999 are the tail-latency quantiles reported by the
// serving workload tables.
func (h *Hist) P50() sim.Time  { return h.Quantile(0.50) }
func (h *Hist) P99() sim.Time  { return h.Quantile(0.99) }
func (h *Hist) P999() sim.Time { return h.Quantile(0.999) }

// histJSON is the stable wire shape: exact aggregates, derived
// percentiles for human consumption, and the sparse non-zero buckets
// (ascending [index, count] pairs), from which the whole histogram can be
// rebuilt.
type histJSON struct {
	Count   int64      `json:"count"`
	MinNs   int64      `json:"min_ns"`
	MaxNs   int64      `json:"max_ns"`
	SumNs   int64      `json:"sum_ns"`
	P50Ns   int64      `json:"p50_ns"`
	P99Ns   int64      `json:"p99_ns"`
	P999Ns  int64      `json:"p999_ns"`
	Buckets [][2]int64 `json:"buckets"`
}

// MarshalJSON emits the histogram in a stable machine-readable shape.
// Percentile fields are derived from the buckets.
func (h *Hist) MarshalJSON() ([]byte, error) {
	j := histJSON{
		Count:   h.count,
		MinNs:   int64(h.Min()),
		MaxNs:   h.max,
		SumNs:   h.sum,
		P50Ns:   int64(h.P50()),
		P99Ns:   int64(h.P99()),
		P999Ns:  int64(h.P999()),
		Buckets: [][2]int64{},
	}
	for i, c := range h.counts {
		if c != 0 {
			j.Buckets = append(j.Buckets, [2]int64{int64(i), c})
		}
	}
	return json.Marshal(j)
}

// ServeStats is the open-loop serving workload's result block: offered
// vs. achieved throughput, the tail-latency histogram, and saturation
// detection. Attached to Run.Serve by the serve package and emitted in
// the run JSON as the "serve" object.
type ServeStats struct {
	// Window is the arrival window: requests are generated over
	// simulated [0, Window).
	Window sim.Time
	// Generated is the number of requests the arrival processes
	// produced; Completed counts the ones served (equal unless the run
	// failed). Gets/Puts/Scans split Completed by operation.
	Generated int64
	Completed int64
	Gets      int64
	Puts      int64
	Scans     int64
	// LastDone is when the final request completed. For an unsaturated
	// server it tracks the arrival window closely; when the server
	// saturates the backlog pushes it far past Window.
	LastDone sim.Time
	// Busy totals the time nodes spent serving requests (as opposed to
	// idling between arrivals); MaxUtil is the highest per-node busy
	// fraction of its serving span — ~1.0 means that node's queue never
	// drained, the queue-side view of saturation.
	Busy    sim.Time
	MaxUtil float64
	// Latency is the per-operation latency histogram: completion minus
	// arrival, on the simulated clock.
	Latency *Hist

	// Fast-path counters. All zero when the serving fast path is off.
	// SeqlockReads counts gets/scans served lock-free against the home
	// copy; SeqlockRetries counts torn-read retries (an odd version word
	// observed); SeqlockFallbacks counts lock-free-eligible operations
	// that ended up taking the lock anyway (K torn reads in a row, or a
	// protocol with no home copy to validate against).
	SeqlockReads     int64
	SeqlockRetries   int64
	SeqlockFallbacks int64
	// LockAcquires and LockForwards sum the per-node protocol counters:
	// remote lock acquisitions and acquire requests forwarded past their
	// manager to the current token holder. The serving fast path exists
	// to drive both toward zero on the get-dominated mix.
	LockAcquires int64
	LockForwards int64
}

// saturationFraction is the achieved/offered ratio below which the
// server is declared saturated: completing the offered work stretched
// the completion horizon more than ~11% past the arrival window, which
// an open-loop server in steady state never does.
const saturationFraction = 0.9

// OfferedRate returns the offered load in requests per simulated second.
func (s *ServeStats) OfferedRate() float64 {
	if s.Window == 0 {
		return 0
	}
	return float64(s.Generated) / (float64(s.Window) / float64(sim.Second))
}

// AchievedRate returns the completed throughput in requests per
// simulated second, measured over the full span to the last completion.
func (s *ServeStats) AchievedRate() float64 {
	if s.LastDone == 0 {
		return 0
	}
	return float64(s.Completed) / (float64(s.LastDone) / float64(sim.Second))
}

// horizon is the effective serving span used for saturation detection:
// the completion horizon less one median latency of residual drain,
// floored at the arrival window. An unsaturated server always finishes
// its final request within about one op latency of the window closing,
// so granting that grace keeps short windows (a handful of op latencies)
// from reading as divergence; under real overload the backlog pushes
// LastDone many median latencies past the window and the grace is noise.
func (s *ServeStats) horizon() sim.Time {
	h := s.LastDone
	if s.Latency != nil {
		h -= s.Latency.P50()
	}
	if h < s.Window {
		h = s.Window
	}
	return h
}

// SaturationRatio compares the completed rate over the effective horizon
// against the offered rate: ~1 below capacity, dropping toward
// capacity/offered as the open-loop backlog grows.
func (s *ServeStats) SaturationRatio() float64 {
	off := s.OfferedRate()
	if off == 0 || s.LastDone == 0 {
		return 0
	}
	achieved := float64(s.Completed) / (float64(s.horizon()) / float64(sim.Second))
	return achieved / off
}

// Saturated reports whether the offered load exceeded the serving
// capacity (offered vs. completed rate divergence).
func (s *ServeStats) Saturated() bool {
	return s.SaturationRatio() < saturationFraction
}

// serveJSON is the stable wire shape of the serve block.
type serveJSON struct {
	WindowNs   int64   `json:"window_ns"`
	Generated  int64   `json:"generated"`
	Completed  int64   `json:"completed"`
	Gets       int64   `json:"gets"`
	Puts       int64   `json:"puts"`
	Scans      int64   `json:"scans"`
	LastDoneNs int64   `json:"last_done_ns"`
	BusyNs     int64   `json:"busy_ns"`
	MaxUtil    float64 `json:"max_utilization"`
	Offered    float64 `json:"offered_req_s"`
	Achieved   float64 `json:"achieved_req_s"`
	SatRatio   float64 `json:"saturation_ratio"`
	Saturated  bool    `json:"saturated"`
	Latency    *Hist   `json:"latency"`

	SeqlockReads     int64 `json:"seqlock_reads,omitempty"`
	SeqlockRetries   int64 `json:"seqlock_retries,omitempty"`
	SeqlockFallbacks int64 `json:"seqlock_fallbacks,omitempty"`
	LockAcquires     int64 `json:"lock_acquires,omitempty"`
	LockForwards     int64 `json:"lock_forwards,omitempty"`
}

// MarshalJSON emits the serve block with derived rates included.
func (s *ServeStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(serveJSON{
		WindowNs:   int64(s.Window),
		Generated:  s.Generated,
		Completed:  s.Completed,
		Gets:       s.Gets,
		Puts:       s.Puts,
		Scans:      s.Scans,
		LastDoneNs: int64(s.LastDone),
		BusyNs:     int64(s.Busy),
		MaxUtil:    s.MaxUtil,
		Offered:    s.OfferedRate(),
		Achieved:   s.AchievedRate(),
		SatRatio:   s.SaturationRatio(),
		Saturated:  s.Saturated(),
		Latency:    s.Latency,

		SeqlockReads:     s.SeqlockReads,
		SeqlockRetries:   s.SeqlockRetries,
		SeqlockFallbacks: s.SeqlockFallbacks,
		LockAcquires:     s.LockAcquires,
		LockForwards:     s.LockForwards,
	})
}
