// Package stats collects per-node execution statistics for SVM runs: the
// execution-time breakdowns of the paper's Figure 3/4, the operation
// counts of Table 4, the communication traffic of Table 5, and the
// protocol memory requirements of Table 6.
package stats

import "gosvm/internal/sim"

// Category classifies where a node's compute processor spends its time,
// matching the stacked bars of the paper's Figure 3.
type Category int

const (
	// CatCompute is useful application computation.
	CatCompute Category = iota
	// CatData is time spent stalled on shared-data misses: the page
	// fault itself plus the wait for diffs or pages to arrive.
	CatData
	// CatGC is time spent in homeless-protocol garbage collection.
	CatGC
	// CatLock is time spent waiting for lock acquisition.
	CatLock
	// CatBarrier is time spent waiting at barriers.
	CatBarrier
	// CatProtocol is protocol overhead: twin creation, diff creation and
	// application, write-notice handling, and servicing remote requests
	// (interrupt time stolen from computation).
	CatProtocol

	NumCategories
)

var categoryNames = [NumCategories]string{
	"compute", "data", "gc", "lock", "barrier", "protocol",
}

func (c Category) String() string { return categoryNames[c] }

// Class classifies network traffic, matching the paper's Table 5 split.
type Class int

const (
	// ClassData is update traffic: diffs and full pages.
	ClassData Class = iota
	// ClassProtocol is everything else: requests, write notices, vector
	// timestamps, lock and barrier messages.
	ClassProtocol

	NumClasses
)

func (c Class) String() string {
	if c == ClassData {
		return "data"
	}
	return "protocol"
}

// Counters are the per-node protocol event counts reported in Table 4.
type Counters struct {
	ReadMisses   int64 // read faults on invalid pages
	WriteFaults  int64 // protection faults for write detection
	DiffsCreated int64
	DiffsApplied int64
	PagesFetched int64 // full-page transfers received
	LockAcquires int64 // remote lock acquires
	LockForwards int64 // acquire requests this node forwarded past itself to the token holder
	Barriers     int64
	GCs          int64 // garbage collections participated in

	// Fault-injection / reliability-layer counters. All zero in a
	// fault-free run.
	Retries        int64 // transport retransmissions issued by this node
	DupsSuppressed int64 // duplicate deliveries deduped at this node
	MsgsDropped    int64 // copies the faulty network ate (sent by this node)
}

// counterFields is the one list of the Counters fields: each one's JSON
// key and how to reach it. Summing, averaging, subtracting and the JSON
// encoding all range over it, so a new counter is declared in the struct
// and named here, nowhere else.
var counterFields = [...]struct {
	key string
	at  func(*Counters) *int64
}{
	{"read_misses", func(c *Counters) *int64 { return &c.ReadMisses }},
	{"write_faults", func(c *Counters) *int64 { return &c.WriteFaults }},
	{"diffs_created", func(c *Counters) *int64 { return &c.DiffsCreated }},
	{"diffs_applied", func(c *Counters) *int64 { return &c.DiffsApplied }},
	{"pages_fetched", func(c *Counters) *int64 { return &c.PagesFetched }},
	{"lock_acquires", func(c *Counters) *int64 { return &c.LockAcquires }},
	{"lock_forwards", func(c *Counters) *int64 { return &c.LockForwards }},
	{"barriers", func(c *Counters) *int64 { return &c.Barriers }},
	{"gcs", func(c *Counters) *int64 { return &c.GCs }},
	{"retries", func(c *Counters) *int64 { return &c.Retries }},
	{"dups_suppressed", func(c *Counters) *int64 { return &c.DupsSuppressed }},
	{"msgs_dropped", func(c *Counters) *int64 { return &c.MsgsDropped }},
}

// Node accumulates statistics for one simulated node.
type Node struct {
	Time    [NumCategories]sim.Time
	Counts  Counters
	MsgsOut [NumClasses]int64
	Bytes   [NumClasses]int64

	// MsgsIn counts unsolicited messages serviced by this node's
	// dispatchers (requests that cost an interrupt or a co-processor
	// service slot; replies to this node's own requests bypass the
	// dispatchers and are not counted). The per-node spread of MsgsIn is
	// the home hot-spot metric: a skewed home assignment concentrates
	// fetch/flush service on a few nodes.
	MsgsIn int64

	// Protocol memory accounting (diffs, twins, write notices, interval
	// records, timestamps). Peak is the high-water mark.
	ProtoMem     int64
	ProtoMemPeak int64
	// AppMem is the shared application memory instantiated on this node.
	AppMem int64

	// Recovery is simulated time spent recovering lost messages: for each
	// message that needed retransmission, the span from first send to
	// final acknowledgement. Zero in a fault-free run.
	Recovery sim.Time
}

// Add charges d to category c.
func (n *Node) Add(c Category, d sim.Time) { n.Time[c] += d }

// Sent records one outgoing message of wire size bytes.
func (n *Node) Sent(c Class, bytes int) {
	n.MsgsOut[c]++
	n.Bytes[c] += int64(bytes)
}

// MemAlloc records allocation of protocol metadata.
func (n *Node) MemAlloc(bytes int64) {
	n.ProtoMem += bytes
	if n.ProtoMem > n.ProtoMemPeak {
		n.ProtoMemPeak = n.ProtoMem
	}
}

// MemFree records release of protocol metadata.
func (n *Node) MemFree(bytes int64) {
	n.ProtoMem -= bytes
	if n.ProtoMem < 0 {
		panic("stats: protocol memory accounting went negative")
	}
}

// Total returns the sum of all time categories.
func (n *Node) Total() sim.Time {
	var t sim.Time
	for _, d := range n.Time {
		t += d
	}
	return t
}

// Snapshot returns a copy of the node stats, used for inter-barrier phase
// capture (Figure 4).
func (n *Node) Snapshot() Node { return *n }

// Sub returns the component-wise difference n - o.
func (n Node) Sub(o Node) Node {
	var d Node
	for i := range n.Time {
		d.Time[i] = n.Time[i] - o.Time[i]
	}
	for _, f := range counterFields {
		*f.at(&d.Counts) = *f.at(&n.Counts) - *f.at(&o.Counts)
	}
	for i := range n.MsgsOut {
		d.MsgsOut[i] = n.MsgsOut[i] - o.MsgsOut[i]
		d.Bytes[i] = n.Bytes[i] - o.Bytes[i]
	}
	d.MsgsIn = n.MsgsIn - o.MsgsIn
	d.ProtoMem = n.ProtoMem - o.ProtoMem
	d.ProtoMemPeak = n.ProtoMemPeak
	d.AppMem = n.AppMem
	d.Recovery = n.Recovery - o.Recovery
	return d
}

// Run aggregates a whole execution: per-node stats plus end-to-end times.
type Run struct {
	Protocol string
	App      string
	Nodes    []*Node
	Elapsed  sim.Time // parallel execution time (max over procs)
	SeqTime  sim.Time // sequential reference time, if measured

	// Serve is the open-loop serving workload's latency/throughput block
	// (offered vs. achieved rate, tail-latency histogram, saturation).
	// Nil for the closed-loop batch kernels.
	Serve *ServeStats
}

// Phase is the per-node delta between two consecutive barriers.
type Phase struct {
	Barrier int // index of the barrier that *ended* the phase
	PerNode []Node
}

// Speedup returns SeqTime/Elapsed, or 0 if either is unknown.
func (r *Run) Speedup() float64 {
	if r.SeqTime == 0 || r.Elapsed == 0 {
		return 0
	}
	return float64(r.SeqTime) / float64(r.Elapsed)
}

// Sum returns the per-node statistics added up over the run's nodes.
// ProtoMem — a level, not a count — is left zero.
func (r *Run) Sum() Node {
	var sum Node
	for _, nd := range r.Nodes {
		for i := range sum.Time {
			sum.Time[i] += nd.Time[i]
		}
		for _, f := range counterFields {
			*f.at(&sum.Counts) += *f.at(&nd.Counts)
		}
		for i := range sum.MsgsOut {
			sum.MsgsOut[i] += nd.MsgsOut[i]
			sum.Bytes[i] += nd.Bytes[i]
		}
		sum.MsgsIn += nd.MsgsIn
		sum.ProtoMemPeak += nd.ProtoMemPeak
		sum.AppMem += nd.AppMem
		sum.Recovery += nd.Recovery
	}
	return sum
}

// AvgNode returns the mean of the per-node statistics: Sum divided by
// the node count.
func (r *Run) AvgNode() Node {
	n := int64(len(r.Nodes))
	if n == 0 {
		return Node{}
	}
	avg := r.Sum()
	for i := range avg.Time {
		avg.Time[i] /= sim.Time(n)
	}
	for _, f := range counterFields {
		*f.at(&avg.Counts) /= n
	}
	for i := range avg.MsgsOut {
		avg.MsgsOut[i] /= n
		avg.Bytes[i] /= n
	}
	avg.MsgsIn /= n
	avg.ProtoMemPeak /= n
	avg.AppMem /= n
	avg.Recovery /= sim.Time(n)
	return avg
}

// MsgsInSkew is the home hot-spot metric: the hottest node's count of
// serviced unsolicited messages (MsgsIn) over the mean across nodes. 1.0
// is a perfectly even machine, a value near the node count means one
// home serves everything, and 0 means no node serviced any.
func (r *Run) MsgsInSkew() float64 {
	var max, sum int64
	for _, nd := range r.Nodes {
		sum += nd.MsgsIn
		if nd.MsgsIn > max {
			max = nd.MsgsIn
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(len(r.Nodes)))
}

// TotalMsgs returns the total number of messages sent in the run.
func (r *Run) TotalMsgs() int64 {
	var t int64
	for _, nd := range r.Nodes {
		for _, m := range nd.MsgsOut {
			t += m
		}
	}
	return t
}

// TotalBytes returns total bytes sent in the given class.
func (r *Run) TotalBytes(c Class) int64 {
	var t int64
	for _, nd := range r.Nodes {
		t += nd.Bytes[c]
	}
	return t
}

// PeakProtoMem returns the per-node maximum protocol memory high-water
// mark across the run.
func (r *Run) PeakProtoMem() int64 {
	var m int64
	for _, nd := range r.Nodes {
		if nd.ProtoMemPeak > m {
			m = nd.ProtoMemPeak
		}
	}
	return m
}

// TotalAppMem returns the shared application memory across all nodes.
func (r *Run) TotalAppMem() int64 {
	var t int64
	for _, nd := range r.Nodes {
		t += nd.AppMem
	}
	return t
}
