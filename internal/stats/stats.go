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
	Prefetches   int64 // always zero since PR 21; removed with the next digest re-baseline
	Barriers     int64
	GCs          int64 // garbage collections participated in

	// Fault-injection / reliability-layer counters. All zero in a
	// fault-free run.
	Retries        int64 // transport retransmissions issued by this node
	DupsSuppressed int64 // duplicate deliveries deduped at this node
	MsgsDropped    int64 // copies the faulty network ate (sent by this node)
	LinkDrops      int64 // copies eaten mid-route by a mesh link (subset of MsgsDropped)

	// PagesRehomed counts pages this node adopted as their new home
	// after the previous home crashed. Zero without crash recovery.
	PagesRehomed int64
	// MgrsRehomed counts synchronization-manager roles (lock-manager
	// slots, the barrier manager) this node adopted after the previous
	// holder crashed. Zero without crash recovery.
	MgrsRehomed int64
	// LocksReclaimed counts free lock tokens a manager revoked from a
	// crashed owner so waiting acquirers could proceed at detection time
	// instead of waiting out the outage.
	LocksReclaimed int64
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

	// ReplicaBytes counts home-state replication traffic sent by this
	// node (mirrored diffs, checkpoint pages). Zero without recovery.
	ReplicaBytes int64
	// MirrorBytes counts synchronization-manager replication traffic
	// sent by this node (lock-owner updates, barrier arrivals mirrored
	// to manager backups). Zero without recovery.
	MirrorBytes int64
	// Detect is the failure-detection latency observed by this node:
	// crash time to the moment this node declared the victim dead. Zero
	// unless this node was the reporter.
	Detect sim.Time
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
	d.Counts = Counters{
		ReadMisses:     n.Counts.ReadMisses - o.Counts.ReadMisses,
		WriteFaults:    n.Counts.WriteFaults - o.Counts.WriteFaults,
		DiffsCreated:   n.Counts.DiffsCreated - o.Counts.DiffsCreated,
		DiffsApplied:   n.Counts.DiffsApplied - o.Counts.DiffsApplied,
		PagesFetched:   n.Counts.PagesFetched - o.Counts.PagesFetched,
		LockAcquires:   n.Counts.LockAcquires - o.Counts.LockAcquires,
		LockForwards:   n.Counts.LockForwards - o.Counts.LockForwards,
		Prefetches:     n.Counts.Prefetches - o.Counts.Prefetches,
		Barriers:       n.Counts.Barriers - o.Counts.Barriers,
		GCs:            n.Counts.GCs - o.Counts.GCs,
		Retries:        n.Counts.Retries - o.Counts.Retries,
		DupsSuppressed: n.Counts.DupsSuppressed - o.Counts.DupsSuppressed,
		MsgsDropped:    n.Counts.MsgsDropped - o.Counts.MsgsDropped,
		LinkDrops:      n.Counts.LinkDrops - o.Counts.LinkDrops,
		PagesRehomed:   n.Counts.PagesRehomed - o.Counts.PagesRehomed,
		MgrsRehomed:    n.Counts.MgrsRehomed - o.Counts.MgrsRehomed,
		LocksReclaimed: n.Counts.LocksReclaimed - o.Counts.LocksReclaimed,
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
	d.ReplicaBytes = n.ReplicaBytes - o.ReplicaBytes
	d.MirrorBytes = n.MirrorBytes - o.MirrorBytes
	d.Detect = n.Detect
	return d
}

// Run aggregates a whole execution: per-node stats plus end-to-end times.
type Run struct {
	Protocol  string
	App       string
	Nodes     []*Node
	Elapsed   sim.Time // parallel execution time (max over procs)
	SeqTime   sim.Time // sequential reference time, if measured
	PhaseCaps []Phase  // optional inter-barrier captures

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

// AvgNode returns the mean of the per-node statistics.
func (r *Run) AvgNode() Node {
	var avg Node
	n := int64(len(r.Nodes))
	if n == 0 {
		return avg
	}
	var sum Node
	for _, nd := range r.Nodes {
		for i := range sum.Time {
			sum.Time[i] += nd.Time[i]
		}
		sum.Counts.ReadMisses += nd.Counts.ReadMisses
		sum.Counts.WriteFaults += nd.Counts.WriteFaults
		sum.Counts.DiffsCreated += nd.Counts.DiffsCreated
		sum.Counts.DiffsApplied += nd.Counts.DiffsApplied
		sum.Counts.PagesFetched += nd.Counts.PagesFetched
		sum.Counts.LockAcquires += nd.Counts.LockAcquires
		sum.Counts.LockForwards += nd.Counts.LockForwards
		sum.Counts.Prefetches += nd.Counts.Prefetches
		sum.Counts.Barriers += nd.Counts.Barriers
		sum.Counts.GCs += nd.Counts.GCs
		sum.Counts.Retries += nd.Counts.Retries
		sum.Counts.DupsSuppressed += nd.Counts.DupsSuppressed
		sum.Counts.MsgsDropped += nd.Counts.MsgsDropped
		sum.Counts.LinkDrops += nd.Counts.LinkDrops
		sum.Counts.PagesRehomed += nd.Counts.PagesRehomed
		sum.Counts.MgrsRehomed += nd.Counts.MgrsRehomed
		sum.Counts.LocksReclaimed += nd.Counts.LocksReclaimed
		for i := range sum.MsgsOut {
			sum.MsgsOut[i] += nd.MsgsOut[i]
			sum.Bytes[i] += nd.Bytes[i]
		}
		sum.MsgsIn += nd.MsgsIn
		sum.ProtoMemPeak += nd.ProtoMemPeak
		sum.AppMem += nd.AppMem
		sum.Recovery += nd.Recovery
		sum.ReplicaBytes += nd.ReplicaBytes
		sum.MirrorBytes += nd.MirrorBytes
		if nd.Detect > sum.Detect {
			sum.Detect = nd.Detect
		}
	}
	for i := range avg.Time {
		avg.Time[i] = sum.Time[i] / sim.Time(n)
	}
	avg.Counts.ReadMisses = sum.Counts.ReadMisses / n
	avg.Counts.WriteFaults = sum.Counts.WriteFaults / n
	avg.Counts.DiffsCreated = sum.Counts.DiffsCreated / n
	avg.Counts.DiffsApplied = sum.Counts.DiffsApplied / n
	avg.Counts.PagesFetched = sum.Counts.PagesFetched / n
	avg.Counts.LockAcquires = sum.Counts.LockAcquires / n
	avg.Counts.LockForwards = sum.Counts.LockForwards / n
	avg.Counts.Prefetches = sum.Counts.Prefetches / n
	avg.Counts.Barriers = sum.Counts.Barriers / n
	avg.Counts.GCs = sum.Counts.GCs / n
	avg.Counts.Retries = sum.Counts.Retries / n
	avg.Counts.DupsSuppressed = sum.Counts.DupsSuppressed / n
	avg.Counts.MsgsDropped = sum.Counts.MsgsDropped / n
	avg.Counts.LinkDrops = sum.Counts.LinkDrops / n
	avg.Counts.PagesRehomed = sum.Counts.PagesRehomed / n
	avg.Counts.MgrsRehomed = sum.Counts.MgrsRehomed / n
	avg.Counts.LocksReclaimed = sum.Counts.LocksReclaimed / n
	for i := range avg.MsgsOut {
		avg.MsgsOut[i] = sum.MsgsOut[i] / n
		avg.Bytes[i] = sum.Bytes[i] / n
	}
	avg.MsgsIn = sum.MsgsIn / n
	avg.ProtoMemPeak = sum.ProtoMemPeak / n
	avg.AppMem = sum.AppMem / n
	avg.Recovery = sum.Recovery / sim.Time(n)
	avg.ReplicaBytes = sum.ReplicaBytes / n
	avg.MirrorBytes = sum.MirrorBytes / n
	avg.Detect = sum.Detect // max, not mean: the run's detection latency
	return avg
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
