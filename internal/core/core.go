// Package core implements the paper's four shared-virtual-memory
// protocols on the simulated Paragon:
//
//   - LRC: the standard homeless lazy release consistency protocol
//     (TreadMarks-style), with lazy diffs, distributed diff fetch, and
//     garbage collection at barriers.
//   - OLRC: LRC with diff creation and remote fetch service overlapped on
//     the communication co-processor.
//   - HLRC: the paper's contribution — home-based LRC. Diffs are computed
//     at the end of each interval, sent to the page's home, applied there
//     eagerly, and discarded; faults fetch whole pages from the home.
//   - OHLRC: HLRC with diff creation, diff application, and page service
//     overlapped on the communication co-processors.
//
// All four share the synchronization machinery in this package:
// round-robin distributed lock managers with request forwarding and a
// barrier, both carrying coherence information (write notices) exactly as
// the paper describes. The barrier is one k-ary tree whose every release
// answers the arrival it releases: up to BarrierCrossover nodes every node
// is a child of the manager, the paper's centralized barrier, and above it
// the tree has fan-in 8.
package core

import (
	"fmt"

	"gosvm/internal/fault"
	"gosvm/internal/mem"
	"gosvm/internal/sim"
	"gosvm/internal/vc"
)

// Protocol identifies one of the simulated coherence protocols. The
// zero value is invalid; use ParseProtocol to validate external input.
type Protocol string

// Protocols accepted by Options.Protocol.
const (
	ProtoSeq   Protocol = "seq" // sequential baseline: direct memory, no coherence
	ProtoLRC   Protocol = "lrc"
	ProtoOLRC  Protocol = "olrc"
	ProtoHLRC  Protocol = "hlrc"
	ProtoOHLRC Protocol = "ohlrc"
)

// String returns the protocol's canonical name.
func (p Protocol) String() string { return string(p) }

// HomeBased reports whether the protocol keeps per-page state at a home
// node.
func (p Protocol) HomeBased() bool { return p == ProtoHLRC || p == ProtoOHLRC }

// ParseProtocol validates a protocol name.
func ParseProtocol(s string) (Protocol, error) {
	switch p := Protocol(s); p {
	case ProtoSeq, ProtoLRC, ProtoOLRC, ProtoHLRC, ProtoOHLRC:
		return p, nil
	}
	return "", fmt.Errorf("core: unknown protocol %q (have seq, lrc, olrc, hlrc, ohlrc)", s)
}

// Protocols lists the four SVM protocols in the paper's presentation
// order.
var Protocols = []Protocol{ProtoLRC, ProtoOLRC, ProtoHLRC, ProtoOHLRC}

// Recovery is inert: a crashed node keeps all its state and every role it
// holds is waited out, so there is no page state to replicate and nothing
// reads it.
//
// Deprecated: it remains only because the repository benchmark still sets
// Options.Recovery; delete both once it stops.
type Recovery struct {
	Replicas int
}

// Options configures a run.
type Options struct {
	Protocol  Protocol
	PageBytes int

	// Machine describes the simulated multicomputer: nodes, topology and
	// costs. The barrier follows from the node count.
	Machine Machine

	// GCThreshold is the per-node protocol memory (bytes) above which the
	// homeless protocols garbage-collect at the next barrier. Zero means
	// the TreadMarks-like default, 8 MB; a negative value is an error.
	GCThreshold int64

	// HomeRoundRobin ignores the application's home placement and assigns
	// homes round-robin (ablation).
	HomeRoundRobin bool

	// TraceLimit enables protocol event tracing, retaining up to this
	// many events (negative = unlimited). Zero disables tracing.
	TraceLimit int

	// Fault configures deterministic fault injection (message drops,
	// duplicates, delays, reordering, node slowdowns) plus the transport
	// reliability layer that recovers from it. The zero Plan is inert:
	// no injector is built and the message path — and therefore every
	// statistic — is exactly the fault-free one.
	Fault fault.Plan

	// Recovery is ignored.
	//
	// Deprecated: see Recovery.
	Recovery Recovery

	// RunWorkers is ignored: every run executes on one event heap.
	//
	// Deprecated: it remains only because the repository benchmark still
	// sets it; delete it once it stops.
	RunWorkers int
}

// Defaults fills unset fields.
func (o *Options) Defaults() {
	if o.Protocol == "" {
		o.Protocol = ProtoHLRC
	}
	o.Machine.Defaults()
	if o.PageBytes == 0 {
		o.PageBytes = 4096
	}
	if o.GCThreshold == 0 {
		o.GCThreshold = 8 << 20
	}
}

// Overlapped reports whether the protocol uses the co-processor.
func (o *Options) Overlapped() bool {
	return o.Protocol == ProtoOLRC || o.Protocol == ProtoOHLRC
}

// Message kinds.
const (
	kLockAcq    = iota + 1 // requester -> lock manager
	kLockFwd               // manager -> current owner
	kBarrier               // node -> its parent in the barrier tree
	kGCDone                // node -> barrier manager (homeless GC rendezvous)
	kFetchDiffs            // faulting node -> writer (LRC/OLRC)
	kFetchPage             // faulting node -> copy holder / home
	kDiffFlush             // writer -> home (HLRC), or coproc-to-home (OHLRC)
	kMakeDiff              // compute -> own coproc (overlapped protocols)

	numKinds = kMakeDiff + 1
)

// IntervalRec is the write-notice record for one interval: the pages the
// processor modified. In the homeless protocols the record carries the
// full vector timestamp (needed to order diffs), which is the paper's
// explanation for their metadata growth; the home-based protocols omit it.
// The timestamp is stored sparsely: at large machine sizes only the
// active writers have non-zero components, so both the wire and memory
// cost are O(writers), not O(nodes).
//
// There is one record per interval in the whole machine: every grant,
// barrier report, log and write notice holds the pointer newIntervalRec
// made, and nothing writes to a record after that. What a protocol ships
// or stores of it is therefore an argument of the size functions (withVC),
// not a property of a private copy.
type IntervalRec struct {
	Proc     int
	Interval int32
	VC       *vc.Sparse
	Pages    []int32
}

// Stamp returns the interval's identity for happens-before ordering.
func (r *IntervalRec) Stamp() vc.Stamp {
	return vc.Stamp{Proc: r.Proc, Interval: r.Interval, VC: r.VC}
}

// wireSize returns the encoded size of the record in bytes.
func (r *IntervalRec) wireSize(withVC bool) int {
	sz := 8 + 4*len(r.Pages)
	if withVC {
		sz += r.VC.WireSize()
	}
	return sz
}

// memSize returns the in-memory footprint for protocol memory accounting.
func (r *IntervalRec) memSize(withVC bool) int64 {
	sz := int64(48) + 4*int64(len(r.Pages))
	if withVC {
		sz += int64(r.VC.WireSize())
	}
	return sz
}

func recsWireSize(recs []*IntervalRec, withVC bool) int {
	sz := 4
	for _, r := range recs {
		sz += r.wireSize(withVC)
	}
	return sz
}

// grantInfo is the coherence payload piggybacked on lock grants and
// barrier releases.
type grantInfo struct {
	VC        vc.VC // the releaser's / manager's merged vector clock
	Intervals []*IntervalRec
	GC        bool // homeless protocols: run garbage collection (barrier only)
}

func (g *grantInfo) wireSize(withVC bool) int {
	return g.VC.WireSize() + recsWireSize(g.Intervals, withVC)
}

// Engine is one node's protocol instance. Fault and synchronization entry
// points run on the application proc and may block; message handlers are
// installed on the node's dispatchers at construction.
type Engine interface {
	// ReadFault and WriteFault bring the page to a readable / writable
	// state. They run on the application proc.
	ReadFault(page int)
	WriteFault(page int)
	// Acquire, Release and Barrier implement the Splash-2 synchronization
	// primitives.
	Acquire(lock int)
	Release(lock int)
	Barrier(id int)
	// Finish is called once after the worker (and any gather phase)
	// completes, letting engines verify internal invariants.
	Finish()
}

// handler is how an engine of type E services one message kind: work
// returns the service time, taken when the dispatcher takes the message,
// and apply is the effect, run once that time has elapsed. Each engine has
// one table of them, indexed by kind, for both of its dispatchers: which
// processor runs a kind is the sender's choice of Target, not the
// receiver's.
type handler[E any] struct {
	work  func(E, *service) sim.Time
	apply func(E, *service)
}

// handlerOf returns t's handler for kind; a kind t does not serve panics.
func handlerOf[E any](t *[numKinds]handler[E], kind int) *handler[E] {
	if kind <= 0 || kind >= numKinds || t[kind].work == nil {
		badKind(kind)
	}
	return &t[kind]
}

func badKind(kind int) {
	panic(fmt.Sprintf("core: unexpected message kind %d", kind))
}

// msgKindNames names each message kind, indexed by kind.
var msgKindNames = [...]string{
	kLockAcq: "lock-acquire", kLockFwd: "lock-forward", kBarrier: "barrier",
	kGCDone: "gc-done", kFetchDiffs: "fetch-diffs", kFetchPage: "fetch-page",
	kDiffFlush: "diff-flush", kMakeDiff: "make-diff",
}

// msgKindName renders protocol message kinds for fault watchdog reports.
func msgKindName(kind int) string {
	if kind > 0 && kind < len(msgKindNames) {
		return msgKindNames[kind]
	}
	return fmt.Sprintf("kind-%d", kind)
}

// pageWN is one write notice attached to a page on a node that has not
// yet brought the page up to date.
type pageWN struct {
	rec  *IntervalRec // the interval this notice came from
	diff *mem.Diff    // LRC: fetched diff, nil until fetched
}
