package core

import (
	"fmt"
	"slices"
	"sort"

	"gosvm/internal/mem"
	"gosvm/internal/paragon"
	"gosvm/internal/sim"
	"gosvm/internal/slab"
	"gosvm/internal/stats"
	"gosvm/internal/trace"
	"gosvm/internal/vc"
)

// coherence is the protocol-specific half of an engine, used by the shared
// synchronization machinery in base.
type coherence interface {
	// closeCost returns the compute cost of ending the current interval
	// (diff creation or co-processor posting, page reprotection).
	closeCost() sim.Time
	// closeCommit ends the current interval: records the interval, emits
	// write notices, and performs update propagation. It must be called
	// exactly once per closeCost, after the cost has been charged.
	closeCommit()
	// noticePage integrates one incoming write notice for a page that
	// takes notices eagerly (base.eager): charge it, invalidate the local
	// copy and record protocol-specific per-page state. Returns the
	// invalidation cost to charge.
	noticePage(rec *IntervalRec, page int) sim.Time
	// foldNotice records a deferred notice in the page's slot as noticePage
	// would have, without its charge (learn made it) or an invalidation
	// (the page has no copy).
	foldNotice(rec *IntervalRec, page int)
	// onBarrierRelease runs protocol-specific end-of-barrier work on the
	// application proc (GC for the homeless protocols, log pruning for
	// the home-based ones).
	onBarrierRelease(g *grantInfo)
	// work and apply service the message in s through the engine's
	// handler for its kind (handler).
	work(s *service) sim.Time
	apply(s *service)
}

// base carries the state and algorithms shared by all protocol engines:
// the vector clock, the interval log, the twin-and-diff lifecycle of a
// written page, distributed lock management, and the barriers.
type base struct {
	sys  *System
	node *paragon.Node
	self int
	co   coherence

	// overlapped is set under OLRC and OHLRC: diffs are computed, and
	// data-plane requests served, on the communication co-processor.
	overlapped bool

	clock vc.VC
	pt    *mem.Table

	// dirty is the ordered set of pages written in the open interval.
	dirty []int32

	// log holds known interval records per processor, ascending by
	// interval index. Homeless protocols prune it at GC; home-based ones
	// at every barrier. Records are shared machine-wide (see IntervalRec);
	// each list lives in logRuns (slab.Slab.Push) and is compacted in place.
	log     [][]*IntervalRec
	logRuns slab.Slab[*IntervalRec]
	// pairs is where this node's per-page vectors grow: HLRC's seen and
	// flush vectors, LRC's applied vectors (vc.Arena).
	pairs vc.Arena

	// eager marks the pages that take write notices as they arrive: the
	// ones this node homes, from the start, and each page from its first
	// fault on (resolve). A notice for any other page has nothing to
	// invalidate, and only the page's first fault reads it, so learn
	// defers it: the record joins deferred, in delivery order, and the
	// page's slot is built from it at that fault or at the next fold. The
	// list starts at slab.Block records, and a fold keeps its backing for
	// the records that follow. deferredPairs counts the (record, page)
	// pairs in deferred, scanned those resolve has walked since the last
	// fold (foldEvery).
	eager         pageSet
	deferred      []*IntervalRec
	deferredPairs int
	scanned       int
	// charged marks the pages whose requirement vector a deferred notice
	// has charged (HLRC: base.vecBytes at a page's first notice); nil under
	// LRC, which charges wnEntryBytes for every notice instead.
	charged pageSet

	locks map[int]*lockState
	// lockStates backs the records locks points to.
	lockStates slab.Slab[lockState]

	// lastReported is the highest own interval index sent to the barrier
	// manager.
	lastReported int32

	bar barrierNode

	// compute and coproc hold the message each of the node's dispatchers
	// is servicing (service).
	compute, coproc service

	// lock and rep are this node's lock-acquire request and barrier
	// arrival: its one body of each kind, refilled by every remote Acquire
	// and every Barrier. The server writes its answer into their Grant
	// (DESIGN §9 "No object per serviced message").
	lock lockReq
	rep  barrierReport
}

// lockState is one node's view of one lock. The manager forwards each
// acquire to the previous requester, and that node asks again only after
// its own acquire has returned: the forwarding chain is a distributed queue
// with one waiter per holder, so a node has at most one request to pass the
// token on to (waitFor).
type lockState struct {
	owner  bool        // this node holds the lock token
	held   bool        // the application is inside the critical section
	waiter paragon.Msg // the forwarded acquire awaiting our release; zero if none
	// last is the manager's record of the lock's previous requester, the
	// node its next acquire is forwarded to (forward); the manager itself
	// while the lock is untouched. Only the manager reads it.
	last int
}

func (b *base) init(sys *System, self int, co coherence) {
	b.sys = sys
	b.node = sys.M.Nodes[self]
	b.self = self
	b.co = co
	b.overlapped = sys.Opts.Overlapped()
	b.clock = vc.New(sys.Opts.Machine.Nodes)
	b.pt = sys.Tables[self]
	b.eager, b.charged = sys.pageSets(self)
	b.log = make([][]*IntervalRec, sys.Opts.Machine.Nodes)
	b.locks = make(map[int]*lockState)
	b.bar.init(sys, self)
	b.compute.init(b)
	b.coproc.init(b)
	b.node.InstallCompute(b.compute.serve)
	b.node.InstallCoproc(b.coproc.serve)
}

// service is one dispatcher's message in service. The dispatcher's entry,
// serve, stores the message here and returns the engine's work for it with
// the slot's effect, built once at init, which applies it: servicing a
// message allocates nothing. A dispatcher takes no message before the
// previous effect has fired, so one slot per dispatcher suffices, and the
// message is valid until its effect returns.
type service struct {
	b      *base
	m      paragon.Msg
	effect func()
}

func (s *service) init(b *base) {
	s.b = b
	s.effect = s.apply
}

// serve is the dispatcher's handler.
func (s *service) serve(m paragon.Msg) (sim.Time, func()) {
	s.m = m
	return s.b.co.work(s), s.effect
}

// apply is the effect of the message in service. It then drops the
// message, and with it the references its body holds.
func (s *service) apply() {
	s.b.co.apply(s)
	s.m = paragon.Msg{}
}

// noWork and lockHandling are the work of the kinds whose service time does
// not depend on the message.
func (b *base) noWork(*service) sim.Time       { return 0 }
func (b *base) lockHandling(*service) sim.Time { return b.costs().LockHandling }

func (b *base) costs() *paragon.Costs { return &b.sys.Opts.Machine.Costs }

// vecBytes is the protocol-memory charge for one per-page vector: the dense
// reservation the paper's prototypes allocate, 4 bytes per node, whatever
// the sparse vector holds.
func (b *base) vecBytes() int64 { return int64(4 * b.sys.Opts.Machine.Nodes) }

// vecOf returns v, one of the node's per-page vectors (HLRC's seen and flush
// vectors, LRC's applied vectors), initialising it — all zeros — and charging
// it to protocol memory while it is absent (Dim() == 0). It is initialised in
// place, so its pairs grow in the node's pairs once however often it comes
// back.
func (b *base) vecOf(v *vc.Sparse) *vc.Sparse {
	if v.Dim() == 0 {
		b.st().MemAlloc(b.vecBytes())
		v.Init(b.sys.Opts.Machine.Nodes)
	}
	return v
}

// vecOrNil reads a per-page vector: nil, the all-zero vector, while it is
// absent.
func vecOrNil(v *vc.Sparse) *vc.Sparse {
	if v.Dim() == 0 {
		return nil
	}
	return v
}

// wireVC reports whether write notices travel with their vector
// timestamps. The homeless protocols need them to order diffs; the
// home-based ones model a smaller wire format without them (a per-page
// per-writer max interval suffices).
func (b *base) wireVC() bool { return !b.sys.homeBased }

// logVC reports whether rec's log entry is charged with its vector: a
// home-based node keeps the one it computed for its own interval and
// receives everyone else's without.
func (b *base) logVC(rec *IntervalRec) bool { return b.wireVC() || rec.Proc == b.self }

// snapshot copies p's current bytes out of the simulation's pool. The copy is
// the snapshot semantics, not overhead: simulated time passes before a reply
// lands and this node keeps writing the page. What it becomes is one of two
// kinds of frame: a one-off, shipped to a single recipient that adopts it as
// its private copy (the homeless protocols, base.adopt), or the words of a
// mem.Frame a home publishes once per version of the page and every fetch of
// that version shares read-only (hlrcEngine.publish).
func (b *base) snapshot(p *mem.Page) []float64 { return b.sys.pool.Clone(p.Data) }

// adopt makes *frame, a one-off snapshot shipped to this node alone, its
// private copy of p and recycles the stale one: the page crosses the host
// once, as it does the wire. *frame is cleared, so a second delivery panics
// here instead of aliasing. (A shared frame is adopted by mem.Page.Adopt.)
func (b *base) adopt(p *mem.Page, frame *[]float64) {
	if len(*frame) != b.sys.Space.PageWords {
		panic(fmt.Sprintf("core: node %d adopting a %d-word page frame (delivered twice?)", b.self, len(*frame)))
	}
	b.sys.pool.PutPage(p.Data) // nil is not a frame: nothing is put
	p.Data, *frame = *frame, nil
}

func (b *base) st() *stats.Node { return b.node.Stats }
func (b *base) app() *sim.Proc  { return b.sys.appProcs[b.self] }

// use charges d of compute time on the application proc.
func (b *base) use(d sim.Time, cat stats.Category) {
	if d > 0 {
		b.node.CPU.Use(b.app(), d, cat)
	}
}

// eventCounters is the one map from a protocol event to the statistics
// counter it increments (Table 4's columns). The trace-only kinds —
// Invalidate, DiffFlush, LockGrant, BarrierExit, GCEnd — count nothing.
var eventCounters = [trace.NumKinds]func(*stats.Counters) *int64{
	trace.ReadMiss:     func(c *stats.Counters) *int64 { return &c.ReadMisses },
	trace.WriteFault:   func(c *stats.Counters) *int64 { return &c.WriteFaults },
	trace.PageFetch:    func(c *stats.Counters) *int64 { return &c.PagesFetched },
	trace.DiffCreate:   func(c *stats.Counters) *int64 { return &c.DiffsCreated },
	trace.DiffApply:    func(c *stats.Counters) *int64 { return &c.DiffsApplied },
	trace.LockAcquire:  func(c *stats.Counters) *int64 { return &c.LockAcquires },
	trace.BarrierEnter: func(c *stats.Counters) *int64 { return &c.Barriers },
	trace.GCStart:      func(c *stats.Counters) *int64 { return &c.GCs },
}

// event is one protocol action: it increments the counter its kind maps to
// and, while tracing is on and this node's statistics are not yet
// snapshotted, appends it to the trace, so the two views cover the same
// events.
func (b *base) event(k trace.Kind, page, peer int, arg int64) {
	if at := eventCounters[k]; at != nil {
		*at(&b.st().Counts)++
	}
	if b.sys.traceLog == nil || b.sys.untraced[b.self] {
		return
	}
	b.sys.traceLog.Emit(trace.Event{
		T: b.sys.K.Now(), Node: b.self, Kind: k, Page: page, Peer: peer, Arg: arg,
	})
}

// ---------------------------------------------------------------------------
// Faults and the twin-and-diff lifecycle
//
// Both families diff a written page against its twin at interval end (on
// the co-processor under OLRC and OHLRC, while the page waits); they differ
// only in where the diff goes (DESIGN §3.4).

// readMiss charges and records a fault on an invalid page.
func (b *base) readMiss(page int) {
	b.use(b.costs().PageFault, stats.CatData)
	b.event(trace.ReadMiss, page, -1, 0)
}

// diffTwin diffs page against its twin into d, in place (mem.Diff.Recompute),
// and drops the twin.
func (b *base) diffTwin(page int, d *mem.Diff) {
	p := b.pt.Page(page)
	d.Recompute(page, p.Twin, p.Data)
	p.DropTwin(b.sys.pool)
	b.st().MemFree(int64(b.sys.Space.PageBytes()))
	b.event(trace.DiffCreate, page, -1, int64(d.WireSize()))
}

// inflightDiff marks a page whose twin is feeding a diff on the
// co-processor; the application proc waits on it when it needs the twin.
type inflightDiff struct {
	busy    bool
	waiting *sim.Proc
}

// wait parks p until the page's diff is done; reason and page name the
// wait in deadlock reports.
func (d *inflightDiff) wait(p *sim.Proc, reason string, page int) {
	for d.busy {
		d.waiting = p
		p.ParkArg(reason, int64(page))
	}
}

// done clears the mark and wakes the waiting proc, if any.
func (d *inflightDiff) done() {
	d.busy = false
	wake(&d.waiting)
}

// postDiff hands a page's diff to this node's co-processor, whose kMakeDiff
// handler diffs the twin and calls d.done. body names the diff: HLRC's diff
// record, which goes on to the home, or LRC's use-tier record of the page.
// The post's cost is part of the engine's closeCost.
func (b *base) postDiff(d *inflightDiff, body any) {
	d.busy = true
	b.node.InjectCoproc(paragon.Msg{Kind: kMakeDiff, Body: body})
}

// finish is the wind-down both engines run after the worker: it waits out
// every diff still on the co-processor and asserts that no page is dirty,
// no lock held and no lock request waiting. inflight visits each used page's
// in-flight mark.
func (b *base) finish(inflight func(visit func(page int, d *inflightDiff))) {
	if len(b.dirty) > 0 {
		panic(fmt.Sprintf("core: node %d finished with %d dirty pages (missing final barrier?)", b.self, len(b.dirty)))
	}
	inflight(func(page int, d *inflightDiff) {
		d.wait(b.app(), "finish: diff in flight page", page)
	})
	for l, ls := range b.locks {
		if ls.held {
			panic(fmt.Sprintf("core: node %d finished holding lock %d", b.self, l))
		}
		if ls.waiter.Body != nil {
			panic(fmt.Sprintf("core: node %d finished with node %d's request waiting on lock %d",
				b.self, ls.waiter.Body.(*lockReq).Requester, l))
		}
	}
}

// ---------------------------------------------------------------------------
// Interval management

// markDirty records the first write to page in the open interval.
func (b *base) markDirty(page int) { b.dirty = append(b.dirty, int32(page)) }

// closeIntervalOnApp ends the open interval from application-proc context
// (remote acquire or barrier entry), charging its cost.
func (b *base) closeIntervalOnApp() {
	if len(b.dirty) == 0 {
		return
	}
	b.use(b.co.closeCost(), stats.CatProtocol)
	b.co.closeCommit()
}

// newIntervalRec assigns the next own interval index, advancing the clock,
// and stores the record in the log. Called by closeCommit implementations.
func (b *base) newIntervalRec() *IntervalRec {
	b.clock[b.self]++
	rec := &IntervalRec{
		Proc:     b.self,
		Interval: b.clock[b.self],
		VC:       vc.SparseFrom(b.clock),
		Pages:    b.dirty,
	}
	b.dirty = nil
	b.insertLog(rec)
	return rec
}

// insertLog stores rec in the interval log with memory accounting. A record
// the log already holds is neither logged nor charged a second time; one
// newer than its list's tail, the usual case, needs no search to tell.
func (b *base) insertLog(rec *IntervalRec) {
	if recs := b.log[rec.Proc]; len(recs) > 0 && recs[len(recs)-1].Interval >= rec.Interval &&
		b.hasLogRec(rec.Proc, rec.Interval) {
		return
	}
	b.log[rec.Proc] = b.logRuns.Push(b.log[rec.Proc], rec)
	b.st().MemAlloc(rec.memSize(b.logVC(rec)))
}

func (b *base) hasLogRec(proc int, interval int32) bool {
	recs := b.log[proc]
	i := sort.Search(len(recs), func(i int) bool { return recs[i].Interval >= interval })
	return i < len(recs) && recs[i].Interval == interval
}

// pruneLogThrough drops all log records with interval index <= upTo[proc],
// releasing their memory. Home-based protocols call this after barriers;
// homeless ones at GC.
func (b *base) pruneLogThrough(upTo vc.VC) {
	for p := range b.log {
		recs := b.log[p]
		cut := recsAfter(recs, upTo[p])
		for _, r := range recs[:cut] {
			b.st().MemFree(r.memSize(b.logVC(r)))
		}
		kept := copy(recs, recs[cut:])
		clear(recs[kept:])
		b.log[p] = recs[:kept]
	}
}

// logSinceInto appends to dst the interval records the holder of
// knowledge `have` is missing, in log order.
func (b *base) logSinceInto(dst []*IntervalRec, have vc.VC) []*IntervalRec {
	for p, recs := range b.log {
		dst = append(dst, recs[recsAfter(recs, have[p]):]...)
	}
	return dst
}

// recsAfter returns the index of the first record in recs (one proc's log
// list) with interval index > after.
func recsAfter(recs []*IntervalRec, after int32) int {
	return sort.Search(len(recs), func(i int) bool { return recs[i].Interval > after })
}

// ownRecsAfterInto appends to dst this node's own interval records with
// index > after.
func (b *base) ownRecsAfterInto(dst []*IntervalRec, after int32) []*IntervalRec {
	recs := b.log[b.self]
	return append(dst, recs[recsAfter(recs, after):]...)
}

// learn is the one way a node takes in interval records — a lock grant or a
// barrier release: records the clock covers are skipped, the rest logged and
// their write notices delivered, and the clock raised past them and to v. It
// returns the invalidation cost. A notice for a page that is not eager is
// deferred: its record joins deferred once, whatever the number of such
// pages it names, and the protocol memory the notices would have taken is
// charged now, as arithmetic, so no simulated number depends on the
// deferral.
func (b *base) learn(recs []*IntervalRec, v vc.VC) sim.Time {
	var cost sim.Time
	for _, rec := range recs {
		if rec.Interval <= b.clock[rec.Proc] {
			continue // already known via another path
		}
		b.insertLog(rec)
		b.clock[rec.Proc] = rec.Interval
		deferred, fresh := 0, 0
		eager, charged := b.eager, b.charged
		for _, pg := range rec.Pages {
			if eager.has(int(pg)) {
				cost += b.co.noticePage(rec, int(pg))
				continue
			}
			deferred++
			if charged != nil && !charged.has(int(pg)) {
				charged.set(int(pg))
				fresh++
			}
		}
		if deferred > 0 {
			if b.deferred == nil {
				b.deferred = make([]*IntervalRec, 0, slab.Block)
			}
			b.deferred = append(b.deferred, rec)
			b.deferredPairs += len(rec.Pages)
			bytes := int64(deferred) * wnEntryBytes
			if charged != nil {
				bytes = int64(fresh) * b.vecBytes()
			}
			if bytes > 0 {
				b.st().MemAlloc(bytes)
			}
		}
	}
	b.clock.MaxWith(v)
	return cost
}

// foldEvery bounds what resolve's scans cost: once the pairs scanned since
// the last fold exceed foldEvery times the pairs deferred, the next resolve
// folds the whole list instead. A fold costs what eager delivery of the
// pairs it folds would have, so a run pays at most foldEvery + 1 times that
// per pair, and only for pairs still deferred at a fold. A run whose first
// faults come early (the SPLASH-2 kernels) scans a short list a few times
// and then folds at most once; one that first-touches pages all run long
// (the serving workloads) folds often, and a small bound keeps its list, and
// the records it holds past the log's prune, short.
const foldEvery = 4

// resolve makes page eager at a fault's entry, before the fault reads the
// page's slot or anything blocks: the notices deferred for it are folded
// into the slot in delivery order, and from here on it takes its notices as
// they arrive.
func (b *base) resolve(page int) {
	if b.eager.has(page) {
		return
	}
	if b.scanned += b.deferredPairs; b.scanned > foldEvery*b.deferredPairs {
		b.foldDeferred()
	} else {
		for _, rec := range b.deferred {
			for _, pg := range rec.Pages {
				if int(pg) == page {
					b.co.foldNotice(rec, page)
					break
				}
			}
		}
	}
	b.eager.set(page)
}

// foldDeferred folds every deferred notice into its page's slot and empties
// the list. The pages stay deferred: their later notices join the list
// after the ones folded here.
func (b *base) foldDeferred() {
	for _, rec := range b.deferred {
		for _, pg := range rec.Pages {
			if !b.eager.has(int(pg)) {
				b.co.foldNotice(rec, int(pg))
			}
		}
	}
	clear(b.deferred)
	b.deferred = b.deferred[:0]
	b.deferredPairs, b.scanned = 0, 0
}

// pageSet is a set of pages, one bit each.
type pageSet []uint64

func (s pageSet) has(page int) bool { return s[page>>6]&(1<<(page&63)) != 0 }
func (s pageSet) set(page int)      { s[page>>6] |= 1 << (page & 63) }

// pageSets returns node self's eager set, its home pages marked, and under
// HLRC its charged set (nil under LRC). The first node to ask allocates
// every node's sets at once, in one run the machine shares: a node writes
// only its own words of it.
func (s *System) pageSets(self int) (eager, charged pageSet) {
	words, sets := (s.Space.NumPages()+63)/64, 1
	if s.homeBased {
		sets = 2
	}
	stride := sets * words
	if s.pageBits == nil {
		s.pageBits = make([]uint64, s.Opts.Machine.Nodes*stride)
		for pg, h := range s.homes {
			pageSet(s.pageBits[h*stride:]).set(pg)
		}
	}
	own := s.pageBits[self*stride : (self+1)*stride : (self+1)*stride]
	eager = pageSet(own[:words:words])
	if sets == 2 {
		charged = pageSet(own[words:])
	}
	return eager, charged
}

// invalidate delivers rec's write notice for page, an eager one, to this
// node's copy (under HLRC, of a page it does not home) and returns the cost
// to charge: nothing if the copy is already invalid. An eager page has a
// page-table entry: its home's seed copy, or the one its first fault
// touched.
func (b *base) invalidate(rec *IntervalRec, page int) sim.Time {
	p := b.pt.Page(page)
	if p.State == mem.Invalid {
		return 0
	}
	if p.State == mem.ReadWrite {
		panic(fmt.Sprintf("core: node %d noticed page %d mid-interval (notices arrive only at interval boundaries)", b.self, page))
	}
	p.State = mem.Invalid
	b.event(trace.Invalidate, page, rec.Proc, 0)
	return b.costs().PageInval
}

// applyGrant merges a grant or release payload on the application proc.
func (b *base) applyGrant(g *grantInfo) {
	b.use(b.learn(g.Intervals, g.VC), stats.CatProtocol)
}

// ---------------------------------------------------------------------------
// Locks

// lockMgrOf is the node serving lock-manager duty for lock. Locks are
// managed round-robin, and the role never moves: a crashed manager keeps
// its owner table, and requests to it wait out its restart in
// retransmission.
func (s *System) lockMgrOf(lock int) int { return lock % s.Opts.Machine.Nodes }

func (b *base) lockState(lock int) *lockState {
	ls, ok := b.locks[lock]
	if !ok {
		// The manager starts out owning every lock it manages.
		ls = &b.lockStates.Take(1)[0]
		ls.last = b.sys.lockMgrOf(lock)
		ls.owner = ls.last == b.self
		b.locks[lock] = ls
	}
	return ls
}

// Acquire implements LOCK. Local re-acquires are free; remote acquires end
// the current interval, chase the token through the manager, and merge the
// coherence payload carried by the grant.
func (b *base) Acquire(lock int) {
	ls := b.lockState(lock)
	if ls.held {
		panic(fmt.Sprintf("core: node %d re-entering lock %d", b.self, lock))
	}
	if ls.owner {
		ls.held = true
		return
	}
	// Remote acquire: an interval boundary.
	b.closeIntervalOnApp()
	b.event(trace.LockAcquire, -1, -1, int64(lock))
	lr := &b.lock
	lr.Lock, lr.Requester = lock, b.self
	lr.ReqVC = append(lr.ReqVC[:0], b.clock...)
	kind, to := kLockAcq, b.sys.lockMgrOf(lock)
	if to == b.self {
		// We are the manager: forward straight to the previous requester.
		b.use(b.costs().LockHandling, stats.CatProtocol)
		kind, to = kLockFwd, b.forward(ls, b.self)
	}
	t0 := b.app().Now()
	resp := b.call(to, kind, lr)
	b.st().Add(stats.CatLock, b.app().Now()-t0)
	g := resp.Body.(*grantInfo)
	b.event(trace.LockGrant, -1, resp.From, int64(lock))
	b.applyGrant(g)
	ls.owner = true
	ls.held = true
}

// Release implements UNLOCK. If a remote request waits, the release is an
// interval boundary and the token moves to the waiter.
func (b *base) Release(lock int) {
	ls := b.lockState(lock)
	if !ls.held {
		panic(fmt.Sprintf("core: node %d releasing lock %d it does not hold", b.self, lock))
	}
	ls.held = false
	if ls.waiter.Body == nil {
		return // keep the token cached
	}
	b.closeIntervalOnApp()
	b.use(b.costs().LockHandling, stats.CatProtocol)
	w := ls.waiter
	ls.waiter = paragon.Msg{}
	ls.owner = false
	b.grantTo(w, w.Body.(*lockReq))
}

// waitFor queues m, a forwarded acquire, for this node's release. A second
// waiter means the manager forwarded to a node that is not the previous
// requester, or a node asked again before its acquire returned.
func (b *base) waitFor(ls *lockState, m paragon.Msg) {
	if ls.waiter.Body != nil {
		lr := m.Body.(*lockReq)
		panic(fmt.Sprintf("core: node %d got node %d's acquire of lock %d while node %d's waits: the manager forwards each acquire to the previous requester, so a holder has one waiter",
			b.self, lr.Requester, lr.Lock, ls.waiter.Body.(*lockReq).Requester))
	}
	ls.waiter = m
}

// grantTo sends the lock token plus coherence payload to the requester,
// written into its request's Grant, in place: this node's clock and the log
// records the requester is missing.
func (b *base) grantTo(req paragon.Msg, lr *lockReq) {
	g := &lr.Grant
	g.VC = append(g.VC[:0], b.clock...)
	g.Intervals = b.logSinceInto(g.Intervals[:0], lr.ReqVC)
	b.respond(req, g)
}

// lockReq is a remote lock acquire: the requester's one body, base.lock.
// It travels through the manager to the owner, possibly waits there as the
// owner's one waiter, and the owner that grants the lock writes the grant
// into Grant and answers with a pointer to it.
type lockReq struct {
	Lock      int
	Requester int
	ReqVC     vc.VC
	Grant     grantInfo
}

// forward is the manager's step of an acquire by requester: it records the
// requester as the lock's last and returns the previous one, which holds the
// token or will be the next to hold it.
func (b *base) forward(ls *lockState, requester int) (owner int) {
	owner, ls.last = ls.last, requester
	if owner != b.self {
		b.st().Counts.LockForwards++
	}
	return owner
}

// applyLockAcq services a kLockAcq at the manager (dispatcher context);
// its work is lockHandling.
func (b *base) applyLockAcq(s *service) {
	m := s.m
	m.Kind = kLockFwd // from here on the message is a forwarded request
	lr := m.Body.(*lockReq)
	ls := b.lockState(lr.Lock)
	if owner := b.forward(ls, lr.Requester); owner != b.self {
		b.node.Send(owner, m)
		return
	}
	// The manager is the previous requester: it decides as the holder. The
	// token may nonetheless be in flight towards it (its own acquire).
	// Closing an interval was not part of this handler's declared work, so
	// the manager steals its cost.
	b.grantOrWait(ls, m, true)
}

// workLockFwd and applyLockFwd service a forwarded acquire at the
// (supposed) owner. The grant/queue decision is made in the effect:
// between the message's arrival and the end of its service time the
// application may locally re-acquire the lock, and granting anyway would
// break mutual exclusion.
func (b *base) workLockFwd(s *service) sim.Time {
	ls := b.lockState(s.m.Body.(*lockReq).Lock)
	work := b.costs().LockHandling
	if ls.owner && !ls.held && len(b.dirty) > 0 {
		// Likely a free grant with an interval to close; charge for it.
		work += b.co.closeCost()
	}
	return work
}

func (b *base) applyLockFwd(s *service) {
	b.grantOrWait(b.lockState(s.m.Body.(*lockReq).Lock), s.m, false)
}

// grantOrWait is the holder's decision on m, a forwarded acquire, in a
// dispatcher effect: while the lock is held, or the token is still on its
// way here, m waits for this node's release; otherwise receiving it ends
// the current interval and the token goes to the requester. steal charges
// the interval's closing cost to the compute processor, for a handler whose
// declared work did not include it.
func (b *base) grantOrWait(ls *lockState, m paragon.Msg, steal bool) {
	if ls.held || !ls.owner {
		b.waitFor(ls, m)
		return
	}
	if steal {
		b.node.CPU.Steal(b.co.closeCost())
	}
	b.co.closeCommit()
	ls.owner = false
	b.grantTo(m, m.Body.(*lockReq))
}

// ---------------------------------------------------------------------------
// Barriers

// barrierManager is the root of the barrier tree, which the homeless GC
// rendezvous shares. The role never moves: a crashed manager
// keeps its arrivals, and arrivals sent to it wait out its restart in
// retransmission.
const barrierManager = 0

// barrierNode is one node's place in the barrier, a k-ary tree in heap
// layout rooted at barrierManager: node i reports to (i-1)/k, and its
// children are k*i+1 .. k*i+k (Machine.barrierRadix). Up to
// BarrierCrossover nodes k is n-1, so every node but the root is a leaf
// and the tree is the paper's centralized barrier. Both rendezvous run
// through it: a barrier episode and a homeless GC rendezvous.
type barrierNode struct {
	parent int
	// arrivals are the registered arrivals of the rendezvous in progress,
	// in arrival order. Its capacity is the number that completes this
	// node's subtree: its own and one per child.
	arrivals []arrival
	// waiting is the application proc while it waits for arrivals to fill.
	waiting *sim.Proc
	// up is the subtree summary a node with children reports; the root
	// releases its own (rootRelease).
	up barrierReport
}

// arrival is a registered arrival: its barrier report, nil at a GC
// rendezvous, and the request that delivered it, the zero Msg for the
// node's own.
type arrival struct {
	rep *barrierReport
	req paragon.Msg
}

// init places node self in the tree, its arrivals a window of
// System.arrivals: node i's children are k*i+1 .. k*i+k, and the nodes
// before it have min(k*i, n-1) children between them.
func (bar *barrierNode) init(s *System, self int) {
	n, k := s.Opts.Machine.Nodes, s.Opts.Machine.barrierRadix()
	if self != barrierManager {
		bar.parent = (self - 1) / k
	}
	if s.arrivals == nil {
		s.arrivals = make([]arrival, 2*n-1)
	}
	first := self + min(k*self, n-1)
	last := first + 1 + min(k*self+k, n-1) - min(k*self, n-1)
	bar.arrivals = s.arrivals[first:first:last]
}

// in reports whether the whole subtree has arrived.
func (bar *barrierNode) in() bool { return len(bar.arrivals) == cap(bar.arrivals) }

// gather registers the node's own arrival, rep (nil at a GC rendezvous),
// and parks the application proc on reason until its subtree is in.
func (b *base) gather(rep *barrierReport, reason string, arg int64) {
	bar := &b.bar
	bar.arrivals = append(bar.arrivals, arrival{rep: rep})
	if !bar.in() {
		bar.waiting = b.app()
		b.app().ParkArg(reason, arg)
	}
}

// barrierReport is a barrier arrival: a node's own report, base.rep,
// refilled by every Barrier, or the subtree summary a node with children
// sends, barrierNode.up: its own report with its children's folded in (VC
// the component-wise max
// of the subtree's clocks, MinVC the min, Recs the union of its new
// interval records, ProtoMem the per-node maximum). The parent writes the
// arrival's release into Grant and answers with a pointer to it; the root
// writes its own summary's release there (rootRelease).
type barrierReport struct {
	Node     int
	VC       vc.VC
	MinVC    vc.VC // nil in a node's own report, whose clock is VC
	Recs     []*IntervalRec
	ProtoMem int64
	Grant    grantInfo
}

// have is the least knowledge in the arrival's subtree: what its release
// must bring every node of it past.
func (r *barrierReport) have() vc.VC {
	if r.MinVC != nil {
		return r.MinVC
	}
	return r.VC
}

// Barrier implements BARRIER, one procedure at every node, on its
// application proc. The node ends its interval, registers its own report
// and waits for its subtree's arrivals; a node with children folds them
// into one summary. The root releases that summary itself (rootRelease);
// any other node reports it to its parent and takes the answer as its
// release. The node then answers each child with the records of its
// release the child's subtree lacks, and only then takes the release
// itself.
func (b *base) Barrier(id int) {
	b.closeIntervalOnApp()
	b.event(trace.BarrierEnter, -1, -1, int64(id))
	rep := &b.rep
	rep.Node = b.self
	rep.VC = append(rep.VC[:0], b.clock...)
	rep.Recs = b.ownRecsAfterInto(rep.Recs[:0], b.lastReported)
	rep.ProtoMem = b.st().ProtoMem
	if len(b.log[b.self]) > 0 {
		b.lastReported = b.log[b.self][len(b.log[b.self])-1].Interval
	}
	t0 := b.app().Now()
	bar := &b.bar
	b.gather(rep, "barrier subtree", int64(id))
	up := rep
	if cap(bar.arrivals) > 1 {
		up = b.summarize()
	}
	var g *grantInfo
	if b.self == barrierManager {
		g = b.rootRelease(up)
	} else {
		g = b.call(bar.parent, kBarrier, up).Body.(*grantInfo)
	}
	for _, a := range bar.arrivals {
		if a.req.Reply == nil {
			continue // the node's own
		}
		cg := &a.rep.Grant
		cg.VC = append(cg.VC[:0], g.VC...)
		cg.GC = g.GC
		cg.Intervals = filterRecsSinceInto(cg.Intervals[:0], g.Intervals, a.rep.have())
		b.respond(a.req, cg)
	}
	clear(bar.arrivals)
	bar.arrivals = bar.arrivals[:0]
	if b.self == barrierManager && b.sys.onBarrier != nil {
		b.sys.onBarrier()
	}
	b.st().Add(stats.CatBarrier, b.app().Now()-t0)
	b.event(trace.BarrierExit, -1, -1, int64(id))
	b.applyGrant(g)
	b.co.onBarrierRelease(g)
}

// applyBarrier registers a child's arrival, a kBarrier report or a
// bodiless kGCDone, and wakes the application proc once the subtree is in;
// its work is lockHandling for a report and none for a kGCDone.
func (b *base) applyBarrier(s *service) {
	bar := &b.bar
	rep, _ := s.m.Body.(*barrierReport)
	bar.arrivals = append(bar.arrivals, arrival{rep, s.m})
	if bar.in() {
		wake(&bar.waiting)
	}
}

// summarize folds this node's own report and its children's arrivals into
// its subtree summary, bar.up. A child's report covers the records it
// carries, which the fold asserts.
func (b *base) summarize() *barrierReport {
	bar, own := &b.bar, &b.rep
	up := &bar.up
	up.Node, up.ProtoMem = own.Node, own.ProtoMem
	up.VC = append(up.VC[:0], own.VC...)
	up.MinVC = append(up.MinVC[:0], own.VC...)
	up.Recs = append(up.Recs[:0], own.Recs...)
	for _, a := range bar.arrivals {
		rep := a.rep
		if rep == own {
			continue
		}
		have := rep.have()
		for p := range up.MinVC {
			up.MinVC[p] = min(up.MinVC[p], have[p])
			up.VC[p] = max(up.VC[p], rep.VC[p])
		}
		for _, rec := range rep.Recs {
			if rec.Interval > rep.VC[rec.Proc] {
				panic(fmt.Sprintf("core: node %d merging node %d's report, which carries interval %d of node %d past its clock's %d",
					b.self, rep.Node, rec.Interval, rec.Proc, rep.VC[rec.Proc]))
			}
		}
		up.Recs = append(up.Recs, rep.Recs...)
		up.ProtoMem = max(up.ProtoMem, rep.ProtoMem)
	}
	return up
}

// rootRelease is the root's release of its subtree summary, the whole
// machine's, written into up.Grant as a parent would write it. The root
// logs every record up carries (reports carry each node's *own* intervals,
// so together they cover everything; their notices reach this node with
// its release) and releases with its clock raised by the summary's, which
// covers every logged record; the GC decision, set when some node's
// protocol memory is over Options.GCThreshold under a homeless protocol;
// and its log past the summary's least knowledge, one list every child's
// release is filtered from.
func (b *base) rootRelease(up *barrierReport) *grantInfo {
	for _, rec := range up.Recs {
		b.insertLog(rec)
	}
	g := &up.Grant
	g.VC = append(g.VC[:0], b.clock...)
	g.VC.MaxWith(up.VC)
	g.GC = up.ProtoMem > b.sys.Opts.GCThreshold && !b.sys.homeBased
	g.Intervals = b.logSinceInto(g.Intervals[:0], up.have())
	return g
}

// filterRecsSinceInto appends to dst the records of recs a subtree with
// least knowledge have is missing. It reserves room for all of recs first:
// a child's share is most of its parent's release, and growing dst one
// record at a time would reallocate it once per doubling.
func filterRecsSinceInto(dst, recs []*IntervalRec, have vc.VC) []*IntervalRec {
	dst = slices.Grow(dst, len(recs))
	for _, r := range recs {
		if r.Interval > have[r.Proc] {
			dst = append(dst, r)
		}
	}
	return dst
}

// wake unparks the application proc parked on *w, if any, and clears the
// slot.
func wake(w **sim.Proc) {
	if p := *w; p != nil {
		*w = nil
		p.Unpark()
	}
}

// gcRendezvous blocks until every node has finished its GC validation
// (the homeless protocols, lrcEngine.runGC), so nobody discards diffs
// another node may still need. It runs through the barrier tree: a node
// waits for its children's kGCDone arrivals, reports its subtree's with a
// kGCDone to its parent and waits for the answer (the root has none to
// wait for), then answers its children.
func (b *base) gcRendezvous() {
	bar := &b.bar
	b.gather(nil, "gc rendezvous", b.st().Counts.GCs)
	if b.self != barrierManager {
		b.call(bar.parent, kGCDone, nil)
	}
	for _, a := range bar.arrivals {
		if a.req.Reply != nil {
			b.respond(a.req, nil)
		}
	}
	clear(bar.arrivals)
	bar.arrivals = bar.arrivals[:0]
}
