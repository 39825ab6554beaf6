package core

import (
	"cmp"
	"fmt"
	"slices"

	"gosvm/internal/mem"
	"gosvm/internal/paragon"
	"gosvm/internal/sim"
	"gosvm/internal/slab"
	"gosvm/internal/stats"
	"gosvm/internal/trace"
	"gosvm/internal/vc"
)

// lrcEngine implements the standard homeless Lazy Release Consistency
// protocol (TreadMarks-style) and its overlapped variant OLRC. Updates
// live as distributed diffs at their writers; faulting nodes collect the
// diffs named by their write notices and apply them in happens-before
// order. Diffs and write notices accumulate until a garbage collection,
// triggered at a barrier when protocol memory exceeds a threshold.
type lrcEngine struct {
	base
	pages slab.Chunks[lrcPage]
	uses  slab.Slab[lrcUse]
	// diffs holds the diffs this node created or fetched (TreadMarks
	// caches fetched diffs so that, for migratory data, a single request
	// to the last writer returns the whole chain), keyed by keys.of(writer,
	// page, interval) and retained until garbage collection. A fetched diff
	// is the holder's own pointer: a diff is never written once made.
	diffs  map[uint64]*mem.Diff
	keys   diffKeys
	wnRuns slab.Slab[pageWN]
	// sorter, stamps, missing and later are bringUpToDate's scratch,
	// lastWrites runGC's (application proc only).
	sorter     vc.Sorter
	stamps     []vc.Stamp
	missing    []int
	later      []int32
	lastWrites []pageWrite

	// diffReq and pageReq are this node's diff and page fetch requests:
	// its one body of each kind, refilled by every request. The server
	// writes its answer into them (DESIGN §9 "No object per serviced
	// message").
	diffReq fetchDiffsReq
	pageReq lrcFetchPageReq
}

// diffKeys packs (writer, page, interval) into the diff store's one-word
// key, which takes the map's 64-bit fast path where a struct key is hashed
// byte by byte. Writer and page share the high 32 bits as writer*pages+page,
// the interval has the low 32. A field out of range panics naming it: two
// triples never share a key.
type diffKeys struct{ nodes, pages uint64 }

func newDiffKeys(nodes, pages int) diffKeys {
	if uint64(nodes)*uint64(pages) > 1<<32 {
		panic(fmt.Sprintf("core: diff key: %d nodes x %d pages do not fit in 32 bits", nodes, pages))
	}
	return diffKeys{nodes: uint64(nodes), pages: uint64(pages)}
}

func (k diffKeys) of(writer, page int, interval int32) uint64 {
	w, p, iv := uint64(writer), uint64(page), uint64(interval)
	if w >= k.nodes || p >= k.pages || iv >= 1<<32 {
		panic(k.overflow(writer, page, interval))
	}
	return (w*k.pages+p)<<32 | iv
}

func (k diffKeys) overflow(writer, page int, interval int32) string {
	switch {
	case uint64(writer) >= k.nodes:
		return fmt.Sprintf("core: diff key: writer %d is outside the %d nodes", writer, k.nodes)
	case uint64(page) >= k.pages:
		return fmt.Sprintf("core: diff key: page %d is outside the %d pages", page, k.pages)
	}
	return fmt.Sprintf("core: diff key: interval %d is negative", interval)
}

// pageWrite is a page's last write in the interval log, runGC's scratch.
type pageWrite struct{ page, interval, proc int32 }

// lrcPage is the per-page protocol state of one node, in two tiers. The
// slot is what a page the node faulted on or homes costs, and a page whose
// deferred notices a fold built (base.foldDeferred, and every collection's
// log pass); a page that was only sent notices costs none until then. The
// rest only a page it uses (faults on, writes, serves a copy of) needs, and
// waits behind use until then.
type lrcPage struct {
	// wns are the write notices not yet reflected in the local copy. The
	// list lives in wnRuns (slab.Slab.Push) and is emptied in place.
	wns []pageWN
	use *lrcUse
	// holder is the last known node holding a full copy, stored as
	// node+1. Zero means "never updated", which resolves to the page's
	// home (where the initial copy is seeded) without having to
	// materialize per-page state for the whole address space.
	holder int32
	// lastWrite is runGC's mark while it scans the log: 1 + the index of
	// the page's entry in lastWrites, zero otherwise. It sits in what
	// would be the slot's padding.
	lastWrite int32
}

// lrcUse is the tier of lrcPage only a used page pays for (useOf).
type lrcUse struct {
	// appliedVC[j] is the highest interval of writer j incorporated into
	// the local Data copy. Absent (Dim() == 0) until a copy exists, and
	// again once a collection drops the copy; base.vecOf initialises it.
	// Homeless protocols carry these per-page vectors — part of their
	// memory story.
	appliedVC vc.Sparse
	// pending is the own closed interval whose diff has not been created
	// yet (lazy diffing); the twin is still alive.
	pending *IntervalRec
	// inflight marks an OLRC diff computation in progress on the coproc.
	// A page has at most one, so the record itself is the kMakeDiff post's
	// body, naming the diff in diffPage and diffInterval.
	inflight               inflightDiff
	diffPage, diffInterval int32
}

// fetchDiffsReq is a diff request, the requester's lrcEngine.diffReq. It
// names the requested diffs by their intervals' records, which are shared
// machine-wide (IntervalRec); on the wire each is a (writer, interval)
// pair. The holder answers in Diffs, aligned with Recs: its own diff
// pointers, nil where it has none.
type fetchDiffsReq struct {
	Page  int
	Recs  []*IntervalRec
	Diffs []*mem.Diff
}

// lrcFetchPageReq is a full-copy request, the requester's
// lrcEngine.pageReq, sent to the page's hinted holder (holderOf), which
// always holds a copy. It answers with a snapshot of its copy in Data, which
// the requester adopts (clearing it), and the intervals the copy reflects
// in AppliedVC, filled in place (vc.Sparse.CopyFrom) and read through
// &AppliedVC.
type lrcFetchPageReq struct {
	Page      int
	Data      []float64
	AppliedVC vc.Sparse
}

const wnEntryBytes = 24 // per-page write-notice list entry

// dropWNs empties the notice list, keeping its backing for the next
// notices and none of the records and diffs it pointed to.
func (m *lrcPage) dropWNs() {
	clear(m.wns)
	m.wns = m.wns[:0]
}

func newLRCEngine(sys *System, self int) *lrcEngine {
	e := &lrcEngine{
		diffs: make(map[uint64]*mem.Diff),
		keys:  newDiffKeys(sys.Opts.Machine.Nodes, sys.Space.NumPages()),
	}
	e.base.init(sys, self, e)
	e.pages = slab.NewChunks[lrcPage](sys.Space.NumPages())
	return e
}

// useOf returns page's use-tier record, materializing it.
func (e *lrcEngine) useOf(page int) *lrcUse { return e.uses.Lazy(&e.pages.At(page).use) }

// holderOf resolves the copy-holder hint for page: the recorded holder,
// or the page's home while no hint has been recorded. The hint always names
// a node with a copy. A copy is dropped only in runGC, which re-points every
// node's hint at the page's last writer, the node that keeps its copy;
// between collections a hint is set only to a writer (foldNotice), which
// keeps its copy until the next collection, or to the node a copy came from
// (fetchBaseCopy).
func (e *lrcEngine) holderOf(page int) int {
	if h := e.pages.At(page).holder; h != 0 {
		return int(h) - 1
	}
	return e.sys.homes[page]
}

// ---------------------------------------------------------------------------
// Faults

func (e *lrcEngine) ReadFault(page int) {
	e.resolve(page)
	e.readMiss(page)
	e.bringUpToDate(page, stats.CatData)
	e.pt.Page(page).State = mem.ReadOnly
}

// WriteFault charges one fault either way: a write to an invalid page is
// the read miss that brings it up to date, where HLRC takes that read
// fault and then the write fault (DESIGN §3).
func (e *lrcEngine) WriteFault(page int) {
	e.resolve(page)
	p := e.pt.Page(page)
	if p.State == mem.Invalid {
		e.readMiss(page)
		e.bringUpToDate(page, stats.CatData)
	} else {
		e.use(e.costs().PageFault, stats.CatProtocol)
	}
	e.event(trace.WriteFault, page, -1, 0)
	// A previous interval's lazy diff still owns the twin: materialize it
	// before re-twinning.
	e.commitOwnDiff(page)
	e.use(e.costs().TwinCost(e.sys.Space.PageBytes()), stats.CatProtocol)
	p.MakeTwin(e.sys.pool)
	e.st().MemAlloc(int64(e.sys.Space.PageBytes()))
	p.State = mem.ReadWrite
	e.markDirty(page)
}

// bringUpToDate makes the local copy reflect every write notice: fetch a
// base copy if needed, collect missing diffs from their writers, and apply
// them in causal order. waitCat classifies the stall time (data transfer
// during normal faults, GC during garbage-collection validation).
func (e *lrcEngine) bringUpToDate(page int, waitCat stats.Category) {
	m, u := e.pages.At(page), e.useOf(page)
	e.commitOwnDiff(page)
	p := e.pt.Page(page)

	if p.Data == nil {
		e.fetchBaseCopy(page, waitCat)
		p = e.pt.Page(page)
	}
	applied := e.vecOf(&u.appliedVC)

	// Discard notices already reflected in the base copy.
	live := m.wns[:0]
	for _, wn := range m.wns {
		if wn.rec.Interval <= applied.Get(wn.rec.Proc) {
			e.st().MemFree(wnEntryBytes)
			continue
		}
		live = append(live, wn)
	}
	clear(m.wns[len(live):])
	m.wns = live
	if len(m.wns) == 0 {
		return
	}

	// Collect missing diffs. Following TreadMarks, ask the most recent
	// writer first for the entire missing set: for migratory data it has
	// fetched and cached every earlier diff, so one round trip suffices.
	// Anything it lacks is requested from the next most recent writer,
	// and so on — each round is guaranteed to obtain at least the
	// target's own diffs. One pass per round lists the missing notices in
	// notice order and picks the target, the largest (interval, proc);
	// nothing observable depends on the order inside the request.
	for {
		e.missing = slices.Grow(e.missing[:0], len(m.wns))
		var target *IntervalRec
		for i, wn := range m.wns {
			if wn.diff != nil {
				continue
			}
			e.missing = append(e.missing, i)
			if r := wn.rec; target == nil || r.Interval > target.Interval ||
				(r.Interval == target.Interval && r.Proc > target.Proc) {
				target = r
			}
		}
		if target == nil {
			break
		}
		req := &e.diffReq
		req.Page, req.Recs = page, req.Recs[:0]
		for _, i := range e.missing {
			req.Recs = append(req.Recs, m.wns[i].rec)
		}
		t0 := e.app().Now()
		resp := e.call(target.Proc, kFetchDiffs, req).Body.(*fetchDiffsReq)
		e.st().Add(waitCat, e.app().Now()-t0)
		got := 0
		for j, d := range resp.Diffs {
			if d == nil {
				continue
			}
			wn := &m.wns[e.missing[j]]
			wn.diff = d
			e.cacheDiff(wn.rec.Proc, page, wn.rec.Interval, d)
			got++
		}
		if got == 0 {
			panic(fmt.Sprintf("core: node %d got no diffs for page %d from writer %d",
				e.self, page, target.Proc))
		}
	}

	// Apply in happens-before order.
	e.stamps = slices.Grow(e.stamps[:0], len(m.wns))
	for _, wn := range m.wns {
		e.stamps = append(e.stamps, wn.rec.Stamp())
	}
	opCat := stats.CatProtocol
	if waitCat == stats.CatGC {
		opCat = stats.CatGC
	}
	order := e.sorter.Order(e.stamps)
	if mem.CheckFrames {
		e.checkApplyOrder(page, order)
	}
	var cost sim.Time
	for _, i := range order {
		wn := &m.wns[i]
		cost += e.costs().DiffApplyCost(wn.diff.Words())
		e.event(trace.DiffApply, page, wn.rec.Proc, int64(wn.diff.Words()))
		wn.diff.Apply(p.Data)
		e.pairs.RaiseTo(applied, wn.rec.Proc, wn.rec.Interval)
		e.st().MemFree(wnEntryBytes)
	}
	e.use(cost, opCat)
	m.dropWNs()
}

// checkApplyOrder panics, naming both intervals, if order applies a page's
// diff ahead of one whose interval happens before its own. One pass from
// the back keeps later[q], the smallest interval of proc q applied later
// (0 for none); a stamp is out of order exactly when its vector holds that
// interval for some other proc, or it is a later interval of its own proc.
func (e *lrcEngine) checkApplyOrder(page int, order []int) {
	if e.later == nil {
		e.later = make([]int32, e.sys.Opts.Machine.Nodes)
	}
	fail := func(s vc.Stamp, q int, t int32) {
		panic(fmt.Sprintf("core: node %d applied page %d's diff of interval %d:%d ahead of %d:%d, which happens before it",
			e.self, page, s.Proc, s.Interval, q, t))
	}
	for k := len(order) - 1; k >= 0; k-- {
		s := e.stamps[order[k]]
		if t := e.later[s.Proc]; t > 0 && t < s.Interval {
			fail(s, s.Proc, t)
		}
		s.VC.Each(func(q int, x int32) {
			if t := e.later[q]; q != s.Proc && t > 0 && t <= x {
				fail(s, q, t)
			}
		})
		if t := e.later[s.Proc]; t == 0 || s.Interval < t {
			e.later[s.Proc] = s.Interval
		}
	}
	for _, s := range e.stamps {
		e.later[s.Proc] = 0
	}
}

// fetchBaseCopy obtains a full page copy in one Call to the hinted holder
// (holderOf).
func (e *lrcEngine) fetchBaseCopy(page int, waitCat stats.Category) {
	m := e.pages.At(page)
	holder := e.holderOf(page)
	req := &e.pageReq
	req.Page = page
	t0 := e.app().Now()
	pr := e.call(holder, kFetchPage, req).Body.(*lrcFetchPageReq)
	e.st().Add(waitCat, e.app().Now()-t0)
	e.adopt(e.pt.Page(page), &pr.Data)
	// appliedVC is absent whenever Data is nil (GC drops them together), so
	// merging into the zero vector (the seed image reflects no intervals)
	// equals replacement.
	e.pairs.MaxWith(e.vecOf(&m.use.appliedVC), &pr.AppliedVC)
	m.holder = int32(holder) + 1
	e.event(trace.PageFetch, page, holder, 0)
}

// commitOwnDiff materializes the lazy diff of a previously closed interval
// (and, under OLRC, waits out an in-flight co-processor diff).
func (e *lrcEngine) commitOwnDiff(page int) {
	m := e.useOf(page)
	m.inflight.wait(e.app(), "lrc twin busy page", page)
	if m.pending == nil {
		return
	}
	e.use(e.costs().DiffCreateCost(e.sys.Space.PageWords), stats.CatProtocol)
	if m.pending == nil {
		// A remote fetch materialized the diff while we were charging.
		return
	}
	e.materializeDiff(page, m.pending.Interval)
	m.pending = nil
}

// materializeDiff computes the diff for (page, interval) from the live
// twin and stores it until garbage collection.
func (e *lrcEngine) materializeDiff(page int, interval int32) {
	d := new(mem.Diff)
	e.diffTwin(page, d)
	e.diffs[e.keys.of(e.self, page, interval)] = d
	e.st().MemAlloc(d.MemSize())
}

// cacheDiff retains a fetched diff so later faulting nodes can obtain the
// whole chain from this node. An interval's diff is one object wherever it
// is held, so storing it where it is already held changes nothing; only a
// new entry is charged.
func (e *lrcEngine) cacheDiff(proc, page int, interval int32, d *mem.Diff) {
	n := len(e.diffs)
	e.diffs[e.keys.of(proc, page, interval)] = d
	if len(e.diffs) > n {
		e.st().MemAlloc(d.MemSize())
	}
}

// ---------------------------------------------------------------------------
// Interval closing

func (e *lrcEngine) closeCost() sim.Time {
	var cost sim.Time
	for range e.dirty {
		cost += e.costs().PageProtect
		if e.overlapped {
			cost += e.costs().CoprocPost
		}
	}
	return cost
}

func (e *lrcEngine) closeCommit() {
	if len(e.dirty) == 0 {
		return
	}
	rec := e.newIntervalRec()
	for _, pg32 := range rec.Pages {
		pg := int(pg32)
		p := e.pt.Page(pg)
		p.State = mem.ReadOnly
		m := e.useOf(pg)
		if e.overlapped {
			m.diffPage, m.diffInterval = pg32, rec.Interval
			e.postDiff(&m.inflight, m)
		} else {
			m.pending = rec
		}
		// Our copy now reflects our own new interval.
		e.pairs.Set(e.vecOf(&m.appliedVC), e.self, rec.Interval)
	}
}

// ---------------------------------------------------------------------------
// Write notices

func (e *lrcEngine) noticePage(rec *IntervalRec, page int) sim.Time {
	e.st().MemAlloc(wnEntryBytes)
	e.foldNotice(rec, page)
	return e.invalidate(rec, page)
}

// foldNotice appends rec to the page's notices and points the holder hint
// at its writer.
func (e *lrcEngine) foldNotice(rec *IntervalRec, page int) {
	m := e.pages.At(page)
	m.wns = e.wnRuns.Push(m.wns, pageWN{rec: rec})
	m.holder = int32(rec.Proc) + 1 // last-writer hint
}

func (e *lrcEngine) onBarrierRelease(g *grantInfo) {
	if g.GC {
		e.runGC()
	}
}

// ---------------------------------------------------------------------------
// Garbage collection

// runGC implements the homeless protocols' barrier-time garbage
// collection: the last writer of each page validates it by collecting all
// outstanding diffs; everyone else invalidates their copy; then all
// protocol data — diffs, write notices, interval records — is discarded.
func (e *lrcEngine) runGC() {
	e.event(trace.GCStart, -1, -1, 0)
	// The collection drops every page's notices and re-points its hint, the
	// deferred ones' included: fold them first, so each is freed where it
	// would have been.
	e.foldDeferred()

	// All nodes share an identical interval log after the barrier, so
	// they agree on each page's last writer, the largest (interval, proc),
	// without communication. One pass over the log keeps one entry per
	// written page, found through the page's mark; the sort then puts the
	// pages in ascending order.
	last := e.lastWrites[:0]
	for proc := range e.log {
		for _, rec := range e.log[proc] {
			w := pageWrite{interval: rec.Interval, proc: int32(rec.Proc)}
			for _, pg := range rec.Pages {
				m := e.pages.At(int(pg))
				if m.lastWrite == 0 {
					w.page = pg
					last = append(last, w)
					m.lastWrite = int32(len(last))
				} else if cur := &last[m.lastWrite-1]; w.interval > cur.interval ||
					(w.interval == cur.interval && w.proc > cur.proc) {
					cur.interval, cur.proc = w.interval, w.proc
				}
			}
		}
	}
	slices.SortFunc(last, func(a, b pageWrite) int { return cmp.Compare(a.page, b.page) })
	e.lastWrites = last

	// Pages untouched since the previous collection are not in last.
	for _, lw := range last {
		pg := int(lw.page)
		m := e.pages.At(pg)
		m.lastWrite = 0
		if int(lw.proc) == e.self {
			// Validate: bring our copy fully up to date.
			e.bringUpToDate(pg, stats.CatGC)
			if e.pt.Page(pg).State == mem.Invalid {
				e.pt.Page(pg).State = mem.ReadOnly
			}
		}
		m.holder = lw.proc + 1
	}

	// Wait until every node finished validating before discarding diffs.
	t0 := e.app().Now()
	e.gcRendezvous()
	e.st().Add(stats.CatGC, e.app().Now()-t0)

	// Discard protocol data.
	for _, lw := range last {
		pg := int(lw.page)
		m := e.pages.At(pg)
		u := m.use
		if u != nil {
			u.inflight.wait(e.app(), "gc twin busy page", pg)
			if u.pending != nil {
				// Nobody fetched this diff during validation; it is dead.
				p := e.pt.Page(pg)
				p.DropTwin(e.sys.pool)
				e.st().MemFree(int64(e.sys.Space.PageBytes()))
				u.pending = nil
			}
		}
		for range m.wns {
			e.st().MemFree(wnEntryBytes)
		}
		m.dropWNs()
		if int(lw.proc) != e.self {
			p := e.pt.Page(pg)
			if p.Data != nil {
				p.State = mem.Invalid
				e.sys.pool.PutPage(p.Data)
				p.Data = nil
				if u != nil && u.appliedVC.Dim() != 0 {
					e.st().MemFree(e.vecBytes())
					u.appliedVC.Init(0) // absent; its run is kept for the next copy
				}
			}
		}
	}
	for _, d := range e.diffs {
		e.st().MemFree(d.MemSize())
	}
	clear(e.diffs) // keeps the table: the next interval's diffs refill it without growing
	e.pruneLogThrough(e.clock)
	e.event(trace.GCEnd, -1, -1, 0)
}

// ---------------------------------------------------------------------------
// Message handlers

// lrcHandlers is every kind an LRC or OLRC node serves.
var lrcHandlers = [numKinds]handler[*lrcEngine]{
	kLockAcq:    {(*lrcEngine).lockHandling, (*lrcEngine).applyLockAcq},
	kLockFwd:    {(*lrcEngine).workLockFwd, (*lrcEngine).applyLockFwd},
	kBarrier:    {(*lrcEngine).lockHandling, (*lrcEngine).applyBarrier},
	kGCDone:     {(*lrcEngine).noWork, (*lrcEngine).applyBarrier},
	kMakeDiff:   {(*lrcEngine).workMakeDiff, (*lrcEngine).applyMakeDiff},
	kFetchDiffs: {(*lrcEngine).workFetchDiffs, (*lrcEngine).applyFetchDiffs},
	kFetchPage:  {(*lrcEngine).noWork, (*lrcEngine).applyFetchPage},
}

func (e *lrcEngine) work(s *service) sim.Time {
	return handlerOf(&lrcHandlers, s.m.Kind).work(e, s)
}

func (e *lrcEngine) apply(s *service) { handlerOf(&lrcHandlers, s.m.Kind).apply(e, s) }

// workMakeDiff and applyMakeDiff run on the writer's co-processor (OLRC):
// create the diff.
func (e *lrcEngine) workMakeDiff(*service) sim.Time {
	return e.costs().DiffCreateCost(e.sys.Space.PageWords)
}

func (e *lrcEngine) applyMakeDiff(s *service) {
	pm := s.m.Body.(*lrcUse)
	e.materializeDiff(int(pm.diffPage), pm.diffInterval)
	pm.inflight.done()
}

// workFetchDiffs and applyFetchDiffs serve a diff request at the writer.
// Lazy diffs are created on demand. An OLRC request never names the diff
// in flight: the co-processor queue is FIFO, and a diff's kMakeDiff is
// queued when its interval closes, before any node can learn of the
// interval. So a request taken while a diff is in flight names only older
// diffs, which are made; applyFetchDiffs panics on one that names it.
func (e *lrcEngine) workFetchDiffs(s *service) sim.Time {
	req := s.m.Body.(*fetchDiffsReq)
	pm := e.useOf(req.Page)
	var work sim.Time
	if pm.pending != nil {
		for _, r := range req.Recs {
			if r.Proc == e.self && r.Interval == pm.pending.Interval {
				work += e.costs().DiffCreateCost(e.sys.Space.PageWords)
			}
		}
	}
	return work
}

func (e *lrcEngine) applyFetchDiffs(s *service) {
	req := s.m.Body.(*fetchDiffsReq)
	pm := e.useOf(req.Page)
	if pm.inflight.busy {
		for _, r := range req.Recs {
			if r.Proc == e.self && r.Interval == pm.diffInterval {
				panic(fmt.Sprintf("core: node %d was asked for its diff of page %d interval %d while the diff is in flight (a node learns of an interval only after its close, which queued the diff ahead of the request)",
					e.self, req.Page, r.Interval))
			}
		}
	}
	if pm.pending != nil {
		e.materializeDiff(req.Page, pm.pending.Interval)
		pm.pending = nil
	}
	e.serveDiffs(s.m)
}

// serveDiffs answers, in the request's Diffs, with every requested diff
// this node created or has cached; the requester chases the rest
// elsewhere.
func (e *lrcEngine) serveDiffs(m paragon.Msg) {
	req := m.Body.(*fetchDiffsReq)
	req.Diffs = req.Diffs[:0]
	for _, r := range req.Recs {
		d := e.diffs[e.keys.of(r.Proc, req.Page, r.Interval)]
		if d == nil && r.Proc == e.self {
			// A writer always holds its own diffs until GC; a request routed
			// here by a write notice must be at least partially servable.
			panic(fmt.Sprintf("core: node %d lost its own diff for page %d interval %d",
				e.self, req.Page, r.Interval))
		}
		req.Diffs = append(req.Diffs, d)
	}
	e.respond(m, req)
}

// applyFetchPage serves a full-copy request in the request's body. A hint
// names only a node holding a copy (holderOf), so one without a copy
// panics. It takes no work.
func (e *lrcEngine) applyFetchPage(s *service) {
	req := s.m.Body.(*lrcFetchPageReq)
	p := e.pt.Page(req.Page)
	if p.Data == nil {
		panic(fmt.Sprintf("core: node %d asked for a copy of page %d it does not hold (a hint must name a holder: runGC re-points every hint at the page's last writer)",
			e.self, req.Page))
	}
	req.Data = e.snapshot(p)
	req.AppliedVC.CopyFrom(vecOrNil(&e.useOf(req.Page).appliedVC))
	e.respond(s.m, req)
}

// Finish runs the shared wind-down (base.finish).
func (e *lrcEngine) Finish() {
	e.finish(func(visit func(int, *inflightDiff)) {
		e.pages.Each(func(pg int, m *lrcPage) {
			if m.use != nil {
				visit(pg, &m.use.inflight)
			}
		})
	})
}
