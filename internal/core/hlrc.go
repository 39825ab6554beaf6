package core

import (
	"fmt"

	"gosvm/internal/mem"
	"gosvm/internal/paragon"
	"gosvm/internal/sim"
	"gosvm/internal/slab"
	"gosvm/internal/stats"
	"gosvm/internal/trace"
	"gosvm/internal/vc"
)

// hlrcEngine implements Home-based LRC (HLRC) and its overlapped variant
// OHLRC. Every page has a home; writers flush diffs to the home at the
// end of each interval and discard them immediately; faulting nodes fetch
// whole pages from the home in a single round trip.
type hlrcEngine struct {
	base
	pages slab.Chunks[hlrcPage]
	uses  slab.Slab[hlrcUse]
	// flushVecs backs the flush vectors flushOf hands out.
	flushVecs slab.Slab[vc.Sparse]

	// fetch is the body of this node's page-fetch request, filled in place
	// by ReadFault and answered in place by the home (fetchPageReq).
	fetch fetchPageReq
}

// hlrcPage is the per-page protocol state of one node, in two tiers. The
// slot is what a page the node faulted on or homes costs, and a page whose
// deferred notices a fold built (base.foldDeferred); a page that was only
// sent notices costs none. The rest only a page it uses (faults on, writes,
// homes) needs, and waits behind use until then.
type hlrcPage struct {
	// seen[j] is the highest interval of writer j whose updates this node
	// is required to observe (from write notices) or has incorporated
	// (from a home fetch): the "vector of lock timestamps" sent with fetch
	// requests. It lives in the slot, which never moves (its first pair is
	// inline, the rest grow in the node's pairs), and is absent — all-zero,
	// Dim() == 0 — until base.vecOf initialises it, or foldNotice for a page
	// whose charge learn made; every other reader goes through vecOrNil.
	seen vc.Sparse
	use  *hlrcUse
}

// hlrcUse is the tier of hlrcPage only a used page pays for (useOf).
type hlrcUse struct {
	// Home-side state (only on the page's home node):
	// flushVC[j] is the highest interval of writer j applied here: nil, the
	// all-zero vector, until flushOf takes it from the node's flushVecs. It
	// lives as long as the node, through any crash restart.
	flushVC      *vc.Sparse
	pendingDiff  []*diffFlush  // diffs awaiting causal predecessors
	pendingFetch []paragon.Msg // fetches awaiting flush coverage
	waiters      []*sim.Proc   // local accesses waiting for coverage
	// pub is the published frame of the current version of the page — a
	// snapshot of its bytes — which every fetch answers with until
	// homeWrite retires it; nil until the version's first fetch.
	pub *mem.Frame

	// Overlapped: a diff for this page is being computed on the coproc;
	// the twin is in use and the next write must wait.
	inflight inflightDiff
}

// fetchPageReq is a page-fetch request. Each node sends its one request
// body, hlrcEngine.fetch, refilled by every ReadFault: a node has at most
// one Call waiting, so the body is valid, and the node's live vector free to
// grow, for as long as the request waits on the home's pending list or in
// retransmission to a crashed home. The home answers in the same body
// (respondFetch): Frame is the page's frame with one reference added for
// the requester, which adopts it and clears the field, and Flush the flush
// vector its bytes reflect. Need and Flush are held by value, filled in
// place (vc.Sparse.CopyFrom), so once their pairs have grown they take no
// allocation; read them through &Need and &Flush.
type fetchPageReq struct {
	Page  int
	Need  vc.Sparse
	Frame *mem.Frame
	Flush vc.Sparse
}

// diffFlush is one diff on its way to the page's home: the one-way body of
// a kDiffFlush and, under OHLRC, of the kMakeDiff post that computes it. A
// writer takes the record from the simulation's free list (System.diffRecs)
// and refills it in place — Dep by vc.Sparse.CopyFrom, Diff by
// mem.Diff.Recompute — and once sent it belongs to the home, which puts it
// back on that list after applying it (homeApply): the next record any
// writer takes. Read Dep through &Dep.
type diffFlush struct {
	Page     int
	Writer   int
	Interval int32
	Dep      vc.Sparse // per-page dependency: intervals that must be applied first
	Diff     mem.Diff
}

func newHLRCEngine(sys *System, self int) *hlrcEngine {
	e := &hlrcEngine{}
	e.base.init(sys, self, e)
	e.pages = slab.NewChunks[hlrcPage](sys.Space.NumPages())
	return e
}

func (e *hlrcEngine) home(page int) int { return e.sys.homes[page] }

// useOf returns page's use-tier record, materializing it.
func (e *hlrcEngine) useOf(page int) *hlrcUse { return e.uses.Lazy(&e.pages.At(page).use) }

// flushOf returns page's flush vector, taking it from flushVecs and
// initialising it (base.vecOf) while it is absent.
func (e *hlrcEngine) flushOf(page int) *vc.Sparse {
	u := e.useOf(page)
	if u.flushVC == nil {
		u.flushVC = &e.flushVecs.Take(1)[0]
	}
	return e.vecOf(u.flushVC)
}

// ---------------------------------------------------------------------------
// Faults

func (e *hlrcEngine) ReadFault(page int) {
	e.resolve(page)
	e.readMiss(page)
	m := e.pages.At(page)
	t0 := e.app().Now()
	if e.home(page) == e.self {
		// The home's copy is always present; an "invalid" state here just
		// means required diffs are still in flight. Wait for coverage.
		u := e.useOf(page)
		for !u.flushVC.Covers(vecOrNil(&m.seen)) {
			u.waiters = append(u.waiters, e.app())
			e.app().ParkArg("hlrc home wait page", int64(page))
		}
		e.pt.Page(page).State = mem.ReadOnly
		e.st().Add(stats.CatData, e.app().Now()-t0)
		return
	}
	req := &e.fetch
	req.Page = page
	req.Need.CopyFrom(vecOrNil(&m.seen))
	resp := e.node.Call(e.app(), e.home(page), paragon.Msg{
		Kind:   kFetchPage,
		Size:   8 + e.clock.WireSize(),
		Class:  stats.ClassProtocol,
		Target: e.dataTarget(),
		Body:   req,
	})
	e.st().Add(stats.CatData, e.app().Now()-t0)
	pr := resp.Body.(*fetchPageReq)
	p := e.pt.Page(page)
	e.adoptShared(p, pr.Frame)
	pr.Frame = nil
	p.State = mem.ReadOnly
	e.pairs.MaxWith(e.vecOf(&m.seen), &pr.Flush)
	e.event(trace.PageFetch, page, e.home(page), 0)
}

// FreshRead implements the serving fast path's lock-free read
// revalidation (Ctx.FreshRead): drop any cached copy of the page and
// re-fetch the home's current copy, so the caller's subsequent Loads
// observe one atomic, up-to-date snapshot. A page this node has written
// in the open interval is read in place (its own writes are the
// freshest view it can legally observe, and merging remote diffs into a
// dirty copy is the home's job, not ours); so is a self-homed page,
// after waiting out any in-flight diffs the node is required to see.
func (e *hlrcEngine) FreshRead(page int) bool {
	p := e.pt.Page(page)
	if p.State == mem.ReadWrite {
		return true
	}
	if e.home(page) == e.self && p.State != mem.Invalid {
		return true
	}
	if p.State == mem.ReadOnly {
		// Drop the possibly stale cached copy; charge the reprotect.
		e.use(e.costs().PageProtect, stats.CatProtocol)
		p.State = mem.Invalid
	}
	e.ReadFault(page)
	return true
}

func (e *hlrcEngine) WriteFault(page int) {
	e.resolve(page)
	p := e.pt.Page(page)
	if p.State == mem.Invalid {
		e.ReadFault(page)
	}
	// Overlapped: the twin may still be feeding the co-processor's diff.
	e.useOf(page).inflight.wait(e.app(), "hlrc twin busy page", page)
	e.use(e.costs().PageFault, stats.CatProtocol)
	e.event(trace.WriteFault, page, -1, 0)
	if e.home(page) == e.self {
		// The home writes its copy in place and needs no diff of its own
		// writes. From here this node's stores change the home's bytes with
		// no fault to announce them. Nothing may block between this and the
		// state change: a fetch served in the gap would publish again.
		e.homeWrite(page)
	} else {
		// A writer twins to diff at interval end.
		e.use(e.costs().TwinCost(e.sys.Space.PageBytes()), stats.CatProtocol)
		p.MakeTwin(e.sys.pool)
		e.st().MemAlloc(int64(e.sys.Space.PageBytes()))
	}
	p.State = mem.ReadWrite
	e.markDirty(page)
}

// ---------------------------------------------------------------------------
// Interval closing

func (e *hlrcEngine) closeCost() sim.Time {
	var cost sim.Time
	for _, pg := range e.dirty {
		cost += e.costs().PageProtect
		if e.home(int(pg)) == e.self {
			continue // the home makes no diff of its own writes
		}
		if e.overlapped {
			cost += e.costs().CoprocPost
		} else {
			cost += e.costs().DiffCreateCost(e.sys.Space.PageWords)
		}
	}
	return cost
}

func (e *hlrcEngine) closeCommit() {
	if len(e.dirty) == 0 {
		return
	}
	rec := e.newIntervalRec()
	for _, pg32 := range rec.Pages {
		pg := int(pg32)
		e.pt.Page(pg).State = mem.ReadOnly
		m := e.pages.At(pg)
		if e.home(pg) == e.self {
			e.pairs.Set(e.vecOf(&m.seen), e.self, rec.Interval)
			e.homeWrite(pg)
			e.pairs.Set(e.flushOf(pg), e.self, rec.Interval)
			e.homeDrain(pg)
			continue
		}
		// A writer that is not the home fetched the page first, so its
		// requirement vector exists.
		df, ok := e.sys.diffRecs.Take()
		if !ok {
			df = new(diffFlush)
		}
		df.Page, df.Writer, df.Interval = pg, e.self, rec.Interval
		df.Dep.CopyFrom(&m.seen)
		e.pairs.Set(e.vecOf(&m.seen), e.self, rec.Interval)
		if e.overlapped {
			e.postDiff(&e.useOf(pg).inflight, df)
			continue
		}
		e.diffTwin(pg, &df.Diff)
		e.flushOwn(df)
	}
}

// flushOwn transmits a diff this node made to the page's home (from compute
// or coproc context; traffic is charged to this node either way).
func (e *hlrcEngine) flushOwn(df *diffFlush) {
	e.event(trace.DiffFlush, df.Page, e.home(df.Page), int64(df.Diff.WireSize()))
	e.node.Send(e.home(df.Page), paragon.Msg{
		Kind:   kDiffFlush,
		Size:   df.Diff.WireSize() + df.Dep.WireSize(),
		Class:  stats.ClassData,
		Target: e.dataTarget(),
		Body:   df,
	})
}

// ---------------------------------------------------------------------------
// Write notices

func (e *hlrcEngine) noticePage(rec *IntervalRec, page int) sim.Time {
	seen := e.vecOf(&e.pages.At(page).seen)
	e.pairs.RaiseTo(seen, rec.Proc, rec.Interval)
	if e.home(page) == e.self && e.useOf(page).flushVC.Covers(seen) {
		// The home's copy already holds the interval's diff. Otherwise the
		// home invalidates as any node does, keeping its copy: its next
		// access waits for the diff (ReadFault).
		return 0
	}
	return e.invalidate(rec, page)
}

// foldNotice raises the page's requirement vector to rec's interval,
// initialising it uncharged: learn charged it at the page's first deferred
// notice.
func (e *hlrcEngine) foldNotice(rec *IntervalRec, page int) {
	seen := &e.pages.At(page).seen
	if seen.Dim() == 0 {
		seen.Init(e.sys.Opts.Machine.Nodes)
	}
	e.pairs.RaiseTo(seen, rec.Proc, rec.Interval)
}

func (e *hlrcEngine) onBarrierRelease(g *grantInfo) {
	// After a barrier every node knows every interval up to the merged
	// clock; write-notice records older than that can never be requested
	// again. This is why the home-based protocols need no garbage
	// collection.
	e.pruneLogThrough(g.VC)
}

// ---------------------------------------------------------------------------
// Message handlers

// hlrcHandlers is every kind an HLRC or OHLRC node serves.
var hlrcHandlers = [numKinds]handler[*hlrcEngine]{
	kLockAcq:   {(*hlrcEngine).lockHandling, (*hlrcEngine).applyLockAcq},
	kLockFwd:   {(*hlrcEngine).workLockFwd, (*hlrcEngine).applyLockFwd},
	kBarrier:   {(*hlrcEngine).lockHandling, (*hlrcEngine).applyBarrier},
	kGCDone:    {(*hlrcEngine).noWork, (*hlrcEngine).applyGCDone},
	kMakeDiff:  {(*hlrcEngine).workMakeDiff, (*hlrcEngine).applyMakeDiff},
	kFetchPage: {(*hlrcEngine).noWork, (*hlrcEngine).applyFetchPage},
	kDiffFlush: {(*hlrcEngine).workDiffFlush, (*hlrcEngine).applyDiffFlush},
}

func (e *hlrcEngine) work(s *service) sim.Time {
	return handlerOf(&hlrcHandlers, s.m.Kind).work(e, s)
}

func (e *hlrcEngine) apply(s *service) { handlerOf(&hlrcHandlers, s.m.Kind).apply(e, s) }

// workMakeDiff and applyMakeDiff run on the writer's co-processor (OHLRC).
func (e *hlrcEngine) workMakeDiff(*service) sim.Time {
	return e.costs().DiffCreateCost(e.sys.Space.PageWords)
}

func (e *hlrcEngine) applyMakeDiff(s *service) {
	df := s.m.Body.(*diffFlush)
	e.diffTwin(df.Page, &df.Diff)
	e.useOf(df.Page).inflight.done()
	e.flushOwn(df)
}

// workDiffFlush and applyDiffFlush run at the home (compute under HLRC,
// coproc under OHLRC): apply the incoming diff once its causal
// predecessors are in.
func (e *hlrcEngine) workDiffFlush(s *service) sim.Time {
	return e.costs().DiffApplyCost(s.m.Body.(*diffFlush).Diff.Words())
}

func (e *hlrcEngine) applyDiffFlush(s *service) {
	df := s.m.Body.(*diffFlush)
	page := df.Page
	f := e.flushOf(page)
	if !f.Covers(&df.Dep) {
		u := e.useOf(page)
		u.pendingDiff = append(u.pendingDiff, df)
		return
	}
	e.homeApply(df)
	e.homeDrain(page)
}

// homeApply applies df to the home's copy and recycles the record: from
// here it is the next writer's to refill. Under mem.CheckFrames a record
// already on the free list, applied twice or recycled early, panics.
func (e *hlrcEngine) homeApply(df *diffFlush) {
	if mem.CheckFrames && slab.Holds(&e.sys.diffRecs, df) {
		panic(fmt.Sprintf("core: node %d applying a recycled diff record (page %d, writer %d, interval %d)",
			e.self, df.Page, df.Writer, df.Interval))
	}
	p := e.homeWrite(df.Page)
	df.Diff.Apply(p.Data)
	e.pairs.RaiseTo(e.flushOf(df.Page), df.Writer, df.Interval)
	e.event(trace.DiffApply, df.Page, df.Writer, int64(df.Diff.Words()))
	e.sys.diffRecs.Put(df)
}

// homeDrain retries pending diffs, fetches, and local waiters for a page
// after the flush vector advanced.
func (e *hlrcEngine) homeDrain(page int) {
	m := e.useOf(page)
	f := e.flushOf(page)
	for progress := true; progress; {
		progress = false
		for i, df := range m.pendingDiff {
			if df != nil && f.Covers(&df.Dep) {
				m.pendingDiff[i] = nil
				e.homeApply(df)
				progress = true
			}
		}
	}
	live := m.pendingDiff[:0]
	for _, df := range m.pendingDiff {
		if df != nil {
			live = append(live, df)
		}
	}
	m.pendingDiff = live

	keep := m.pendingFetch[:0]
	for _, req := range m.pendingFetch {
		fr := req.Body.(*fetchPageReq)
		if f.Covers(&fr.Need) {
			e.respondFetch(req, fr)
		} else {
			keep = append(keep, req)
		}
	}
	m.pendingFetch = keep

	if len(m.waiters) > 0 && f.Covers(vecOrNil(&e.pages.At(page).seen)) {
		for _, w := range m.waiters {
			w.Unpark()
		}
		m.waiters = nil
	}
}

// applyFetchPage runs at the home; it takes no work.
func (e *hlrcEngine) applyFetchPage(s *service) {
	fr := s.m.Body.(*fetchPageReq)
	pm := e.useOf(fr.Page)
	if pm.flushVC.Covers(&fr.Need) {
		e.respondFetch(s.m, fr)
		return
	}
	pm.pendingFetch = append(pm.pendingFetch, s.m)
}

// respondFetch writes the home's answer into the requester's body: the
// page's frame (publish) and the flush vector its bytes reflect, which the
// reply's wire size and the requester's next Need both come from. The live
// flush vector is the published frame's, since homeWrite retires the frame
// before any write to either.
func (e *hlrcEngine) respondFetch(req paragon.Msg, fr *fetchPageReq) {
	e.claimBody(req)
	fr.Frame = e.publish(fr.Page)
	fr.Flush.CopyFrom(e.flushOf(fr.Page))
	e.node.Respond(req, paragon.Msg{
		Kind:  kFetchPage,
		Size:  e.sys.Space.PageBytes() + fr.Flush.WireSize(),
		Class: stats.ClassData,
		Body:  fr,
	})
}

// publish returns the frame a fetch of page answered now carries, with one
// reference added for the requester. The home copies once per version, not
// once per fetch: the first fetch of a version publishes the frame and every
// later one shares it, until homeWrite retires it. While this node has the
// page open its stores change the bytes with no fault to announce them, so
// there is no version to share and each fetch gets a one-off frame of its
// own.
func (e *hlrcEngine) publish(page int) *mem.Frame {
	p := e.pt.Page(page)
	if p.State == mem.ReadWrite {
		return mem.NewFrame(e.snapshot(p))
	}
	u := e.useOf(page)
	if u.pub == nil {
		u.pub = mem.NewFrame(e.snapshot(p))
	}
	u.pub.Share()
	return u.pub
}

// homeWrite must come before every write to the bytes or the flush vector
// of a page this node homes: it retires the published frame, so the next
// fetch publishes the new version (the holders keep the old frame; the
// home's was one reference among theirs). The home's own copy is always
// private: a page's home never fetches it.
func (e *hlrcEngine) homeWrite(page int) *mem.Page {
	p := e.pt.Page(page)
	if u := e.useOf(page); u.pub != nil {
		u.pub.Release(e.sys.pool)
		u.pub = nil
	}
	return p
}

// Finish runs the shared wind-down (base.finish) and, under
// mem.CheckFrames, verifies that no frame this node publishes or holds was
// written.
func (e *hlrcEngine) Finish() {
	e.finish(func(visit func(int, *inflightDiff)) {
		e.pages.Each(func(pg int, m *hlrcPage) {
			if m.use != nil {
				visit(pg, &m.use.inflight)
			}
		})
	})
	if !mem.CheckFrames {
		return
	}
	e.pages.Each(func(_ int, m *hlrcPage) {
		if m.use != nil && m.use.pub != nil {
			m.use.pub.Verify()
		}
	})
	e.pt.Each(func(_ int, p *mem.Page) {
		if f, _ := p.Shared(); f != nil {
			f.Verify()
		}
	})
}
