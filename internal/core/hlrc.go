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

	// mirrors holds this node's replica copies of other homes' pages
	// (crash recovery, see recover.go).
	mirrors map[int]*mirrorPage

	// fetch is the body of this node's page-fetch request, filled in place
	// by ReadFault (fetchPageReq).
	fetch fetchPageReq
}

// hlrcPage is the per-page protocol state of one node, in two tiers. The
// slot is what every page the node was ever sent a write notice for costs;
// the rest only a page it uses (faults on, writes, homes) needs, and waits
// behind use until then.
type hlrcPage struct {
	// seen[j] is the highest interval of writer j whose updates this node
	// is required to observe (from write notices) or has incorporated
	// (from a home fetch): the "vector of lock timestamps" sent with fetch
	// requests. It lives in the slot, which never moves (its first pair is
	// inline, the rest grow in the node's pairs), and is absent — all-zero,
	// Dim() == 0 — until seenOf initialises it; every other reader goes
	// through seenOrNil.
	seen vc.Sparse
	use  *hlrcUse
}

// hlrcUse is the tier of hlrcPage only a used page pays for (useOf).
type hlrcUse struct {
	// Home-side state (only on the page's home node):
	// flushVC[j] is the highest interval of writer j applied here. Its
	// header comes from the node's flushVecs once and is kept: a crash
	// restart reinitialises it to absent (Dim() == 0), so it grows in the
	// node's pairs once however often the page is homed here. flushOf
	// initialises it; every other reader goes through flushOrNil.
	flushVC      *vc.Sparse
	pendingDiff  []*diffFlush  // diffs awaiting causal predecessors
	pendingFetch []paragon.Msg // fetches awaiting flush coverage
	waiters      []*sim.Proc   // local accesses waiting for coverage
	// pub is the published record of the current version of the page —
	// a snapshot of its bytes and its flush vector — which every fetch
	// answers with until homeWrite retires it; nil until the version's
	// first fetch.
	pub *fetchPageResp

	// Overlapped: a diff for this page is being computed on the coproc;
	// the twin is in use and the next write must wait.
	inflight inflightDiff
}

// fetchPageReq is a page-fetch request. Each node sends its one request
// body, hlrcEngine.fetch, refilled by every ReadFault: a node has at most
// one Call waiting, so the body is valid, and the node's live vector free to
// grow, for as long as the request waits — on the home's pending list,
// recalled from a dead home or forwarded past a stale one. Need is held by
// value, filled in place (vc.Sparse.CopyFrom), so once its pairs have grown
// it takes no allocation; read it through &Need.
type fetchPageReq struct {
	Page int
	Need vc.Sparse
}

// fetchPageResp is the record of one version of a home's page: the frame
// holding its bytes and the flush vector they reflect. The home publishes
// one per version (hlrcEngine.publish) and answers every fetch of that
// version with a pointer to it, so a record is immutable once published.
// Frame's reference count, not the record, tracks the holders: each answer
// adds one reference, which its requester adopts.
type fetchPageResp struct {
	Frame   *mem.Frame
	FlushVC *vc.Sparse
}

type diffFlush struct {
	Page     int
	Writer   int
	Interval int32
	Dep      *vc.Sparse // per-page dependency: intervals that must be applied first
	Diff     mem.Diff
}

func newHLRCEngine(sys *System, self int) *hlrcEngine {
	e := &hlrcEngine{}
	e.base.init(sys, self, e)
	e.pages = slab.NewChunks[hlrcPage](sys.Space.NumPages())
	e.mirrors = make(map[int]*mirrorPage)
	return e
}

func (e *hlrcEngine) home(page int) int { return e.sys.homes[page] }

// seenOf returns m's requirement vector, initialising it (and charging it
// to protocol memory) on first use.
func (e *hlrcEngine) seenOf(m *hlrcPage) *vc.Sparse {
	if m.seen.Dim() == 0 {
		e.st().MemAlloc(e.vecBytes())
		m.seen.Init(e.sys.Opts.Machine.Nodes)
	}
	return &m.seen
}

// seenOrNil reads the requirement vector: nil, the all-zero vector, while
// it is absent.
func (m *hlrcPage) seenOrNil() *vc.Sparse {
	if m.seen.Dim() == 0 {
		return nil
	}
	return &m.seen
}

// useOf returns page's use-tier record, materializing it.
func (e *hlrcEngine) useOf(page int) *hlrcUse { return e.uses.Lazy(&e.pages.At(page).use) }

// flushOf returns page's flush vector, initialising it (and charging it to
// protocol memory) while it is absent. It grows in the node's pairs.
func (e *hlrcEngine) flushOf(page int) *vc.Sparse {
	u := e.useOf(page)
	if u.flushVC == nil {
		u.flushVC = &e.flushVecs.Take(1)[0]
	}
	if u.flushVC.Dim() == 0 {
		e.st().MemAlloc(e.vecBytes())
		u.flushVC.Init(e.sys.Opts.Machine.Nodes)
	}
	return u.flushVC
}

// flushOrNil reads the flush vector: nil, the all-zero vector, while it is
// absent.
func (u *hlrcUse) flushOrNil() *vc.Sparse {
	if u.flushVC.Dim() == 0 {
		return nil
	}
	return u.flushVC
}

func covers(v, need *vc.Sparse) bool { return v.Covers(need) }

// ---------------------------------------------------------------------------
// Faults

func (e *hlrcEngine) ReadFault(page int) {
	e.readMiss(page)
	m := e.pages.At(page)
	t0 := e.app().Now()
	for e.home(page) == e.self {
		u := e.useOf(page)
		// The home's copy is always present; an "invalid" state here just
		// means required diffs are still in flight. Wait for coverage.
		// Re-check the home after every wake-up: if this node crashed and
		// rejoined, its pages moved and the fault must fetch remotely.
		if covers(u.flushOrNil(), m.seenOrNil()) {
			e.pt.Page(page).State = mem.ReadOnly
			e.st().Add(stats.CatData, e.app().Now()-t0)
			return
		}
		u.waiters = append(u.waiters, e.app())
		e.app().ParkArg("hlrc home wait page", int64(page))
	}
	req := &e.fetch
	req.Page = page
	req.Need.CopyFrom(m.seenOrNil())
	resp := e.node.Call(e.app(), e.home(page), paragon.Msg{
		Kind:   kFetchPage,
		Size:   8 + e.clock.WireSize(),
		Class:  stats.ClassProtocol,
		Target: e.dataTarget(),
		Body:   req,
	})
	e.st().Add(stats.CatData, e.app().Now()-t0)
	pr := resp.Body.(*fetchPageResp)
	p := e.pt.Page(page)
	e.adoptShared(p, pr.Frame)
	p.State = mem.ReadOnly
	e.pairs.MaxWith(e.seenOf(m), pr.FlushVC)
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
	p := e.pt.Page(page)
	if p.State == mem.Invalid {
		e.ReadFault(page)
	}
	// Overlapped: the twin may still be feeding the co-processor's diff.
	e.useOf(page).inflight.wait(e.app(), "hlrc twin busy page", page)
	e.use(e.costs().PageFault, stats.CatProtocol)
	e.event(trace.WriteFault, page, -1, 0)
	if e.home(page) != e.self || e.replicating() {
		// A writer twins to diff at interval end. The home needs no diff
		// of its own writes unless replication is on: then they exist
		// nowhere else, so they must be diffed and mirrored to the
		// replicas.
		e.use(e.costs().TwinCost(e.sys.Space.PageBytes()), stats.CatProtocol)
		p.MakeTwin(e.pool())
		e.st().MemAlloc(int64(e.sys.Space.PageBytes()))
	}
	if e.home(page) == e.self {
		// From here this node's stores change the home's bytes with no
		// fault to announce them. Nothing may block between this and the
		// state change: a fetch served in the gap would publish again.
		e.homeWrite(page)
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
		if e.home(int(pg)) == e.self && !e.replicating() {
			continue // the home diffs its own writes only to mirror them
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
		p := e.pt.Page(pg)
		p.State = mem.ReadOnly
		m := e.pages.At(pg)
		dep := m.seenOrNil().Copy() // nil-safe: Copy of nil is nil (all-zero)
		if dep == nil {
			dep = vc.NewSparse(e.sys.Opts.Machine.Nodes)
		}
		e.pairs.Set(e.seenOf(m), e.self, rec.Interval)
		// The home diffs its own writes only to mirror them: with
		// replication on they exist nowhere else, so they take the
		// self-flush path, which mirrors the diff to the replicas.
		if e.home(pg) == e.self && !(e.replicating() && p.Twin != nil) {
			e.homeWrite(pg)
			e.pairs.Set(e.flushOf(pg), e.self, rec.Interval)
			e.homeDrain(pg)
			continue
		}
		if e.overlapped {
			e.postDiff(&e.useOf(pg).inflight, &makeDiffReq{Page: pg, Interval: rec.Interval, Dep: dep})
			continue
		}
		e.flushOwn(&diffFlush{Page: pg, Writer: e.self, Interval: rec.Interval, Dep: dep, Diff: e.diffTwin(pg)})
	}
}

// flushOwn routes a diff this node made: into the home copy when this node
// homes the page (or became its home, via a promotion, while an OHLRC diff
// was in flight), to the home otherwise.
func (e *hlrcEngine) flushOwn(df *diffFlush) {
	if e.home(df.Page) == e.self {
		e.homeSelfFlush(df)
		return
	}
	e.sendDiff(df)
}

// sendDiff transmits a diff to its home (from compute or coproc context;
// traffic is charged to this node either way).
func (e *hlrcEngine) sendDiff(df *diffFlush) {
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
	seen := e.seenOf(e.pages.At(page))
	e.pairs.RaiseTo(seen, rec.Proc, rec.Interval)
	if e.home(page) == e.self {
		// The home never discards its copy; accesses wait for coverage.
		// A page already Invalid is charged PageInval again, unlike in
		// the branch below (a known cost-model deviation, kept so
		// simulated time does not move); only the first invalidation is
		// traced.
		if p := e.pt.Page(page); !covers(e.useOf(page).flushOrNil(), seen) && p.State != mem.ReadWrite {
			if p.State != mem.Invalid {
				p.State = mem.Invalid
				e.event(trace.Invalidate, page, rec.Proc, 0)
			}
			return e.costs().PageInval
		}
		return 0
	}
	// Most notices are for pages this node never referenced: Peek, so
	// they do not materialize a page-table chunk each.
	p := e.pt.Peek(page)
	if p == nil || p.State == mem.Invalid {
		return 0
	}
	if p.State == mem.ReadWrite {
		panic(fmt.Sprintf("core: node %d noticed page %d mid-interval (notices arrive only at interval boundaries)", e.self, page))
	}
	p.State = mem.Invalid
	e.event(trace.Invalidate, page, rec.Proc, 0)
	return e.costs().PageInval
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
	kLockAcq:     {(*hlrcEngine).lockHandling, (*hlrcEngine).applyLockAcq},
	kLockFwd:     {(*hlrcEngine).workLockFwd, (*hlrcEngine).applyLockFwd},
	kBarrier:     {(*hlrcEngine).lockHandling, (*hlrcEngine).applyBarrier},
	kGCDone:      {(*hlrcEngine).noWork, (*hlrcEngine).applyGCDone},
	kBarrierUp:   {(*hlrcEngine).lockHandling, (*hlrcEngine).applyBarrierUp},
	kBarrierDown: {(*hlrcEngine).lockHandling, (*hlrcEngine).applyBarrierDown},
	kMakeDiff:    {(*hlrcEngine).workMakeDiff, (*hlrcEngine).applyMakeDiff},
	kFetchPage:   {(*hlrcEngine).noWork, (*hlrcEngine).applyFetchPage},
	kDiffFlush:   {(*hlrcEngine).workDiffFlush, (*hlrcEngine).applyDiffFlush},
	kMirror:      {(*hlrcEngine).workMirror, (*hlrcEngine).applyMirror},
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
	req := s.m.Body.(*makeDiffReq)
	diff := e.diffTwin(req.Page)
	e.useOf(req.Page).inflight.done()
	e.flushOwn(&diffFlush{Page: req.Page, Writer: e.self, Interval: req.Interval, Dep: req.Dep, Diff: diff})
}

// workDiffFlush and applyDiffFlush run at the home (compute under HLRC,
// coproc under OHLRC): apply the incoming diff once its causal
// predecessors are in.
func (e *hlrcEngine) workDiffFlush(s *service) sim.Time {
	return e.costs().DiffApplyCost(s.m.Body.(*diffFlush).Diff.Words())
}

func (e *hlrcEngine) applyDiffFlush(s *service) { e.homeReceiveDiff(s.m.Body.(*diffFlush)) }

func (e *hlrcEngine) homeReceiveDiff(df *diffFlush) {
	if e.home(df.Page) != e.self {
		// Stale delivery: the page was re-homed (or this node restarted
		// and lost its home role) while the flush was in flight. Forward
		// to the current home; application is idempotent, so a duplicate
		// arrival there is harmless.
		e.sendDiff(df)
		return
	}
	// Mirroring happens at receipt, not at apply: a diff parked on causal
	// predecessors has already been acknowledged to its writer, so it
	// must be recoverable from the replicas now.
	e.mirrorDiff(df)
	f := e.flushOf(df.Page)
	if !covers(f, df.Dep) {
		u := e.useOf(df.Page)
		u.pendingDiff = append(u.pendingDiff, df)
		return
	}
	e.homeApply(df)
	e.homeDrain(df.Page)
}

func (e *hlrcEngine) homeApply(df *diffFlush) {
	p := e.homeWrite(df.Page)
	df.Diff.Apply(p.Data)
	e.pairs.RaiseTo(e.flushOf(df.Page), df.Writer, df.Interval)
	e.event(trace.DiffApply, df.Page, df.Writer, int64(df.Diff.Words()))
}

// homeDrain retries pending diffs, fetches, and local waiters for a page
// after the flush vector advanced.
func (e *hlrcEngine) homeDrain(page int) {
	m := e.useOf(page)
	f := e.flushOf(page)
	for progress := true; progress; {
		progress = false
		for i, df := range m.pendingDiff {
			if df != nil && covers(f, df.Dep) {
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
		if covers(f, &fr.Need) {
			e.respondFetch(req, fr)
		} else {
			keep = append(keep, req)
		}
	}
	m.pendingFetch = keep

	if len(m.waiters) > 0 && covers(f, e.pages.At(page).seenOrNil()) {
		for _, w := range m.waiters {
			w.Unpark()
		}
		m.waiters = nil
	}
}

// applyFetchPage runs at the home; it takes no work.
func (e *hlrcEngine) applyFetchPage(s *service) {
	fr := s.m.Body.(*fetchPageReq)
	if e.home(fr.Page) != e.self {
		// Stale delivery after a re-homing: forward the request. The reply
		// port records the original requester, so the current home answers
		// it directly.
		e.node.Send(e.home(fr.Page), s.m)
		return
	}
	pm := e.useOf(fr.Page)
	if covers(pm.flushOrNil(), &fr.Need) {
		e.respondFetch(s.m, fr)
		return
	}
	pm.pendingFetch = append(pm.pendingFetch, s.m)
}

func (e *hlrcEngine) respondFetch(req paragon.Msg, fr *fetchPageReq) {
	pub := e.publish(fr.Page)
	e.node.Respond(req, paragon.Msg{
		Kind:  kFetchPage,
		Size:  e.sys.Space.PageBytes() + pub.FlushVC.WireSize(),
		Class: stats.ClassData,
		Body:  pub,
	})
}

// publish returns the record a fetch of page answered now carries, with one
// reference to its frame added for the requester. The home copies once per
// version, not once per fetch: the first fetch of a version publishes the
// record and every later one shares it, until homeWrite retires it. The
// flush vector rides along because the reply's wire size and the
// requester's next Need both come from it. While this node has the page
// open its stores change the bytes with no fault to announce them, so
// there is no version to share and each fetch gets a one-off record of its
// own.
func (e *hlrcEngine) publish(page int) *fetchPageResp {
	p := e.pt.Page(page)
	if p.State == mem.ReadWrite {
		return &fetchPageResp{Frame: mem.NewFrame(e.snapshot(p)), FlushVC: e.flushOf(page).Copy()}
	}
	u := e.useOf(page)
	if u.pub == nil {
		u.pub = &fetchPageResp{Frame: mem.NewFrame(e.snapshot(p)), FlushVC: e.flushOf(page).Copy()}
	}
	u.pub.Frame.Share()
	return u.pub
}

// homeWrite must come before every write to the bytes or the flush vector
// of a page this node homes: it retires the published record, so the next
// fetch publishes the new version (the holders keep the old frame; the
// home's was one reference among theirs), and it makes this node's own copy and
// twin private first, in case they alias a frame it adopted as a reader
// before a promotion made it the home.
func (e *hlrcEngine) homeWrite(page int) *mem.Page {
	p := e.pt.Page(page)
	p.Own(e.pool())
	if u := e.useOf(page); u.pub != nil {
		u.pub.Frame.Release(e.sink())
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
			m.use.pub.Frame.Verify()
		}
	})
	e.pt.Each(func(_ int, p *mem.Page) {
		if f, _ := p.Shared(); f != nil {
			f.Verify()
		}
	})
}
