package core

import (
	"fmt"
	"slices"

	"gosvm/internal/fault"
	"gosvm/internal/mem"
	"gosvm/internal/paragon"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
	"gosvm/internal/vc"
)

// This file implements crash recovery for the home-based protocols:
// replication of home-page state onto the K next nodes in home order
// (every diff is mirrored when its home receives it, before any send
// that depends on it), failure detection through the transport
// watchdog, and a re-homing protocol that promotes a surviving replica
// to be the new home and redirects in-flight fetches and diff flushes
// to it.
//
// Crash semantics: a crashed node loses its volatile protocol state —
// home-page copies, flush vectors, pending lists, and cached read-only
// pages. Its private working state (dirty pages with their twins, the
// vector clock, lock tokens) is assumed to survive, modeling an
// application-transparent local checkpoint of the worker itself. The
// home is the only role that moves. A crashed lock or barrier manager
// keeps its tables as it keeps its tokens, and every crash restarts, so
// requests to it wait out the outage in retransmission.

// recovery is the per-run recovery configuration and state.
type recovery struct {
	k        int // replicas per home
	crashes  []fault.Crash
	declared map[int]bool
}

// mirrorPage is a replica's recoverable copy of one page's home state.
type mirrorPage struct {
	// seeded is false until a page image arrives; diffs arriving
	// earlier are parked rather than applied to nothing.
	seeded  bool
	data    []float64
	vc      *vc.Sparse
	pending []*diffFlush
}

// mirrorMsg is the kMirror payload: either one mirrored diff or a full
// page image (replica reseeding after a promotion or a rejoin).
type mirrorMsg struct {
	Diff *diffFlush // non-nil: mirrored diff
	Page int        // full-image form:
	Data []float64
	VC   *vc.Sparse
}

// initRecovery validates and installs the recovery subsystem. Called
// whenever the plan crashes nodes or replication is requested.
func (s *System) initRecovery() error {
	opts := &s.Opts
	r := &opts.Recovery
	if !opts.Protocol.HomeBased() {
		return fmt.Errorf("core: crash recovery requires a home-based protocol (hlrc, ohlrc), got %q", opts.Protocol)
	}
	if r.Replicas >= opts.Machine.Nodes {
		return fmt.Errorf("core: Recovery.Replicas=%d needs Machine.Nodes >= %d, have %d",
			r.Replicas, r.Replicas+1, opts.Machine.Nodes)
	}
	for _, c := range opts.Fault.Crashes {
		if c.Node < 0 || c.Node >= opts.Machine.Nodes {
			return fmt.Errorf("core: crash of node %d outside Machine.Nodes=%d", c.Node, opts.Machine.Nodes)
		}
		if c.At <= 0 || c.RestartAt <= c.At {
			return fmt.Errorf("core: crash of node %d has invalid schedule [%v, %v)", c.Node, c.At, c.RestartAt)
		}
	}
	s.rec = &recovery{
		k:        r.Replicas,
		crashes:  opts.Fault.Crashes,
		declared: make(map[int]bool),
	}
	s.M.OnSuspect = func(dead, reporter int) { s.declareDead(dead, reporter) }
	s.M.OnRejoin = func(node int) { s.rejoin(node) }
	return nil
}

// replicasOf returns the nodes mirroring home h: the next k nodes in
// home-assignment order.
func (s *System) replicasOf(h int) []int {
	n := s.Opts.Machine.Nodes
	out := make([]int, 0, s.rec.k)
	for i := 1; i <= s.rec.k; i++ {
		out = append(out, (h+i)%n)
	}
	return out
}

// aliveSuccessor deterministically elects the new home for dead's
// pages: the first replica not currently down.
func (s *System) aliveSuccessor(dead int) int {
	for _, cand := range s.replicasOf(dead) {
		if !s.M.Down(cand) {
			return cand
		}
	}
	return -1
}

// unrecoverable ends the run with a NodeDeadError: dead homed pages that
// no survivor can take over.
func (s *System) unrecoverable(dead int, now sim.Time, reason string) {
	c, _ := s.rec.crashOf(dead, now)
	s.fatal = &fault.NodeDeadError{
		Node:   dead,
		At:     c.At,
		Role:   "home",
		Reason: reason,
	}
	s.K.Stop()
}

// redirect withdraws the unacknowledged requests of the given kinds
// addressed to the dead node and re-sends each one, from its original
// sender, to route(msg) — the simulation's shortcut for the requesters'
// timeout-resend. RecallPending returns them oldest first, so the order
// of the original sends is preserved.
func (s *System) redirect(dead int, route func(paragon.Msg) int, kinds ...int) {
	recalled := s.M.RecallPending(dead, func(m paragon.Msg) bool {
		return slices.Contains(kinds, m.Kind)
	})
	for _, msg := range recalled {
		s.M.Nodes[msg.From].Send(route(msg), msg)
	}
}

// crashOf finds the schedule entry for the node's current (or most
// recent) outage.
func (r *recovery) crashOf(node int, now sim.Time) (fault.Crash, bool) {
	var last fault.Crash
	found := false
	for _, c := range r.crashes {
		if c.Node == node && c.At <= now {
			last = c
			found = true
		}
	}
	return last, found
}

// seedReplicas installs the initial page images on every home's
// replicas. Runs at startup (staging still populated); the copies are
// charged to protocol memory, not network traffic — they model the
// replicas participating in initialization.
func (s *System) seedReplicas(staging []float64) {
	if s.rec.k == 0 {
		return
	}
	words := s.Space.PageWords
	for pg := 0; pg < s.Space.NumPages(); pg++ {
		for _, rep := range s.replicasOf(s.homes[pg]) {
			e := s.Engines[rep].(*hlrcEngine)
			mp := e.mirrorOf(pg)
			mp.seeded = true
			mp.data = make([]float64, words)
			copy(mp.data, staging[pg*words:(pg+1)*words])
			e.st().MemAlloc(int64(s.Space.PageBytes()))
		}
	}
}

// declareDead runs the failure-declaration protocol: re-home the dead
// node's pages and redirect in-flight data-plane traffic to the new homes.
// Idempotent; runs in event context at the instant of declaration (the
// simulation shortcut for a distributed agreement round).
func (s *System) declareDead(dead, reporter int) {
	r := s.rec
	if r == nil || r.declared[dead] {
		return
	}
	r.declared[dead] = true
	now := s.K.Now()
	if reporter >= 0 {
		if c, ok := r.crashOf(dead, now); ok {
			s.M.Nodes[reporter].Stats.Detect = now - c.At
		}
	}
	s.rehomePages(dead, now)
}

// rehomePages elects a survivor for every page homed at dead, promotes
// its mirror state to authoritative home state, and redirects in-flight
// fetches and flushes.
func (s *System) rehomePages(dead int, now sim.Time) {
	r := s.rec
	var pages []int
	for pg, h := range s.homes {
		if h == dead {
			pages = append(pages, pg)
		}
	}
	if len(pages) == 0 {
		return // no page depended on the dead node's volatile state
	}

	succ := -1
	if r.k > 0 {
		succ = s.aliveSuccessor(dead)
	}
	if succ < 0 {
		reason := "no replica holds its home pages (Recovery.Replicas=0)"
		if r.k > 0 {
			reason = "all replicas are down"
		}
		s.unrecoverable(dead, now, reason)
		return
	}

	ne := s.Engines[succ].(*hlrcEngine)
	de := s.Engines[dead].(*hlrcEngine)
	var promoteCost sim.Time
	for _, pg := range pages {
		s.homes[pg] = succ
		ne.adoptPage(pg, de)
		ne.st().Counts.PagesRehomed++
		promoteCost += s.Opts.Machine.Costs.TwinCost(s.Space.PageBytes())
	}
	// Promotion work competes with whatever the new home was computing.
	s.M.Nodes[succ].CPU.Steal(promoteCost)

	// Data-plane requests in flight to the dead node go to each page's
	// new home. Synchronization traffic stays addressed to the dead node
	// and is delivered after its restart.
	s.redirect(dead, func(m paragon.Msg) int {
		if fr, ok := m.Body.(*fetchPageReq); ok {
			return s.homes[fr.Page]
		}
		return s.homes[m.Body.(*diffFlush).Page]
	}, kFetchPage, kDiffFlush)

	// The promoted pages now replicate to the new home's successors.
	ne.reseedReplicas(pages)
	for _, pg := range pages {
		ne.homeDrain(pg)
	}
}

// rejoin runs when a crashed node restarts: its volatile protocol state
// is gone. If its pages were never re-homed (the crash produced no
// traffic towards it), it self-reports so the normal recovery path
// runs; then stale cached state is dropped and its replica mirrors are
// resynchronized from the surviving homes.
func (s *System) rejoin(node int) {
	r := s.rec
	if r == nil {
		return
	}
	if !r.declared[node] {
		homesAny := false
		for _, h := range s.homes {
			if h == node {
				homesAny = true
				break
			}
		}
		if homesAny {
			s.declareDead(node, node)
			if s.fatal != nil {
				return
			}
		}
	}
	e := s.Engines[node].(*hlrcEngine)
	e.wipeVolatile()
	// Resync this node's replica mirrors from the current homes.
	if r.k > 0 {
		for h := range s.Engines {
			if h == node || s.M.Down(h) {
				continue
			}
			for _, rep := range s.replicasOf(h) {
				if rep != node {
					continue
				}
				s.Engines[h].(*hlrcEngine).shipFullPagesTo(node)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Engine-side recovery state

// replicating reports whether this run mirrors home pages: it has the
// recovery subsystem and at least one replica per home.
func (b *base) replicating() bool { return b.sys.rec != nil && b.sys.rec.k > 0 }

func (e *hlrcEngine) mirrorOf(pg int) *mirrorPage {
	mp, ok := e.mirrors[pg]
	if !ok {
		mp = &mirrorPage{}
		e.mirrors[pg] = mp
	}
	return mp
}

// mirrorDiff forwards a diff this home has just received (or made
// itself) to every replica of this home.
func (e *hlrcEngine) mirrorDiff(df *diffFlush) {
	if !e.replicating() {
		return
	}
	size := df.Diff.WireSize() + df.Dep.WireSize()
	for _, rep := range e.sys.replicasOf(e.self) {
		e.st().ReplicaBytes += int64(size)
		e.node.Send(rep, paragon.Msg{
			Kind:   kMirror,
			Size:   size,
			Class:  stats.ClassProtocol,
			Target: e.dataTarget(),
			Body:   &mirrorMsg{Diff: df},
		})
	}
}

// workMirror and applyMirror run on a replica (or on a just-promoted home
// receiving stragglers from before the crash).
func (e *hlrcEngine) workMirror(s *service) sim.Time {
	if mm := s.m.Body.(*mirrorMsg); mm.Diff != nil {
		return e.costs().DiffApplyCost(mm.Diff.Diff.Words())
	}
	return e.costs().TwinCost(e.sys.Space.PageBytes())
}

func (e *hlrcEngine) applyMirror(s *service) {
	mm := s.m.Body.(*mirrorMsg)
	if mm.Diff != nil {
		df := mm.Diff
		if e.home(df.Page) == e.self {
			// We were promoted meanwhile: the mirror stream merges into
			// live home state (diff application is idempotent).
			e.homeReceiveDiff(df)
			return
		}
		e.mirrorApply(df)
		return
	}
	if e.home(mm.Page) == e.self {
		e.installLateImage(mm)
		return
	}
	mp := e.mirrorOf(mm.Page)
	if mp.seeded && !covers(mm.VC, e.mirrorVC(mp)) {
		return // stale image from before a re-homing
	}
	if mp.data == nil {
		e.st().MemAlloc(int64(e.sys.Space.PageBytes()))
	}
	mp.data = append(mp.data[:0], mm.Data...)
	mp.vc = mm.VC.Copy()
	mp.seeded = true
	e.drainMirror(mp)
}

func (e *hlrcEngine) mirrorVC(mp *mirrorPage) *vc.Sparse {
	if mp.vc == nil {
		mp.vc = vc.NewSparse(e.sys.Opts.Machine.Nodes)
	}
	return mp.vc
}

func (e *hlrcEngine) mirrorApply(df *diffFlush) {
	mp := e.mirrorOf(df.Page)
	if !mp.seeded || !covers(e.mirrorVC(mp), df.Dep) {
		mp.pending = append(mp.pending, df)
		return
	}
	df.Diff.Apply(mp.data)
	mp.vc.RaiseTo(df.Writer, df.Interval)
	e.drainMirror(mp)
}

func (e *hlrcEngine) drainMirror(mp *mirrorPage) {
	if !mp.seeded {
		return
	}
	f := e.mirrorVC(mp)
	for progress := true; progress; {
		progress = false
		for i, df := range mp.pending {
			if df != nil && covers(f, df.Dep) {
				mp.pending[i] = nil
				df.Diff.Apply(mp.data)
				f.RaiseTo(df.Writer, df.Interval)
				progress = true
			}
		}
	}
	live := mp.pending[:0]
	for _, df := range mp.pending {
		if df != nil {
			live = append(live, df)
		}
	}
	mp.pending = live
}

// installLateImage merges a straggler page image into live home state:
// a reseed image (reseedReplicas, shipFullPagesTo) was still in flight
// to this replica when its sender died and this node was promoted to
// home the page. Only applied if it is ahead of what we hold.
func (e *hlrcEngine) installLateImage(mm *mirrorMsg) {
	f := e.flushOf(mm.Page)
	if !covers(mm.VC, f) {
		return
	}
	e.pt.Materialize(mm.Page)
	rebase(mm.Page, e.homeWrite(mm.Page), mm.Data)
	e.pairs.MaxWith(f, mm.VC)
	e.homeDrain(mm.Page)
}

// rebase replaces a page's contents with image while keeping this node's
// writes that are not yet diffed (a dirty page, or an OHLRC diff still
// queued on the coproc): they are layered over the image, and the twin
// is reset to the image so the eventual diff captures exactly those
// writes. p.Data and p.Twin must be private (homeWrite): either may have
// been a frame this node adopted as a reader and shares with others.
func rebase(pg int, p *mem.Page, image []float64) {
	if p.Twin == nil {
		copy(p.Data, image)
		return
	}
	local := mem.ComputeDiff(pg, p.Twin, p.Data)
	copy(p.Data, image)
	local.Apply(p.Data)
	copy(p.Twin, image)
}

// adoptPage promotes this node's mirror of pg to authoritative home
// state, merging any local dirty copy (rebase). Parked requests at the
// old home migrate here.
func (e *hlrcEngine) adoptPage(pg int, old *hlrcEngine) {
	u := e.useOf(pg)
	mp := e.mirrorOf(pg)
	e.pt.Materialize(pg)
	p := e.homeWrite(pg)
	if !mp.seeded {
		// Should not happen (replicas are seeded at startup), but an
		// unseeded mirror means we only have our own copy; keep it.
		mp.data = nil
	}
	if mp.data != nil {
		rebase(pg, p, mp.data)
		e.st().MemFree(int64(e.sys.Space.PageBytes()))
	}
	f := e.flushOf(pg)
	e.pairs.MaxWith(f, e.mirrorVC(mp))
	u.pendingDiff = append(u.pendingDiff, mp.pending...)
	delete(e.mirrors, pg)
	if p.State != mem.ReadWrite {
		if covers(f, e.pages.At(pg).seenOrNil()) {
			p.State = mem.ReadOnly
		} else {
			p.State = mem.Invalid
		}
	}
	// Fetches parked at the dead home move here: the requesters' reply
	// ports are still live, so answers flow straight back to them.
	ou := old.useOf(pg)
	u.pendingFetch = append(u.pendingFetch, ou.pendingFetch...)
	ou.pendingFetch = nil
	ou.pendingDiff = nil
}

// reseedReplicas ships full images of newly adopted pages to this
// node's own replicas, so the pages stay crash-tolerant after the
// promotion.
func (e *hlrcEngine) reseedReplicas(pages []int) {
	if !e.replicating() {
		return
	}
	for _, pg := range pages {
		e.shipFullPage(pg, e.sys.replicasOf(e.self))
	}
}

// shipFullPage sends one full page image, with the flush vector it
// reflects, to the targets.
func (e *hlrcEngine) shipFullPage(pg int, targets []int) {
	p := e.pt.Page(pg)
	if p.Data == nil {
		return
	}
	data := slices.Clone(p.Data) // one image for every target: they copy it
	f := e.flushOf(pg).Copy()
	size := e.sys.Space.PageBytes() + f.WireSize()
	for _, rep := range targets {
		if rep == e.self {
			continue
		}
		e.st().ReplicaBytes += int64(size)
		e.node.Send(rep, paragon.Msg{
			Kind:   kMirror,
			Size:   size,
			Class:  stats.ClassProtocol,
			Target: e.dataTarget(),
			Body:   &mirrorMsg{Page: pg, Data: data, VC: f},
		})
	}
}

// shipFullPagesTo resynchronizes one rejoined replica with every page
// this node homes.
func (e *hlrcEngine) shipFullPagesTo(node int) {
	for pg, h := range e.sys.homes {
		if h == e.self {
			e.shipFullPage(pg, []int{node})
		}
	}
}

// wipeVolatile models the restart of a crashed node: cached read-only
// copies and any stale home-side state are gone. Dirty pages (with
// their twins) survive as private worker state and flush to the pages'
// current homes at the next interval close.
func (e *hlrcEngine) wipeVolatile() {
	e.pages.Each(func(pg int, m *hlrcPage) {
		u := m.use
		if u == nil {
			return // never homed, faulted on or written here
		}
		// No page is homed here anymore (re-homing ran first).
		if u.flushVC.Dim() != 0 {
			e.homeWrite(pg) // the vector goes, and with it what was published under it
			e.st().MemFree(e.vecBytes())
			u.flushVC.Init(0) // absent; its header and run are kept for the next homing
		}
		u.pendingDiff = nil
		u.pendingFetch = nil
		// Home-wait parkers must re-evaluate: the page's home moved.
		for _, w := range u.waiters {
			w.Unpark()
		}
		u.waiters = nil
	})
	// Cached read-only copies are gone too. This follows the page table,
	// not the protocol state: seeded initial copies exist on nodes whose
	// protocol state was never touched.
	e.pt.Each(func(pg int, p *mem.Page) {
		if p.State == mem.ReadOnly {
			p.State = mem.Invalid
		}
	})
	for pg, mp := range e.mirrors {
		if mp.data != nil {
			e.st().MemFree(int64(e.sys.Space.PageBytes()))
		}
		delete(e.mirrors, pg)
	}
}

// homeSelfFlush incorporates the home's own writes to a page it homes:
// the flush vector advances locally and the diff is mirrored (the home's
// writes exist nowhere else).
func (e *hlrcEngine) homeSelfFlush(df *diffFlush) {
	e.homeWrite(df.Page)
	e.pairs.RaiseTo(e.flushOf(df.Page), df.Writer, df.Interval)
	e.mirrorDiff(df)
	e.homeDrain(df.Page)
}
