package core

import (
	"fmt"
	"sort"

	"gosvm/internal/fault"
	"gosvm/internal/mem"
	"gosvm/internal/paragon"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
	"gosvm/internal/vc"
)

// This file implements crash recovery for the home-based protocols:
// replication of home-page state onto the K next nodes in home order
// (eagerly mirrored diffs, or periodic checkpoints plus writer-side
// diff logs), failure detection through the transport watchdog, and a
// re-homing protocol that promotes a surviving replica to be the new
// home and redirects in-flight fetches and diff flushes to it.
//
// Crash semantics: a crashed node loses its volatile protocol state —
// home-page copies, flush vectors, pending lists, and cached read-only
// pages. Its private working state (dirty pages with their twins, the
// vector clock, lock tokens) is assumed to survive, modeling an
// application-transparent local checkpoint of the worker itself. This
// file recovers the *home* role; mgr.go fails over the lock- and
// barrier-manager roles the same way, mirrored onto the same backups.

// recovery is the per-run recovery configuration and state.
type recovery struct {
	k        int      // replicas per home
	every    sim.Time // checkpoint period; 0 = eager mirroring
	crashes  []fault.Crash
	declared map[int]bool
}

// mirrorPage is a replica's recoverable copy of one page's home state.
type mirrorPage struct {
	// seeded is false until an initial image or checkpoint arrives;
	// diffs arriving earlier are parked rather than applied to nothing.
	seeded  bool
	data    []float64
	vc      *vc.Sparse
	pending []*diffFlush
}

// mirrorMsg is the kMirror payload: either one mirrored diff or a full
// checkpoint page image.
type mirrorMsg struct {
	Diff *diffFlush // non-nil: mirrored diff
	Page int        // checkpoint form:
	Data []float64
	VC   *vc.Sparse
}

// ckptEntry tells writers which of their diffs a checkpoint covers.
type ckptEntry struct {
	Page int
	VC   *vc.Sparse
}

type ckptNote struct {
	Entries []ckptEntry
}

type recoverPull struct {
	Entries []ckptEntry // per re-homed page: the flush vector the new home holds
}

// initRecovery validates and installs the recovery subsystem. Called
// whenever the plan crashes nodes or replication is requested.
func (s *System) initRecovery() error {
	opts := &s.Opts
	r := &opts.Recovery
	if !opts.Protocol.HomeBased() {
		return fmt.Errorf("core: crash recovery requires a home-based protocol (hlrc, ohlrc), got %q", opts.Protocol)
	}
	if r.CheckpointEvery > 0 && r.Replicas == 0 {
		return fmt.Errorf("core: Recovery.CheckpointEvery requires Replicas >= 1")
	}
	if r.Replicas >= opts.Machine.Nodes {
		return fmt.Errorf("core: Recovery.Replicas=%d needs Machine.Nodes >= %d, have %d",
			r.Replicas, r.Replicas+1, opts.Machine.Nodes)
	}
	for _, c := range opts.Fault.Crashes {
		if c.Node < 0 || c.Node >= opts.Machine.Nodes {
			return fmt.Errorf("core: crash of node %d outside Machine.Nodes=%d", c.Node, opts.Machine.Nodes)
		}
		if c.At <= 0 || (!c.Permanent() && c.RestartAt <= c.At) {
			return fmt.Errorf("core: crash of node %d has invalid schedule [%v, %v)", c.Node, c.At, c.RestartAt)
		}
	}
	s.rec = &recovery{
		k:        r.Replicas,
		every:    r.CheckpointEvery,
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

// startCkptTimers arms the periodic checkpoint on every node. The timer
// stops re-arming once all workers finish so the event queue drains.
func (s *System) startCkptTimers() {
	if s.rec.every == 0 {
		return
	}
	for i := range s.Engines {
		e := s.Engines[i].(*hlrcEngine)
		var tick func()
		tick = func() {
			if s.liveWorkers.Load() == 0 {
				return
			}
			if !s.M.Down(e.self) {
				e.shipCheckpoint()
			}
			s.K.After(s.rec.every, tick)
		}
		s.K.After(s.rec.every, tick)
	}
}

// declareDead runs the failure-declaration protocol: re-home the dead
// node's pages, fail over any synchronization-manager roles it held,
// reclaim stranded lock tokens, and redirect in-flight traffic.
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
	if s.fatal == nil {
		s.failoverManagers(dead, now)
	}
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
		c, _ := r.crashOf(dead, now)
		reason := "no replica holds its home pages (Recovery.Replicas=0)"
		if r.k > 0 {
			reason = "all replicas are down"
		}
		s.fatal = &fault.NodeDeadError{
			Node:     dead,
			At:       c.At,
			Restarts: !c.Permanent(),
			Role:     "home",
			Reason:   reason,
		}
		s.K.Stop()
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

	// Withdraw unacknowledged data-plane requests addressed to the dead
	// node and re-send them to each page's new home (the requesters'
	// timeout-resend). Synchronization traffic is redirected separately
	// once the manager roles have moved (failoverManagers, mgr.go).
	recalled := s.M.RecallPending(dead, func(m paragon.Msg) bool {
		return m.Kind == kFetchPage || m.Kind == kDiffFlush
	})
	for _, msg := range recalled {
		var pg int
		switch b := msg.Body.(type) {
		case *fetchPageReq:
			pg = b.Page
		case *diffFlush:
			pg = b.Page
		default:
			continue
		}
		s.M.Nodes[msg.From].Send(s.homes[pg], msg)
	}

	// Checkpoint mode: ask the surviving writers to replay logged diffs
	// the promoted checkpoint does not cover.
	if r.every > 0 {
		ne.broadcastPull(pages)
	}
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
	// Lock reclamation may have closed this node's open interval on
	// paper (synthCloseOpen) to hand out its write notices with the
	// revoked token. Make the close real now: flush the surviving dirty
	// pages to their current homes so fetches parked on those notices
	// drain, instead of waiting for this node's next natural close.
	if b := &e.base; b.synthClosed {
		b.synthClosed = false
		if len(b.dirty) > 0 {
			e.node.CPU.Steal(b.co.closeCost())
			b.co.closeCommit()
		}
	}
	// A barrier release that completed on the promoted manager while
	// this ex-manager was down is parked in its local-release slot;
	// deliver it now that the app proc may run again.
	if b := &e.base; b.bmgr != nil && b.bmgr.localRelease != nil && b.bmgr.localWait != nil {
		w := b.bmgr.localWait
		b.bmgr.localWait = nil
		w.Unpark()
	}
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

func (e *hlrcEngine) recovering() bool { return e.sys.rec != nil && e.sys.rec.k > 0 }

func (e *hlrcEngine) mirrorOf(pg int) *mirrorPage {
	mp, ok := e.mirrors[pg]
	if !ok {
		mp = &mirrorPage{}
		e.mirrors[pg] = mp
	}
	return mp
}

// mirrorDiff forwards a diff just incorporated into home state to every
// replica of this home. Eager mode mirrors every diff; checkpoint mode
// only mirrors the home's own writes (remote writers keep their diffs
// in a local log until a checkpoint covers them).
func (e *hlrcEngine) mirrorDiff(df *diffFlush) {
	if !e.recovering() {
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

// handleMirror runs on a replica (or on a just-promoted home receiving
// stragglers from before the crash).
func (e *hlrcEngine) handleMirror(m paragon.Msg) (sim.Time, func()) {
	mm := m.Body.(*mirrorMsg)
	var work sim.Time
	if mm.Diff != nil {
		work = e.costs().DiffApplyCost(mm.Diff.Diff.Words())
	} else {
		work = e.costs().TwinCost(e.sys.Space.PageBytes())
	}
	return work, func() {
		if mm.Diff != nil {
			df := mm.Diff
			if e.home(df.Page) == e.self {
				// We were promoted meanwhile: the mirror stream merges
				// into live home state (diff application is idempotent).
				e.homeReceiveDiff(df)
				return
			}
			e.mirrorApply(df)
			return
		}
		if e.home(mm.Page) == e.self {
			e.installCkptAsHome(mm)
			return
		}
		mp := e.mirrorOf(mm.Page)
		if mp.seeded && !covers(mm.VC, e.mirrorVC(mp)) {
			return // stale checkpoint from before a re-homing
		}
		if mp.data == nil {
			mp.data = make([]float64, e.sys.Space.PageWords)
			e.st().MemAlloc(int64(e.sys.Space.PageBytes()))
		}
		copy(mp.data, mm.Data)
		mp.vc = mm.VC.Copy()
		mp.seeded = true
		e.drainMirror(mp)
	}
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

// installCkptAsHome merges a straggler full-page checkpoint into live
// home state (we were promoted and the old home's last checkpoint was
// still in flight). Only applied if it is ahead of what we hold.
func (e *hlrcEngine) installCkptAsHome(mm *mirrorMsg) {
	f := e.flushOf(mm.Page)
	if !covers(mm.VC, f) {
		return
	}
	p := e.pt.Materialize(mm.Page)
	if p.Twin != nil {
		local := mem.ComputeDiff(mm.Page, p.Twin, p.Data)
		copy(p.Data, mm.Data)
		local.Apply(p.Data)
		copy(p.Twin, mm.Data)
	} else {
		copy(p.Data, mm.Data)
	}
	f.MaxWith(mm.VC)
	e.homeDrain(mm.Page)
}

// adoptPage promotes this node's mirror of pg to authoritative home
// state, merging any local dirty copy: the local working copy becomes
// mirror data plus this node's own uncommitted writes, and the twin is
// reset to the mirror image so the eventual diff captures exactly those
// writes. Parked requests at the old home migrate here.
func (e *hlrcEngine) adoptPage(pg int, old *hlrcEngine) {
	m := e.pages.at(pg)
	mp := e.mirrorOf(pg)
	p := e.pt.Materialize(pg)
	if !mp.seeded {
		// Should not happen (replicas are seeded at startup), but an
		// unseeded mirror means we only have our own copy; keep it.
		mp.data = nil
	}
	if mp.data != nil {
		if p.Twin != nil {
			// Local writes not yet diffed (dirty page, or an OHLRC diff
			// still queued on the coproc): layer them over the mirror
			// image and reset the twin so the eventual diff captures
			// exactly those writes.
			local := mem.ComputeDiff(pg, p.Twin, p.Data)
			copy(p.Data, mp.data)
			local.Apply(p.Data)
			copy(p.Twin, mp.data)
		} else {
			copy(p.Data, mp.data)
		}
		e.st().MemFree(int64(e.sys.Space.PageBytes()))
	}
	f := e.flushOf(pg)
	f.MaxWith(e.mirrorVC(mp))
	m.pendingDiff = append(m.pendingDiff, mp.pending...)
	delete(e.mirrors, pg)
	if p.State != mem.ReadWrite {
		if covers(f, m.seen) {
			p.State = mem.ReadOnly
		} else {
			p.State = mem.Invalid
		}
	}
	// Fetches parked at the dead home move here: the requesters' reply
	// ports are still live, so answers flow straight back to them.
	om := old.pages.at(pg)
	m.pendingFetch = append(m.pendingFetch, om.pendingFetch...)
	om.pendingFetch = nil
	om.pendingDiff = nil
	e.ckptDirty[pg] = true
}

// reseedReplicas ships full images of newly adopted pages to this
// node's own replicas, so the pages stay crash-tolerant after the
// promotion.
func (e *hlrcEngine) reseedReplicas(pages []int) {
	if !e.recovering() {
		return
	}
	for _, pg := range pages {
		e.shipFullPage(pg, e.sys.replicasOf(e.self))
	}
}

// shipFullPage sends one checkpoint-style page image to the targets.
func (e *hlrcEngine) shipFullPage(pg int, targets []int) {
	p := e.pt.Page(pg)
	if p.Data == nil {
		return
	}
	data := make([]float64, len(p.Data))
	copy(data, p.Data)
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

// shipCheckpoint ships every page modified since the last checkpoint to
// this home's replicas and tells the writers what is now covered.
func (e *hlrcEngine) shipCheckpoint() {
	if len(e.ckptDirty) == 0 {
		return
	}
	pages := make([]int, 0, len(e.ckptDirty))
	for pg := range e.ckptDirty {
		if e.home(pg) == e.self {
			pages = append(pages, pg)
		}
	}
	e.ckptDirty = make(map[int]bool)
	if len(pages) == 0 {
		return
	}
	sort.Ints(pages)
	reps := e.sys.replicasOf(e.self)
	note := &ckptNote{}
	var copyCost sim.Time
	for _, pg := range pages {
		e.shipFullPage(pg, reps)
		note.Entries = append(note.Entries, ckptEntry{Page: pg, VC: e.flushOf(pg).Copy()})
		copyCost += e.costs().TwinCost(e.sys.Space.PageBytes())
	}
	e.node.CPU.Steal(copyCost)
	size := 4
	for i := range note.Entries {
		size += 4 + note.Entries[i].VC.WireSize()
	}
	for n := 0; n < e.sys.Opts.Machine.Nodes; n++ {
		if n == e.self {
			continue
		}
		e.node.Send(n, paragon.Msg{
			Kind:   kCkptNote,
			Size:   size,
			Class:  stats.ClassProtocol,
			Target: e.dataTarget(),
			Body:   note,
		})
	}
}

// logDiff retains a flushed diff in the writer's local log (checkpoint
// mode): until a checkpoint note covers it, this node may be asked to
// replay it for a promoted home.
func (e *hlrcEngine) logDiff(df *diffFlush) {
	if e.sys.rec == nil || e.sys.rec.every == 0 || e.aurc {
		return
	}
	e.dlog[df.Page] = append(e.dlog[df.Page], df)
	e.st().MemAlloc(df.Diff.MemSize())
}

// handleCkptNote prunes the diff log: everything a checkpoint covers is
// recoverable from the replicas and need not be replayed by us.
func (e *hlrcEngine) handleCkptNote(m paragon.Msg) (sim.Time, func()) {
	return e.costs().LockHandling, func() {
		note := m.Body.(*ckptNote)
		for _, ent := range note.Entries {
			dl := e.dlog[ent.Page]
			if len(dl) == 0 {
				continue
			}
			keep := dl[:0]
			for _, df := range dl {
				if df.Interval > ent.VC.Get(e.self) {
					keep = append(keep, df)
				} else {
					e.st().MemFree(df.Diff.MemSize())
				}
			}
			if len(keep) == 0 {
				delete(e.dlog, ent.Page)
			} else {
				e.dlog[ent.Page] = keep
			}
		}
	}
}

// broadcastPull (checkpoint mode) asks every surviving writer to replay
// logged diffs beyond what the promoted checkpoint covers.
func (e *hlrcEngine) broadcastPull(pages []int) {
	pull := &recoverPull{}
	size := 4
	for _, pg := range pages {
		f := e.flushOf(pg).Copy()
		pull.Entries = append(pull.Entries, ckptEntry{Page: pg, VC: f})
		size += 4 + f.WireSize()
	}
	for n := 0; n < e.sys.Opts.Machine.Nodes; n++ {
		if n == e.self {
			continue
		}
		e.node.Send(n, paragon.Msg{
			Kind:   kRecoverPull,
			Size:   size,
			Class:  stats.ClassProtocol,
			Target: e.dataTarget(),
			Body:   pull,
		})
	}
}

// handleRecoverPull replays logged diffs the new home is missing. The
// replayed flushes travel the normal kDiffFlush path, so causal
// ordering (Dep gating) and idempotent application make the replay
// order-independent.
func (e *hlrcEngine) handleRecoverPull(m paragon.Msg) (sim.Time, func()) {
	return e.costs().LockHandling, func() {
		pull := m.Body.(*recoverPull)
		for _, ent := range pull.Entries {
			for _, df := range e.dlog[ent.Page] {
				if df.Interval > ent.VC.Get(e.self) {
					e.sendDiff(df)
				}
			}
		}
	}
}

// wipeVolatile models the restart of a crashed node: cached read-only
// copies and any stale home-side state are gone. Dirty pages (with
// their twins) survive as private worker state and flush to the pages'
// current homes at the next interval close.
func (e *hlrcEngine) wipeVolatile() {
	e.pages.each(func(pg int, m *hlrcPage) {
		// No page is homed here anymore (re-homing ran first).
		if m.flushVC != nil {
			e.st().MemFree(e.vecBytes())
			m.flushVC = nil
		}
		m.pendingDiff = nil
		m.pendingFetch = nil
		// Home-wait parkers must re-evaluate: the page's home moved.
		for _, w := range m.waiters {
			w.Unpark()
		}
		m.waiters = nil
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
	e.ckptDirty = make(map[int]bool)
}

// homeSelfFlush incorporates the home's own writes to a page it homes:
// the flush vector advances locally and the diff is mirrored eagerly in
// both recovery modes (the home's writes exist nowhere else).
func (e *hlrcEngine) homeSelfFlush(df *diffFlush) {
	f := e.flushOf(df.Page)
	f.RaiseTo(df.Writer, df.Interval)
	e.ckptDirty[df.Page] = true
	e.mirrorDiff(df)
	e.homeDrain(df.Page)
}
