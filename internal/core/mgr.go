package core

import (
	"slices"
	"sort"

	"gosvm/internal/paragon"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
)

// This file fails over the synchronization-manager roles the way
// recover.go fails over the home role: each manager's state (the
// lock-owner table and the barrier arrivals) is mirrored to its
// K backups — the same replicasOf set that mirrors its home pages —
// before any grant or release that depends on the mutation is sent. On
// a watchdog-declared failure a deterministic promotion rule (the
// lowest-id live backup) takes over the dead node's manager roles,
// re-registers its accepted barrier arrivals in the original
// genealogical order, reclaims free lock tokens stranded on it, and
// redirects in-flight kLockAcq/kLockFwd/kBarrier traffic.
//
// Like adoptPage, promotion runs instantaneously in event context and
// reads the failed manager's tables directly: the simulation's stand-in
// for a backup replaying the updates mirrored to it. The backups keep
// no copy of their own — a kMgrMirror costs its wire bytes and its
// service time, nothing else. Mirror-before-grant ordering is what makes
// the stand-in sound: no mutation becomes visible to any third node
// before its mirror is on the wire.

// lockMgrOf returns the node currently holding lock-manager duty for
// lock: the natural manager (lock % Machine.Nodes) unless a crash promoted a
// backup.
func (s *System) lockMgrOf(lock int) int {
	nat := lock % s.Opts.Machine.Nodes
	if s.syncMgr == nil {
		return nat
	}
	return s.syncMgr[nat]
}

// bmgrNode returns the node currently running the centralized barrier
// (and the homeless GC rendezvous).
func (s *System) bmgrNode() int { return s.bmNode }

// engineBase returns node n's shared protocol base. Crash recovery
// requires the home-based protocols, so the concrete engine here is
// always *hlrcEngine.
func (s *System) engineBase(n int) *base {
	return &s.Engines[n].(*hlrcEngine).base
}

// mirrorMgr sends one manager-state update of size bytes to each of this
// manager's backups, before the forward, grant or release that depends on
// it: 12 bytes for an owner-table update, a barrier report's size for an
// arrival, 8 for a barrier reset. The message carries no payload (see the
// file comment).
func (b *base) mirrorMgr(size int) {
	if !b.replicating() {
		return
	}
	for _, rep := range b.sys.replicasOf(b.self) {
		b.st().MirrorBytes += int64(size)
		b.node.Send(rep, paragon.Msg{
			Kind:  kMgrMirror,
			Size:  size,
			Class: stats.ClassProtocol,
		})
	}
}

// handleMgrMirror charges a backup for taking in one mirrored update.
// The update itself is not stored (see the file comment).
func (b *base) handleMgrMirror(paragon.Msg) (sim.Time, func()) {
	return b.costs().LockHandling, nil
}

// deliverAdoptedRelease hands a barrier release to a node whose arrival
// was adopted from a crashed manager: that node's app proc is parked in
// its own (ex-manager) local-release slot. If the node is still down
// the release waits there and rejoin wakes the proc at restart.
func (b *base) deliverAdoptedRelease(node int, g *grantInfo) {
	ob := b.sys.engineBase(node)
	if ob.bmgr == nil {
		return
	}
	ob.bmgr.localRelease = g
	if !b.sys.M.Down(node) {
		wake(&ob.bmgr.localWait)
	}
}

// lockSlotsOf returns the natural lock-manager slots currently served
// by node, in slot order.
func (s *System) lockSlotsOf(node int) []int {
	var slots []int
	for nat := 0; nat < s.Opts.Machine.Nodes; nat++ {
		if s.lockMgrOf(nat) == node {
			slots = append(slots, nat)
		}
	}
	return slots
}

// aliveMgrSuccessor elects the new holder of the dead node's manager
// roles: the lowest-id live backup. Deliberately distinct from
// aliveSuccessor's ring order — the promotion rule is protocol-visible
// and must stay deterministic under overlapping outages.
func (s *System) aliveMgrSuccessor(dead int) int {
	best := -1
	for _, cand := range s.replicasOf(dead) {
		if s.M.Down(cand) {
			continue
		}
		if best < 0 || cand < best {
			best = cand
		}
	}
	return best
}

// failoverManagers moves the dead node's synchronization-manager roles
// to the elected backup, then reclaims stranded lock tokens and redirects
// in-flight synchronization traffic. Without backups (K=0) no role moves:
// requests to the dead manager wait out the restart in retransmission.
// The tree barrier's root is structural and not failed over either; a
// restarting root replays its frozen combine state.
func (s *System) failoverManagers(dead int, now sim.Time) {
	slots := s.lockSlotsOf(dead)
	barRole := s.bmgrNode() == dead && s.Opts.Machine.Nodes > 1 && !s.Opts.Machine.TreeBarrier()
	if s.rec.k > 0 && (barRole || len(slots) > 0) {
		succ := s.aliveMgrSuccessor(dead)
		if succ < 0 {
			role := "lock manager"
			if barRole {
				role = "barrier manager"
			}
			s.unrecoverable(dead, now, role, "all manager backups are down")
			return
		}
		if len(slots) > 0 {
			s.promoteLockMgr(dead, succ, slots)
		}
		if barRole {
			s.promoteBarrierMgr(dead, succ)
		}
	}
	s.redirectSyncTraffic(dead, s.reclaimLocks(dead))
}

// promoteLockMgr moves the dead node's lock-manager slots to succ and
// adopts its owner table for the moved locks. Re-mirroring the adopted
// entries keeps the role crash-tolerant after the promotion, exactly as
// reseedReplicas does for adopted pages.
func (s *System) promoteLockMgr(dead, succ int, slots []int) {
	if s.syncMgr == nil {
		s.syncMgr = make([]int, s.Opts.Machine.Nodes)
		for i := range s.syncMgr {
			s.syncMgr[i] = i
		}
	}
	for _, nat := range slots {
		s.syncMgr[nat] = succ
	}
	db := s.engineBase(dead)
	sb := s.engineBase(succ)
	moved := make([]int, 0, len(db.lockOwner))
	for l := range db.lockOwner {
		if s.lockMgrOf(l) == succ {
			moved = append(moved, l)
		}
	}
	sort.Ints(moved)
	for _, l := range moved {
		sb.mgrSetOwner(l, db.lockOwner[l])
		delete(db.lockOwner, l)
	}
	// The token of a moved lock nobody ever materialized — the dead
	// manager included — still rides with the manager role, and now
	// rests with succ. Locks succ touches for the first time after the
	// promotion get that for free from lockState's default, but a state
	// it materialized before (its own acquire caught mid-flight by the
	// crash) says owner=false and must be re-seated, or the redirected
	// request would queue on a token that no longer exists anywhere.
	var stale []int
	for l, ls := range sb.locks {
		if !ls.owner && s.lockMgrOf(l) == succ && db.locks[l] == nil {
			stale = append(stale, l)
		}
	}
	sort.Ints(stale)
	for _, l := range stale {
		owned := false
		for n := range s.Engines {
			if nls := s.engineBase(n).locks[l]; nls != nil && nls.owner {
				owned = true
				break
			}
		}
		if !owned {
			sb.locks[l].owner = true
		}
	}
	sb.st().Counts.MgrsRehomed += int64(len(slots))
	s.M.Nodes[succ].CPU.Steal(s.Opts.Machine.Costs.LockHandling * sim.Time(len(slots)))
}

// promoteBarrierMgr moves the centralized barrier to succ, re-registering
// the arrivals the dead manager had accepted in their original
// genealogical order. The remote waiters' reply ports live in the
// transport layer and survive the crash, so the promoted manager
// responds straight to them at completion; the dead manager's own local
// arrival (zero req) flows back through deliverAdoptedRelease.
func (s *System) promoteBarrierMgr(dead, succ int) {
	db := s.engineBase(dead)
	sb := s.engineBase(succ)
	s.bmNode = succ
	if sb.bmgr == nil {
		sb.bmgr = newBarrierMgr(s.Opts.Machine.Nodes)
	}
	adopted := 0
	if db.bmgr != nil {
		sb.bmgr.arrivals = append(sb.bmgr.arrivals, db.bmgr.arrivals...)
		sb.bmgr.episodes = db.bmgr.episodes
		db.bmgr.arrivals = nil
		adopted = len(sb.bmgr.arrivals)
		for _, a := range sb.bmgr.arrivals {
			sb.mirrorMgr(a.rep.wireSize(sb.wireVC()))
		}
	}
	sb.st().Counts.MgrsRehomed++
	s.M.Nodes[succ].CPU.Steal(s.Opts.Machine.Costs.LockHandling * sim.Time(adopted+1))
}

// reclaimLocks revokes free lock tokens stranded on the dead node: for
// every lock whose token demonstrably sits free on it (cached, not held
// inside a critical section), the lock's manager takes the token back
// and absorbs the dead node's coherence knowledge, so the next grant
// carries its write notices and acquirers proceed at detection time
// instead of waiting out the outage. Held tokens stay pinned — mutual
// exclusion forbids revoking a critical section — until the holder
// restarts. Returns the set of revoked locks.
func (s *System) reclaimLocks(dead int) map[int]bool {
	db := s.engineBase(dead)

	// Candidate locks, deterministically ordered: manager tables that
	// record dead as owner, plus tokens materialized on dead itself
	// (a lock dead only ever used locally has no table entry anywhere).
	seen := make(map[int]bool)
	var locks []int
	for n := range s.Engines {
		nb := s.engineBase(n)
		for l, o := range nb.lockOwner {
			if o == dead && s.lockMgrOf(l) == n && !seen[l] {
				seen[l] = true
				locks = append(locks, l)
			}
		}
	}
	for l, ls := range db.locks {
		if ls.owner && !seen[l] {
			seen[l] = true
			locks = append(locks, l)
		}
	}
	sort.Ints(locks)

	revoked := make(map[int]bool)
	absorbed := make(map[int]bool) // managers that already merged dead's knowledge
	synthed := false               // dead's open interval closed on paper
	for _, l := range locks {
		mgr := s.lockMgrOf(l)
		if mgr == dead {
			continue // K=0: the manager role stays with the restarting node
		}
		mb := s.engineBase(mgr)
		dls := db.locks[l]
		if dls == nil || !dls.owner {
			// The token is in flight towards dead (its own acquire):
			// leave the chase alone, it lands after the restart.
			continue
		}
		if dls.held {
			// Acquirers must wait for the restart anyway; pin the owner
			// so new acquires keep chasing the restarting node.
			if _, ok := mb.lockOwner[l]; !ok {
				mb.mgrSetOwner(l, dead)
			}
			continue
		}
		// Free token: revoke it. The dead node re-acquires remotely
		// after its restart, like any other node. The owner table's
		// tail is only rewritten when it still points at the dead node:
		// a younger live requester recorded there keeps the chain
		// intact, and its severed forward reconnects as a chase.
		dls.owner = false
		if cur, ok := mb.lockOwner[l]; !ok || cur == dead {
			mb.mgrSetOwner(l, mgr)
		}
		mls := mb.lockState(l)
		mls.owner = true
		mb.st().Counts.LocksReclaimed++
		revoked[l] = true
		if !synthed {
			// Writes made under the revoked token may still sit in
			// dead's open interval: close it on paper so the notices
			// travel with the token.
			synthed = true
			db.synthCloseOpen()
		}
		if !absorbed[mgr] {
			absorbed[mgr] = true
			mb.absorbFrom(db)
		}
	}
	return revoked
}

// absorbFrom merges another engine's interval knowledge into this one,
// exactly as a lock grant from that node would. Event context;
// invalidation work is stolen from compute.
func (b *base) absorbFrom(o *base) {
	b.node.CPU.Steal(b.learn(slices.Concat(o.log...), o.clock))
}

// redirectSyncTraffic re-sends the synchronization requests in flight
// to the dead node to each role's current holder, oldest first, so the
// genealogical order of the original sends is preserved.
//
// A forwarded acquire (kLockFwd) is the delicate case: it was addressed
// to the dead node as a link in the token chase, and the owner table
// records the chain's tail, not the token's location. If reclamation
// revoked this lock's token, the forward reconnects to the reclaimed
// token at the manager as a chase; otherwise the token is still bound
// for (or pinned on) the dead node, and the forward is re-sent there —
// retransmission delivers it after the restart, chain intact.
func (s *System) redirectSyncTraffic(dead int, revoked map[int]bool) {
	s.redirect(dead, func(msg *paragon.Msg) int {
		lr, ok := msg.Body.(*lockReq)
		if !ok {
			return s.bmgrNode() // kBarrier
		}
		if msg.Kind == kLockFwd {
			if !revoked[lr.Lock] {
				return dead
			}
			msg.Kind = kLockAcq
			lr.Chase = true
		}
		return s.lockMgrOf(lr.Lock) // the manager role may have moved
	}, kLockAcq, kLockFwd, kBarrier)
}
