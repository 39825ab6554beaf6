package core

import (
	"gosvm/internal/paragon"
	"gosvm/internal/stats"
	"gosvm/internal/vc"
)

// Hierarchical k-ary tree barrier.
//
// The paper's prototypes use a centralized barrier: every node reports to
// a single manager, which merges the interval records and releases
// everyone. That is O(n) serialized interrupt service at the manager per
// episode — fine at 8 nodes, ruinous at 1024. Above BarrierCrossover nodes
// the nodes instead form a k-ary tree (k = 8) in heap layout: node i's
// parent is (i-1)/k, its children k*i+1 .. k*i+k.
//
// Arrivals climb the tree as aggregated subtree summaries (kBarrierUp):
// the component-wise min and max of the subtree's vector clocks, the
// union of its new interval records, and the subtree's peak protocol
// memory. The root — node 0, the same node that runs the centralized
// manager — merges exactly as the centralized algorithm does, then pushes
// releases down (kBarrierDown). Each edge carries only the records the
// receiving subtree's minimum clock shows missing; individual nodes skip
// records they already know because learn is idempotent. Service
// cost per node is O(radix) messages instead of O(n), and root ingress
// bytes are O(radix * (n + new records)) instead of O(n^2).
//
// Garbage-collection decisions (homeless protocols) still happen at the
// root, fed by per-subtree protocol-memory maxima; the GC rendezvous
// itself stays centralized — GC is rare and correctness-critical, not a
// barrier-rate hot path.

// treeUp is one subtree's aggregated barrier arrival: its root's report,
// with VC raised to the component-wise max over the subtree's clocks, Recs
// the union of its new interval records and ProtoMem its per-node maximum;
// MinVC is the component-wise min. Each node owns one, treeBarrier.up,
// refilled by treeAggregate every episode; the parent writes the subtree's
// release into its Grant and sends a pointer to it down.
type treeUp struct {
	barrierReport
	MinVC vc.VC
}

func (u *treeUp) wireSize(withVC bool) int {
	return 16 + u.MinVC.WireSize() + u.VC.WireSize() + recsWireSize(u.Recs, withVC)
}

// treeBarrier is one node's view of the barrier tree.
type treeBarrier struct {
	radix    int
	parent   int
	children []int

	// Per-episode state.
	selfIn  bool           // the local application has arrived
	ownRep  *barrierReport // the local arrival report
	childUp []*treeUp      // per child slot, nil until its subtree arrives
	arrived int            // children whose subtree reports are in

	up   treeUp           // this subtree's summary (non-root)
	reps []*barrierReport // treeRootComplete's reports (root)
}

func newTreeBarrier(self, radix, nproc int) *treeBarrier {
	tb := &treeBarrier{radix: radix, parent: (self - 1) / radix}
	for c := radix*self + 1; c <= radix*self+radix && c < nproc; c++ {
		tb.children = append(tb.children, c)
	}
	tb.childUp = make([]*treeUp, len(tb.children))
	return tb
}

// resetEpisode clears per-episode state.
func (tb *treeBarrier) resetEpisode() {
	tb.selfIn = false
	tb.ownRep = nil
	tb.arrived = 0
	clear(tb.childUp)
}

// treeArrive runs the local barrier arrival on the application proc; the
// release comes through the node's hand-off once the whole machine has
// arrived.
func (b *base) treeArrive(rep *barrierReport) {
	tb := b.tree
	tb.ownRep = rep
	tb.selfIn = true
	if tb.arrived == len(tb.children) {
		b.treeSubtreeDone()
	}
}

// treeSubtreeDone fires when the local node and every child subtree have
// arrived: the root completes the barrier, everyone else reports up.
func (b *base) treeSubtreeDone() {
	if b.self == barrierManager {
		b.treeRootComplete()
		return
	}
	up := b.treeAggregate()
	b.node.Send(b.tree.parent, paragon.Msg{
		Kind:  kBarrierUp,
		Size:  up.wireSize(b.wireVC()),
		Class: stats.ClassProtocol,
		Body:  up,
	})
}

// treeAggregate folds the local report and the child summaries into the
// node's subtree summary, tb.up.
func (b *base) treeAggregate() *treeUp {
	tb := b.tree
	rep, up := tb.ownRep, &tb.up
	up.Node, up.ProtoMem = rep.Node, rep.ProtoMem
	up.VC = append(up.VC[:0], rep.VC...)
	up.MinVC = append(up.MinVC[:0], rep.VC...)
	up.Recs = append(up.Recs[:0], rep.Recs...)
	for _, cu := range tb.childUp {
		for p := range up.MinVC {
			if cu.MinVC[p] < up.MinVC[p] {
				up.MinVC[p] = cu.MinVC[p]
			}
			if cu.VC[p] > up.VC[p] {
				up.VC[p] = cu.VC[p]
			}
		}
		up.Recs = append(up.Recs, cu.Recs...)
		if cu.ProtoMem > up.ProtoMem {
			up.ProtoMem = cu.ProtoMem
		}
	}
	return up
}

// treeRootComplete merges the whole machine's arrivals at the root and
// releases every subtree, each release written into its child's summary —
// the tree counterpart of bmgrComplete.
func (b *base) treeRootComplete() {
	tb := b.tree
	// The centralized merge, over the root's own report and each child
	// subtree's summary report. (The root's own records are already logged.)
	tb.reps = append(tb.reps[:0], tb.ownRep)
	for _, cu := range tb.childUp {
		tb.reps = append(tb.reps, &cu.barrierReport)
	}
	merged, gc := b.mergeReports(tb.reps)
	for i, c := range tb.children {
		cu := tb.childUp[i]
		b.fillGrant(&cu.Grant, merged, gc, cu.MinVC)
		b.sendDown(c, &cu.Grant)
	}
	local := &tb.ownRep.Grant
	b.fillGrant(local, merged, gc, tb.ownRep.VC)
	tb.resetEpisode()
	b.episodeDone(local)
}

// sendDown sends child c its subtree's release, g.
func (b *base) sendDown(c int, g *grantInfo) {
	b.node.Send(c, paragon.Msg{
		Kind:  kBarrierDown,
		Size:  8 + g.wireSize(b.wireVC()),
		Class: stats.ClassProtocol,
		Body:  g,
	})
}

// filterRecsSinceInto appends to dst the records of a release a child
// subtree with minimum clock `have` is missing.
func filterRecsSinceInto(dst, recs []*IntervalRec, have vc.VC) []*IntervalRec {
	for _, r := range recs {
		if r.Interval > have[r.Proc] {
			dst = append(dst, r)
		}
	}
	return dst
}

// applyBarrierUp services a child subtree's arrival (dispatcher context on
// the parent); its work is lockHandling.
func (b *base) applyBarrierUp(s *service) {
	tb := b.tree
	tb.childUp[s.m.From-(tb.radix*b.self+1)] = s.m.Body.(*treeUp)
	tb.arrived++
	if tb.selfIn && tb.arrived == len(tb.children) {
		b.treeSubtreeDone()
	}
}

// applyBarrierDown services the parent's release, written into this
// node's summary (dispatcher context): write each child subtree its slice
// into the child's summary, then wake the local application. Its work is
// lockHandling.
func (b *base) applyBarrierDown(s *service) {
	g := s.m.Body.(*grantInfo)
	tb := b.tree
	for i, c := range tb.children {
		cg := &tb.childUp[i].Grant
		cg.VC = append(cg.VC[:0], g.VC...)
		cg.GC = g.GC
		cg.Intervals = filterRecsSinceInto(cg.Intervals[:0], g.Intervals, tb.childUp[i].MinVC)
		b.sendDown(c, cg)
	}
	tb.resetEpisode()
	b.release.give(g)
}
