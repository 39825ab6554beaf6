package core

import (
	"slices"

	"gosvm/internal/paragon"
	"gosvm/internal/sim"
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
// MinVC is the component-wise min.
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

	// localWait/release hand the release from dispatcher context back to
	// the parked application proc (or directly, when the local arrival
	// completes the subtree at the root).
	localWait *sim.Proc
	release   *grantInfo

	episodes int // root only: completed barrier episodes
}

func newTreeBarrier(self, radix, nproc int) *treeBarrier {
	tb := &treeBarrier{radix: radix, parent: (self - 1) / radix}
	for c := radix*self + 1; c <= radix*self+radix && c < nproc; c++ {
		tb.children = append(tb.children, c)
	}
	tb.childUp = make([]*treeUp, len(tb.children))
	return tb
}

// resetEpisode clears per-episode state. The pending release and waiter
// are intentionally left alone: they belong to the episode being
// completed, not the next one.
func (tb *treeBarrier) resetEpisode() {
	tb.selfIn = false
	tb.ownRep = nil
	tb.arrived = 0
	for i := range tb.childUp {
		tb.childUp[i] = nil
	}
}

// treeArrive runs the local barrier arrival on the application proc and
// returns the release payload once the whole machine has arrived.
func (b *base) treeArrive(id int, rep *barrierReport) *grantInfo {
	tb := b.tree
	tb.ownRep = rep
	tb.selfIn = true
	if tb.arrived == len(tb.children) {
		b.treeSubtreeDone()
	}
	if tb.release == nil {
		tb.localWait = b.app()
		b.app().ParkArg("tree barrier", int64(id))
	}
	g := tb.release
	tb.release = nil
	tb.localWait = nil
	return g
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

// treeAggregate folds the local report and the child summaries into one
// subtree summary.
func (b *base) treeAggregate() *treeUp {
	tb := b.tree
	rep := tb.ownRep
	up := &treeUp{barrierReport: *rep, MinVC: rep.VC.Copy()}
	up.VC, up.Recs = rep.VC.Copy(), slices.Clone(rep.Recs)
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
// releases every subtree — the tree counterpart of bmgrComplete.
func (b *base) treeRootComplete() {
	tb := b.tree
	// The centralized merge, over the root's own report and each child
	// subtree's summary report. (The root's own records are already logged.)
	reps := append(make([]*barrierReport, 0, 1+len(tb.childUp)), tb.ownRep)
	for _, cu := range tb.childUp {
		reps = append(reps, &cu.barrierReport)
	}
	merged, gc := b.mergeReports(reps)
	for i, c := range tb.children {
		g := grantInfo{VC: merged.Copy(), GC: gc, Intervals: b.logSince(tb.childUp[i].MinVC)}
		b.node.Send(c, paragon.Msg{
			Kind:  kBarrierDown,
			Size:  8 + g.wireSize(b.wireVC()),
			Class: stats.ClassProtocol,
			Body:  &g,
		})
	}
	local := &grantInfo{VC: merged.Copy(), GC: gc, Intervals: b.logSince(tb.ownRep.VC)}
	tb.resetEpisode()
	tb.episodes++
	if b.sys.onBarrier != nil {
		b.sys.onBarrier(tb.episodes)
	}
	tb.release = local
	wake(&tb.localWait)
}

// filterRecsSince narrows a release to the records a child subtree with
// minimum clock `have` is missing.
func filterRecsSince(recs []*IntervalRec, have vc.VC) []*IntervalRec {
	out := make([]*IntervalRec, 0, len(recs))
	for _, r := range recs {
		if r.Interval > have[r.Proc] {
			out = append(out, r)
		}
	}
	return out
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

// applyBarrierDown services the parent's release (dispatcher context):
// forward each child subtree its slice, then wake the local application.
// Its work is lockHandling.
func (b *base) applyBarrierDown(s *service) {
	g := s.m.Body.(*grantInfo)
	tb := b.tree
	for i, c := range tb.children {
		cg := grantInfo{VC: g.VC.Copy(), GC: g.GC, Intervals: filterRecsSince(g.Intervals, tb.childUp[i].MinVC)}
		b.node.Send(c, paragon.Msg{
			Kind:  kBarrierDown,
			Size:  8 + cg.wireSize(b.wireVC()),
			Class: stats.ClassProtocol,
			Body:  &cg,
		})
	}
	tb.resetEpisode()
	tb.release = g
	wake(&tb.localWait)
}
