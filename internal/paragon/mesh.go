package paragon

import "gosvm/internal/sim"

// mesh models the Paragon's 2-D wormhole-routed mesh at link granularity.
// The default machine model treats the network as a full crossbar (every
// message pays latency + size/bandwidth); enabling the mesh adds
// dimension-ordered (XY) routing with a per-hop latency and per-link
// occupancy, so messages crossing a congested link serialize — link-level
// hot spots on top of the node-level service serialization.
type mesh struct {
	rows, cols int
	hop        sim.Time
	// linkFree[l] is when link l's tail clears. Links are directional:
	// 4 per node (N, S, E, W).
	linkFree map[link]sim.Time
}

type link struct {
	from, to int // adjacent node ids
}

// DefaultHopLatency is the per-hop routing delay of the mesh model. The
// Paragon's hardware routing was sub-microsecond; contention, not hop
// count, is what the model is after.
const DefaultHopLatency = 200 * sim.Nanosecond

// EnableMesh switches the machine's network to the 2-D mesh model with
// the given per-hop latency (0 selects DefaultHopLatency). Node i sits at
// position (i/cols, i%cols) of the most-square grid.
func (m *Machine) EnableMesh(hop sim.Time) {
	if hop == 0 {
		hop = DefaultHopLatency
	}
	n := len(m.Nodes)
	rows := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			rows = d
		}
	}
	m.mesh = &mesh{
		rows:     rows,
		cols:     n / rows,
		hop:      hop,
		linkFree: map[link]sim.Time{},
	}
}

// nextHop returns the node after cur on the dimension-ordered (XY) route
// to dst: along the row to dst's column first, then along the column.
func (ms *mesh) nextHop(cur, dst int) int {
	switch c, dc := cur%ms.cols, dst%ms.cols; {
	case c < dc:
		return cur + 1
	case c > dc:
		return cur - 1
	case cur < dst:
		return cur + ms.cols
	default:
		return cur - ms.cols
	}
}

// deliver advances the message header across the route, reserving each
// link for the payload's transmission time, and returns the arrival time
// of the tail at dst. start is when the message leaves the source's
// network interface.
func (ms *mesh) deliver(start sim.Time, src, dst int, tx sim.Time) sim.Time {
	t := start
	for cur := src; cur != dst; {
		next := ms.nextHop(cur, dst)
		l := link{cur, next}
		if free := ms.linkFree[l]; free > t {
			t = free
		}
		t += ms.hop
		// Wormhole: the link is held until the tail passes.
		ms.linkFree[l] = t + tx
		cur = next
	}
	return t + tx
}
