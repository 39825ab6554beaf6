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

// pos returns the grid coordinates of node id.
func (ms *mesh) pos(id int) (r, c int) { return id / ms.cols, id % ms.cols }

func (ms *mesh) id(r, c int) int { return r*ms.cols + c }

// route returns the XY path from src to dst, excluding src.
func (ms *mesh) route(src, dst int) []int {
	var path []int
	r, c := ms.pos(src)
	dr, dc := ms.pos(dst)
	for c != dc {
		if c < dc {
			c++
		} else {
			c--
		}
		path = append(path, ms.id(r, c))
	}
	for r != dr {
		if r < dr {
			r++
		} else {
			r--
		}
		path = append(path, ms.id(r, c))
	}
	return path
}

// Hops returns the XY route length between two nodes.
func (ms *mesh) hops(src, dst int) int {
	r, c := ms.pos(src)
	dr, dc := ms.pos(dst)
	abs := func(x int) int {
		if x < 0 {
			return -x
		}
		return x
	}
	return abs(r-dr) + abs(c-dc)
}

// deliver advances the message header across the route, reserving each
// link for the payload's transmission time, and returns the arrival time
// of the tail at dst. start is when the message leaves the source's
// network interface.
func (ms *mesh) deliver(start sim.Time, src, dst int, tx sim.Time) sim.Time {
	t := start
	cur := src
	for _, next := range ms.route(src, dst) {
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
