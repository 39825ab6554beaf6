package core

import (
	"fmt"

	"gosvm/internal/paragon"
)

// Topology selects the network model connecting the nodes.
type Topology string

const (
	// TopoCrossbar is the default latency/bandwidth crossbar: every pair
	// of nodes has an independent wire.
	TopoCrossbar Topology = "crossbar"
	// TopoMesh is the Paragon's 2-D wormhole mesh at link granularity
	// (XY routing, per-link occupancy, most-square grid).
	TopoMesh Topology = "mesh"
)

// ParseTopology validates a topology name.
func ParseTopology(s string) (Topology, error) {
	switch t := Topology(s); t {
	case TopoCrossbar, TopoMesh:
		return t, nil
	}
	return "", fmt.Errorf("core: unknown topology %q (have crossbar, mesh)", s)
}

// BarrierCrossover is the machine size above which the k-ary combining
// tree replaces the centralized barrier manager. At 64 nodes the
// centralized algorithm is what the paper measured; beyond it the
// manager's serialized O(n) interrupt service dominates barrier time.
const BarrierCrossover = 64

// barrierFanIn is the tree barrier's fan-in. Radix 8 keeps the tree at
// most 4 levels deep up to 4096 nodes while bounding any one node's
// service burst to 8 arrivals.
const barrierFanIn = 8

// Machine describes the simulated multicomputer independently of the
// protocol under test: how many nodes, how they are connected, and what
// the basic operations cost. The barrier algorithm follows from the size
// (centralized up to BarrierCrossover nodes, the tree above). The zero
// value means "the paper's machine": 8 crossbar nodes with Paragon costs.
type Machine struct {
	// Nodes is the machine size. Zero means 8 (the paper's prototype).
	Nodes int

	// Topology selects the network model. Empty means TopoCrossbar.
	Topology Topology

	// Costs is the basic-operation cost model. The zero value means
	// paragon.DefaultCosts (the paper's Table 3).
	Costs paragon.Costs

	// treeRadix, when non-zero, forces the tree barrier with this fan-in
	// at any size: the seam this package's tests use to compare the tree
	// against the centralized barrier on small machines.
	treeRadix int
}

// Defaults fills unset fields with the paper's machine.
func (m *Machine) Defaults() {
	if m.Nodes == 0 {
		m.Nodes = 8
	}
	if m.Topology == "" {
		m.Topology = TopoCrossbar
	}
	if m.Costs == (paragon.Costs{}) {
		m.Costs = paragon.DefaultCosts()
	}
}

// Validate checks a defaulted Machine for consistency.
func (m *Machine) Validate() error {
	if m.Nodes < 1 {
		return fmt.Errorf("core: machine needs at least 1 node, got %d", m.Nodes)
	}
	switch m.Topology {
	case TopoCrossbar, TopoMesh:
	default:
		return fmt.Errorf("core: unknown topology %q", m.Topology)
	}
	return nil
}

// TreeBarrier reports whether this machine uses the tree barrier: exactly
// when it has more than BarrierCrossover nodes, unless a test forces it.
func (m *Machine) TreeBarrier() bool { return m.treeRadix > 0 || m.Nodes > BarrierCrossover }

// barrierRadix returns the tree barrier's fan-in.
func (m *Machine) barrierRadix() int {
	if m.treeRadix > 0 {
		return m.treeRadix
	}
	return barrierFanIn
}
