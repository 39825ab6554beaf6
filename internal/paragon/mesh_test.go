package paragon

import (
	"fmt"
	"testing"

	"gosvm/internal/sim"
	"gosvm/internal/stats"
)

// route lists the XY path from src to dst, excluding src, as deliver
// walks it.
func (ms *mesh) route(src, dst int) []int {
	var path []int
	for cur := src; cur != dst; {
		cur = ms.nextHop(cur, dst)
		path = append(path, cur)
	}
	return path
}

func TestMeshRouting(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, 16, testCosts()) // 4x4 grid
	m.EnableMesh(0)
	ms := m.mesh
	if ms.rows != 4 || ms.cols != 4 {
		t.Fatalf("grid = %dx%d", ms.rows, ms.cols)
	}
	// Node 0 at (0,0), node 15 at (3,3): XY route goes east then south.
	path := ms.route(0, 15)
	want := []int{1, 2, 3, 7, 11, 15}
	if len(path) != len(want) {
		t.Fatalf("route = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("route = %v, want %v", path, want)
		}
	}
	if len(ms.route(5, 5)) != 0 {
		t.Fatal("self route not empty")
	}
	k.Shutdown()
}

func TestMeshHopLatency(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, 16, testCosts())
	m.EnableMesh(sim.Microsecond)
	// Disjoint routes so contention cannot blur the hop-count difference:
	// node 4 -> 5 is one hop; node 0 -> 15 is six.
	var near, far sim.Time
	m.Nodes[5].InstallCoproc(func(msg Msg) (sim.Time, func()) {
		return 0, func() { near = k.Now() }
	})
	m.Nodes[15].InstallCoproc(func(msg Msg) (sim.Time, func()) {
		return 0, func() { far = k.Now() }
	})
	k.Spawn("near", 0, func(p *sim.Proc) {
		m.Nodes[4].Send(5, Msg{Size: 4, Class: stats.ClassProtocol, Target: ToCoproc})
	})
	k.Spawn("far", 0, func(p *sim.Proc) {
		m.Nodes[0].Send(15, Msg{Size: 4, Class: stats.ClassProtocol, Target: ToCoproc})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	// 6 hops vs 1 hop at 1us/hop: 5us farther.
	if far-near != 5*sim.Microsecond {
		t.Fatalf("far-near = %v, want 5us", far-near)
	}
}

func TestMeshLinkContention(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, 4, testCosts()) // 2x2 grid
	m.EnableMesh(0)
	// Nodes 0 and 1 are horizontal neighbors; node 0 -> 1 twice: the
	// second large message must wait for the first's tail on link 0->1.
	var arrivals []sim.Time
	m.Nodes[1].InstallCoproc(func(msg Msg) (sim.Time, func()) {
		return 0, func() { arrivals = append(arrivals, k.Now()) }
	})
	k.Spawn("send", 0, func(p *sim.Proc) {
		m.Nodes[0].Send(1, Msg{Size: 1 << 20, Class: stats.ClassData, Target: ToCoproc})
		m.Nodes[0].Send(1, Msg{Size: 1 << 20, Class: stats.ClassData, Target: ToCoproc})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	bw := testCosts().BandwidthMBs * 1e6
	tx := sim.Time(float64(1<<20+testCosts().MsgHeader) / bw * float64(sim.Second))
	gap := arrivals[1] - arrivals[0]
	if gap < tx {
		t.Fatalf("second message not serialized behind the first: gap %v < tx %v", gap, tx)
	}
}

func TestMeshDisjointPathsParallel(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, 4, testCosts()) // 2x2: 0-1 top row, 2-3 bottom row
	m.EnableMesh(0)
	var arrivals []sim.Time
	handler := func(msg Msg) (sim.Time, func()) {
		return 0, func() { arrivals = append(arrivals, k.Now()) }
	}
	m.Nodes[1].InstallCoproc(handler)
	m.Nodes[3].InstallCoproc(handler)
	k.Spawn("s0", 0, func(p *sim.Proc) {
		m.Nodes[0].Send(1, Msg{Size: 1 << 20, Class: stats.ClassData, Target: ToCoproc})
	})
	k.Spawn("s2", 0, func(p *sim.Proc) {
		m.Nodes[2].Send(3, Msg{Size: 1 << 20, Class: stats.ClassData, Target: ToCoproc})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if len(arrivals) != 2 || arrivals[0] != arrivals[1] {
		t.Fatalf("disjoint paths interfered: %v", arrivals)
	}
}

// A prime node count degenerates to a 1xN grid: routes are the flat
// column distance and delivery still works end to end.
func TestMeshPrimeGrid(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, 7, testCosts())
	m.EnableMesh(0)
	ms := m.mesh
	if ms.rows != 1 || ms.cols != 7 {
		t.Fatalf("grid = %dx%d, want 1x7", ms.rows, ms.cols)
	}
	path := ms.route(0, 6)
	if len(path) != 6 || path[0] != 1 || path[5] != 6 {
		t.Fatalf("route 0->6 = %v", path)
	}
	if len(ms.route(6, 0)) != 6 || len(ms.route(3, 3)) != 0 {
		t.Fatalf("route lengths wrong: %d, %d", len(ms.route(6, 0)), len(ms.route(3, 3)))
	}
	var arrived sim.Time
	m.Nodes[6].InstallCoproc(func(msg Msg) (sim.Time, func()) {
		return 0, func() { arrived = k.Now() }
	})
	k.Spawn("send", 0, func(p *sim.Proc) {
		m.Nodes[0].Send(6, Msg{Kind: 1, Size: 4, Class: stats.ClassProtocol, Target: ToCoproc})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	c := testCosts()
	want := c.MsgLatency + 6*DefaultHopLatency + meshTx(c, 4)
	if arrived != want {
		t.Fatalf("1x7 end-to-end arrival = %v, want %v", arrived, want)
	}
}

// A single-node machine builds a 1x1 mesh and a self-send bypasses it
// (local delivery pays the plain wire time, no hops).
func TestMeshSelfSend(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, 4, testCosts())
	m.EnableMesh(0)
	var arrived sim.Time
	m.Nodes[2].InstallCoproc(func(msg Msg) (sim.Time, func()) {
		return 0, func() { arrived = k.Now() }
	})
	k.Spawn("send", 0, func(p *sim.Proc) {
		m.Nodes[2].Send(2, Msg{Kind: 1, Size: 4, Class: stats.ClassProtocol, Target: ToCoproc})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	c := testCosts()
	if want := c.Wire(4); arrived != want {
		t.Fatalf("self-send arrival = %v, want plain wire time %v", arrived, want)
	}
	if len(m.mesh.route(2, 2)) != 0 {
		t.Fatal("self route not empty")
	}
}

// XY routes are a pure function of the endpoints: repeated calls and
// fresh machines agree, which the deterministic fault replay relies on.
func TestMeshRouteDeterminism(t *testing.T) {
	mk := func() *mesh {
		k := sim.NewKernel()
		m := New(k, 16, testCosts())
		m.EnableMesh(0)
		k.Shutdown()
		return m.mesh
	}
	a, b := mk(), mk()
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			p1 := a.route(src, dst)
			p2 := a.route(src, dst)
			p3 := b.route(src, dst)
			if fmt.Sprint(p1) != fmt.Sprint(p2) || fmt.Sprint(p1) != fmt.Sprint(p3) {
				t.Fatalf("route %d->%d unstable: %v / %v / %v", src, dst, p1, p2, p3)
			}
			sr, sc := src/a.cols, src%a.cols
			dr, dc := dst/a.cols, dst%a.cols
			if hops := abs(sr-dr) + abs(sc-dc); len(p1) != hops {
				t.Fatalf("route %d->%d length %d != Manhattan distance %d", src, dst, len(p1), hops)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
