package paragon

import (
	"testing"

	"gosvm/internal/sim"
	"gosvm/internal/stats"
)

func testCosts() Costs {
	c := DefaultCosts()
	return c
}

func TestWireTiming(t *testing.T) {
	c := DefaultCosts()
	// A 4-byte message: latency dominates.
	small := c.Wire(4)
	if small < c.MsgLatency || small > c.MsgLatency+sim.Microsecond {
		t.Fatalf("small wire = %v", small)
	}
	// An 8KB page: latency + ~92us transfer.
	page := c.Wire(8192) - c.MsgLatency
	if page < 90*sim.Microsecond || page > 95*sim.Microsecond {
		t.Fatalf("8KB transfer = %v, want ~92us", page)
	}
}

func TestDerivedTable3Latencies(t *testing.T) {
	// Cross-checks from the paper's §4.3, minus the page-fault cost which
	// is charged by the VM layer: an HLRC page miss is 50+690+92+50 =
	// 882us of machine time (1172 with the 290us fault).
	c := DefaultCosts()
	rt := c.Wire(4) + c.ReceiveInterrupt + c.Wire(8192)
	lo := 880 * sim.Microsecond
	hi := 886 * sim.Microsecond
	if rt < lo || rt > hi {
		t.Fatalf("HLRC machine round trip = %v, want ~882us", rt)
	}
	// Overlapped: no interrupt: 50+92+50 = 192us.
	ov := c.Wire(4) + c.Wire(8192)
	if ov < 190*sim.Microsecond || ov > 196*sim.Microsecond {
		t.Fatalf("OHLRC machine round trip = %v, want ~192us", ov)
	}
}

// reqRespMachine wires a 2-node machine where node 1 answers kind-1
// requests after `work` service time.
func reqRespMachine(t *testing.T, work sim.Time, target Target) (*sim.Kernel, *Machine) {
	t.Helper()
	k := sim.NewKernel()
	m := New(k, 2, testCosts())
	h := func(msg Msg) (sim.Time, func()) {
		return work, func() {
			m.Nodes[1].Respond(msg, Msg{Kind: 2, Size: 4, Class: stats.ClassProtocol})
		}
	}
	m.Nodes[1].InstallCompute(h)
	m.Nodes[1].InstallCoproc(h)
	_ = target
	return k, m
}

func TestCallInterruptPath(t *testing.T) {
	k, m := reqRespMachine(t, 10*sim.Microsecond, ToCompute)
	var elapsed sim.Time
	k.Spawn("app0", 0, func(p *sim.Proc) {
		m.Nodes[0].CPU.Bind(p)
		t0 := p.Now()
		m.Nodes[0].Call(p, 1, Msg{Kind: 1, Size: 4, Class: stats.ClassProtocol, Target: ToCompute})
		elapsed = p.Now() - t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	c := testCosts()
	want := c.Wire(4) + c.ReceiveInterrupt + 10*sim.Microsecond + c.Wire(4)
	if elapsed != want {
		t.Fatalf("interrupt-path RPC = %v, want %v", elapsed, want)
	}
}

func TestCallCoprocPathSkipsInterrupt(t *testing.T) {
	k, m := reqRespMachine(t, 10*sim.Microsecond, ToCoproc)
	var elapsed sim.Time
	k.Spawn("app0", 0, func(p *sim.Proc) {
		m.Nodes[0].CPU.Bind(p)
		t0 := p.Now()
		m.Nodes[0].Call(p, 1, Msg{Kind: 1, Size: 4, Class: stats.ClassProtocol, Target: ToCoproc})
		elapsed = p.Now() - t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	c := testCosts()
	want := c.Wire(4) + 10*sim.Microsecond + c.Wire(4)
	if elapsed != want {
		t.Fatalf("coproc-path RPC = %v, want %v", elapsed, want)
	}
}

func TestInterruptStealsFromComputation(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, 2, testCosts())
	m.Nodes[1].InstallCompute(func(msg Msg) (sim.Time, func()) {
		return 0, nil
	})
	var elapsed sim.Time
	k.Spawn("app1", 0, func(p *sim.Proc) {
		m.Nodes[1].CPU.Bind(p)
		m.Nodes[1].CPU.Use(p, 10*sim.Millisecond, stats.CatCompute)
		elapsed = p.Now()
	})
	k.Spawn("app0", 0, func(p *sim.Proc) {
		// Fire a request that lands mid-computation on node 1.
		m.Nodes[0].Send(1, Msg{Kind: 1, Size: 4, Class: stats.ClassProtocol, Target: ToCompute})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	c := testCosts()
	want := 10*sim.Millisecond + c.ReceiveInterrupt
	if elapsed != want {
		t.Fatalf("computation with one interrupt = %v, want %v", elapsed, want)
	}
	st := m.Nodes[1].Stats
	if st.Time[stats.CatCompute] != 10*sim.Millisecond {
		t.Fatalf("compute time = %v", st.Time[stats.CatCompute])
	}
	if st.Time[stats.CatProtocol] != c.ReceiveInterrupt {
		t.Fatalf("protocol (stolen) time = %v, want %v", st.Time[stats.CatProtocol], c.ReceiveInterrupt)
	}
}

func TestInterruptDuringWaitIsFree(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, 2, testCosts())
	m.Nodes[1].InstallCompute(func(msg Msg) (sim.Time, func()) { return 0, nil })
	var elapsed sim.Time
	app1 := k.Spawn("app1", 0, func(p *sim.Proc) {
		m.Nodes[1].CPU.Bind(p)
		p.Park("wake") // blocked, not computing
		m.Nodes[1].CPU.Use(p, sim.Millisecond, stats.CatCompute)
		elapsed = p.Now()
	})
	k.Spawn("app0", 0, func(p *sim.Proc) {
		m.Nodes[0].Send(1, Msg{Kind: 1, Size: 4, Class: stats.ClassProtocol, Target: ToCompute})
		p.Sleep(5 * sim.Millisecond) // interrupt fully serviced by now
		app1.Unpark()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	want := 5*sim.Millisecond + sim.Millisecond
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v (interrupt absorbed by wait)", elapsed, want)
	}
}

func TestDispatcherSerializesHotSpot(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, 3, testCosts())
	work := 100 * sim.Microsecond
	m.Nodes[2].InstallCoproc(func(msg Msg) (sim.Time, func()) {
		return work, func() {
			m.Nodes[2].Respond(msg, Msg{Kind: 2, Size: 4, Class: stats.ClassProtocol})
		}
	})
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("req", 0, func(p *sim.Proc) {
			m.Nodes[i].Call(p, 2, Msg{Kind: 1, Size: 4, Class: stats.ClassProtocol, Target: ToCoproc})
			done[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	c := testCosts()
	first := c.Wire(4) + work + c.Wire(4)
	second := c.Wire(4) + 2*work + c.Wire(4) // queued behind the first
	if done[0] != first && done[1] != first {
		t.Fatalf("no requester finished at %v: %v", first, done)
	}
	if done[0] != second && done[1] != second {
		t.Fatalf("no requester was serialized to %v: %v", second, done)
	}
}

func TestTrafficAccounting(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, 2, testCosts())
	m.Nodes[1].InstallCoproc(func(msg Msg) (sim.Time, func()) {
		return 0, func() {
			m.Nodes[1].Respond(msg, Msg{Kind: 2, Size: 8192, Class: stats.ClassData})
		}
	})
	k.Spawn("app", 0, func(p *sim.Proc) {
		m.Nodes[0].Call(p, 1, Msg{Kind: 1, Size: 16, Class: stats.ClassProtocol, Target: ToCoproc})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	c := testCosts()
	n0, n1 := m.Nodes[0].Stats, m.Nodes[1].Stats
	if n0.MsgsOut[stats.ClassProtocol] != 1 || n0.Bytes[stats.ClassProtocol] != int64(16+c.MsgHeader) {
		t.Fatalf("node0 traffic: %+v", n0)
	}
	if n1.MsgsOut[stats.ClassData] != 1 || n1.Bytes[stats.ClassData] != int64(8192+c.MsgHeader) {
		t.Fatalf("node1 traffic: %+v", n1)
	}
}

func TestRespondWithoutReplyPanics(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, 1, testCosts())
	defer func() {
		if recover() == nil {
			t.Fatal("Respond on reply-less message did not panic")
		}
	}()
	m.Nodes[0].Respond(Msg{}, Msg{})
}

func TestFIFOPerPair(t *testing.T) {
	// A large message followed immediately by a small one must arrive in
	// send order despite the small one's shorter wire time.
	k := sim.NewKernel()
	m := New(k, 2, testCosts())
	var order []int
	m.Nodes[1].InstallCoproc(func(msg Msg) (sim.Time, func()) {
		return 0, func() { order = append(order, msg.Kind) }
	})
	k.Spawn("send", 0, func(p *sim.Proc) {
		m.Nodes[0].Send(1, Msg{Kind: 1, Size: 1 << 20, Class: stats.ClassData, Target: ToCoproc})
		m.Nodes[0].Send(1, Msg{Kind: 2, Size: 4, Class: stats.ClassProtocol, Target: ToCoproc})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order = %v, want [1 2]", order)
	}
}

func TestDistinctPairsDoNotSerialize(t *testing.T) {
	// FIFO is per (src,dst) pair: messages from different sources are
	// not delayed by each other's wire times.
	k := sim.NewKernel()
	m := New(k, 3, testCosts())
	var arrivals []sim.Time
	m.Nodes[2].InstallCoproc(func(msg Msg) (sim.Time, func()) {
		arrivals = append(arrivals, k.Now())
		return 0, nil
	})
	k.Spawn("s0", 0, func(p *sim.Proc) {
		m.Nodes[0].Send(2, Msg{Kind: 1, Size: 1 << 20, Class: stats.ClassData, Target: ToCoproc})
	})
	k.Spawn("s1", 0, func(p *sim.Proc) {
		m.Nodes[1].Send(2, Msg{Kind: 2, Size: 4, Class: stats.ClassProtocol, Target: ToCoproc})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	c := testCosts()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != c.Wire(4) {
		t.Fatalf("small message from a different source was delayed: %v", arrivals[0])
	}
}
