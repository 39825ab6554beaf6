package paragon

import (
	"testing"

	"gosvm/internal/fault"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
)

// inertMessagingPlan returns a plan that activates the reliability
// transport (Messaging() is true) but never perturbs anything: its only
// entry is a target that matches no real message kind.
func inertMessagingPlan() fault.Plan {
	return fault.Plan{
		Seed:    1,
		Targets: []fault.Target{{Kind: 99, From: 0, To: 0, Nth: 1}},
	}
}

// meshTx is the wire occupancy of a payload on one mesh link, matching
// arrivalTime's computation.
func meshTx(c Costs, size int) sim.Time {
	bw := c.BandwidthMBs * 1e6
	return sim.Time(float64(size+c.MsgHeader) / bw * float64(sim.Second))
}

// measureReqReply runs one 4-byte request/4-byte reply RPC across the
// full mesh diagonal (node 0 -> 15 on a 4x4 grid) and returns the two
// one-way times.
func measureReqReply(t *testing.T, withTransport bool) (req, rep sim.Time) {
	t.Helper()
	k := sim.NewKernel()
	m := New(k, 16, testCosts())
	m.EnableMesh(0)
	if withTransport {
		m.EnableFaults(fault.NewInjector(inertMessagingPlan()))
	}
	var reqArrive, repArrive sim.Time
	m.Nodes[15].InstallCoproc(func(msg Msg) (sim.Time, func()) {
		return 0, func() {
			reqArrive = k.Now()
			m.Nodes[15].Respond(msg, Msg{Kind: 2, Size: 4, Class: stats.ClassProtocol})
		}
	})
	k.Spawn("app0", 0, func(p *sim.Proc) {
		m.Nodes[0].CPU.Bind(p)
		m.Nodes[0].Call(p, 15, Msg{Kind: 1, Size: 4, Class: stats.ClassProtocol, Target: ToCoproc})
		repArrive = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	return reqArrive, repArrive - reqArrive
}

// The headline regression test: a reply must cross the same modeled
// network as the request. On an idle mesh the 0->15 request and the
// 15->0 reply travel symmetric 6-hop routes with equal payloads, so
// their one-way times must be identical — before the fix the reply
// bypassed the mesh (flat crossbar wire time) and arrived too early.
func TestMeshReplySymmetry(t *testing.T) {
	for _, tc := range []struct {
		name      string
		transport bool
	}{
		{"plain", false},
		{"fault-transport", true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			req, rep := measureReqReply(t, tc.transport)
			if req != rep {
				t.Fatalf("one-way times asymmetric: request %v, reply %v", req, rep)
			}
			c := testCosts()
			want := c.MsgLatency + 6*DefaultHopLatency + meshTx(c, 4)
			if req != want {
				t.Fatalf("one-way time = %v, want %v (latency + 6 hops + tx)", req, want)
			}
		})
	}
}

// Retransmission waits are capped at rtoMax, so recovery latency after a
// long outage is bounded. A send into a 100 ms outage is probed at 2, 6,
// 14, 30 and 62 ms; the capped wait re-probes at 112 ms, within one cap of
// the restart, where uncapped backoff would have waited until 126 ms.
func TestRetryBackoffCappedAtRTOMax(t *testing.T) {
	const restart = 100 * sim.Millisecond
	const lastProbe = 62 * sim.Millisecond // the last one before the restart
	k := sim.NewKernel()
	m := New(k, 2, testCosts())
	m.EnableFaults(fault.NewInjector(fault.Plan{
		Seed:    1,
		Crashes: []fault.Crash{{Node: 1, At: 1, RestartAt: restart}},
	}))
	var delivered sim.Time
	m.Nodes[1].InstallCoproc(func(msg Msg) (sim.Time, func()) {
		return 0, func() { delivered = k.Now() }
	})
	k.Spawn("send", 0, func(p *sim.Proc) {
		m.Nodes[0].Send(1, Msg{Kind: 1, Size: 4, Class: stats.ClassProtocol, Target: ToCoproc})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if delivered == 0 {
		t.Fatal("message never delivered after restart")
	}
	if delivered < restart {
		t.Fatalf("delivered at %v, before the restart at %v", delivered, restart)
	}
	if limit := lastProbe + rtoMax + sim.Millisecond; delivered > limit {
		t.Fatalf("delivered at %v, want by the capped probe at %v", delivered, lastProbe+rtoMax)
	}
	if retries := m.Nodes[0].Stats.Counts.Retries; retries != 6 {
		t.Fatalf("retries = %d, want 6: five into the outage and the capped one after it", retries)
	}
}

// The dedup maps must not grow with run length: every id is retired once
// the sender is done with it and no copy is still in flight, so after a
// long faulty run with duplicates and lost acks they drain to empty.
func TestSeenMapsBounded(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, 2, testCosts())
	m.EnableFaults(fault.NewInjector(fault.Plan{
		Seed:      3,
		Drop:      0.2,
		Duplicate: 0.5,
	}))
	m.Nodes[1].InstallCoproc(func(msg Msg) (sim.Time, func()) { return 0, nil })
	const msgs = 500
	k.Spawn("send", 0, func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			m.Nodes[0].Send(1, Msg{Kind: 1, Size: 4, Class: stats.ClassProtocol, Target: ToCoproc})
			p.Sleep(20 * sim.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	fl := m.faults
	if fl.m.Nodes[1].Stats.Counts.DupsSuppressed == 0 {
		t.Fatal("no duplicates suppressed: the test exercised nothing")
	}
	for dst, seen := range fl.seen {
		if len(seen) != 0 {
			t.Fatalf("dedup map for node %d holds %d unretired ids after the run", dst, len(seen))
		}
	}
}
