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

// Every netMsg goes back on the transport's free list once no event can
// name it: after a burst of sends through drops, duplicates, delayed
// copies and lost acks, through a destination that is down while copies
// arrive, and through one down for longer than the retransmission chain
// (every message given up after maxAttempts), the free list seeded with
// one netMsg per send holds every one of them again, zeroed, and the run
// allocated none.
func TestNetMsgsRecycled(t *testing.T) {
	const msgs = 500
	for _, tc := range []struct {
		name      string
		plan      fault.Plan
		delivered int // messages the receiver services
		// exercised reports whether the run hit what the case names.
		exercised func(m *Machine) bool
	}{
		{"drop+dup+lost-ack", fault.Plan{Seed: 3, Drop: 0.2, Duplicate: 0.5, Delay: 0.3, MaxDelay: 5 * sim.Millisecond}, msgs,
			func(m *Machine) bool {
				c := m.Nodes[1].Stats.Counts
				return c.DupsSuppressed > 0 && c.MsgsDropped > 0 && m.Nodes[0].Stats.Counts.Retries > 0
			}},
		{"down-destination", fault.Plan{Seed: 3, Crashes: []fault.Crash{{Node: 1, At: sim.Millisecond, RestartAt: 30 * sim.Millisecond}}}, msgs,
			func(m *Machine) bool { return m.Nodes[0].Stats.Counts.MsgsDropped > 0 }},
		{"given-up", fault.Plan{Seed: 3, Duplicate: 0.5, Crashes: []fault.Crash{{Node: 1, At: 1, RestartAt: 10 * sim.Second}}}, 0,
			func(m *Machine) bool { return m.Nodes[0].Stats.Counts.Retries > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			m := New(k, 2, testCosts())
			m.EnableFaults(fault.NewInjector(tc.plan))
			fl := m.faults
			for i := 0; i < msgs; i++ {
				fl.free.Put(new(netMsg))
			}
			delivered := 0
			m.Nodes[1].InstallCoproc(func(Msg) (sim.Time, func()) { delivered++; return 0, nil })
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
			if delivered != tc.delivered || !tc.exercised(m) {
				t.Fatalf("receiver serviced %d of %d messages (want %d), or the run missed what the case names",
					delivered, msgs, tc.delivered)
			}
			if n := fl.free.Len(); n != msgs {
				t.Fatalf("free list holds %d netMsgs after the run, want all %d seeded (and none allocated)", n, msgs)
			}
			for fl.free.Len() > 0 {
				if nm, _ := fl.free.Take(); *nm != (netMsg{}) {
					t.Fatalf("netMsg on the free list is not zeroed: %+v", *nm)
				}
			}
		})
	}
}
