package paragon

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"gosvm/internal/fault"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
)

func mustProfile(t *testing.T, name string) *fault.Injector {
	t.Helper()
	plan, err := fault.Profile(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fault.NewInjector(plan)
}

// A Call allocates only what the handler's effect closure captures: the
// request waits on the node's own reply port, and the request and its
// answer each travel in a flight recycled through the machine's free list.
// Through the reliable transport it costs the same: each leg's netMsg is
// recycled through the transport's free list, and its retransmissions,
// duplicates and acks allocate nothing.
func TestCallAllocs(t *testing.T) {
	const warm, calls = 500, 2000
	for _, tc := range []struct {
		name    string
		ceiling float64
		enable  func(t *testing.T, m *Machine)
	}{
		{"crossbar", 1, func(*testing.T, *Machine) {}},
		{"mesh", 1, func(_ *testing.T, m *Machine) { m.EnableMesh(0) }},
		{"lossy", 1, func(t *testing.T, m *Machine) { m.EnableFaults(mustProfile(t, fault.ProfileLossy)) }},
		{"hostile+mesh", 1, func(t *testing.T, m *Machine) {
			m.EnableMesh(0)
			m.EnableFaults(mustProfile(t, fault.ProfileHostile))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			m := New(k, 16, testCosts())
			tc.enable(t, m)
			srv := m.Nodes[15]
			srv.InstallCompute(func(req Msg) (sim.Time, func()) {
				return 0, func() { srv.Respond(req, Msg{Kind: 2, Size: 4, Class: stats.ClassProtocol}) }
			})
			var before, after runtime.MemStats
			k.Spawn("app0", 0, func(p *sim.Proc) {
				m.Nodes[0].CPU.Bind(p)
				for i := 0; i < warm+calls; i++ {
					if i == warm {
						runtime.ReadMemStats(&before)
					}
					m.Nodes[0].Call(p, 15, Msg{Kind: 1, Size: 4, Class: stats.ClassProtocol, Target: ToCompute})
				}
				runtime.ReadMemStats(&after)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			k.Shutdown()
			// A few one-off allocations (map and event-heap growth) may
			// still land in the measured calls; they stay far below 1 %.
			per := float64(after.Mallocs-before.Mallocs) / calls
			t.Logf("%.3f allocations per Call", per)
			if per > tc.ceiling+0.01 {
				t.Errorf("%.3f allocations per Call, want at most %.0f", per, tc.ceiling)
			}
		})
	}
}

// A handler that answers one request twice: the waiter gets the first
// answer to arrive, the later one is dropped, and the next Call from the
// same proc gets its own answer — on the local path, across the network,
// and through the reliable transport. Without faults the answers arrive in
// the order they were sent; the lossy network's jitter may swap them.
// Every Call waits on the node's one reply port, so this is also the test
// of its generation check: without it, the second answer to Call 1 lands
// as Call 2's (Call 2 gets 12).
func TestReplyAnsweredTwice(t *testing.T) {
	for _, tc := range []struct {
		name   string
		to     int
		faults bool
	}{
		{"local", 0, false},
		{"remote", 1, false},
		{"lossy", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			m := New(k, 2, testCosts())
			if tc.faults {
				m.EnableFaults(mustProfile(t, fault.ProfileLossy))
			}
			srv := m.Nodes[tc.to]
			srv.InstallCoproc(func(req Msg) (sim.Time, func()) {
				return 0, func() {
					seq := req.Body.(int)
					srv.Respond(req, Msg{Kind: 2, Size: 4, Class: stats.ClassProtocol, Body: 10*seq + 1})
					srv.Respond(req, Msg{Kind: 2, Size: 4, Class: stats.ClassProtocol, Body: 10*seq + 2})
				}
			})
			var got []any
			k.Spawn("app0", 0, func(p *sim.Proc) {
				for seq := 1; seq <= 3; seq++ {
					resp := m.Nodes[0].Call(p, tc.to, Msg{Kind: 1, Size: 4, Class: stats.ClassProtocol, Target: ToCoproc, Body: seq})
					got = append(got, resp.Body)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			k.Shutdown()
			if len(got) != 3 {
				t.Fatalf("answers = %v, want one per Call", got)
			}
			for i, v := range got {
				seq := i + 1
				if v, _ := v.(int); v/10 != seq || (!tc.faults && v != 10*seq+1) {
					t.Fatalf("Call %d got %v of answers %v, want its own first answer", seq, got[i], got)
				}
			}
		})
	}
}

// A request's Call waits from its send until its first answer lands: the
// server sees it waiting while it services the request, before and after
// it responds (the answer is still on the wire), and the request kept
// beyond that no longer is — on the local path, across the network, and
// through the hostile network, whose duplicates never reach the server a
// second time.
func TestWaitingUntilFirstAnswer(t *testing.T) {
	for _, tc := range []struct {
		name   string
		to     int
		faults bool
	}{
		{"local", 0, false},
		{"remote", 1, false},
		{"hostile", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			m := New(k, 2, testCosts())
			if tc.faults {
				m.EnableFaults(mustProfile(t, fault.ProfileHostile))
			}
			srv := m.Nodes[tc.to]
			var served []Msg
			srv.InstallCoproc(func(req Msg) (sim.Time, func()) {
				return 0, func() {
					if !req.Waiting() {
						t.Errorf("request %v serviced while its Call does not wait", req.Body)
					}
					srv.Respond(req, Msg{Kind: 2, Size: 4, Class: stats.ClassProtocol})
					if !req.Waiting() {
						t.Errorf("request %v: its Call stopped waiting before the answer arrived", req.Body)
					}
					served = append(served, req)
				}
			})
			const calls = 50
			k.Spawn("app0", 0, func(p *sim.Proc) {
				for seq := 0; seq < calls; seq++ {
					m.Nodes[0].Call(p, tc.to, Msg{Kind: 1, Size: 4, Class: stats.ClassProtocol, Target: ToCoproc, Body: seq})
					if last := served[len(served)-1]; last.Waiting() {
						t.Errorf("request %v: its Call returned but it still reads as waiting", last.Body)
					}
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			k.Shutdown()
			if len(served) != calls {
				t.Fatalf("server serviced %d requests for %d Calls, want each once", len(served), calls)
			}
		})
	}
}

// The deadlock report must name both the blocked proc and what it waits
// on: the fault watchdog composes its lost-message diagnosis with this
// text, so "who is stuck, on which reply" has to survive verbatim.
func TestDeadlockReportNamesProcAndChannel(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, 2, testCosts())
	m.Nodes[1].InstallCoproc(func(Msg) (sim.Time, func()) { return 0, nil }) // never answers
	k.Spawn("app0", 0, func(p *sim.Proc) {
		m.Nodes[0].Call(p, 1, Msg{Kind: 1, Size: 4, Class: stats.ClassProtocol, Target: ToCoproc})
	})
	err := k.Run()
	k.Shutdown()
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked = %v, want 1 proc", de.Blocked)
	}
	if msg := de.Error(); !strings.Contains(msg, "app0") || !strings.Contains(msg, "recv reply") {
		t.Fatalf("report does not name the blocked proc and its reply port: %v", msg)
	}
}

// One-way traffic draws its flights from the machine's one free list and
// puts each back as it fires, so the list ends holding no more flights than
// were in flight at once, each zeroed, however many messages were sent.
func TestOneWayFlightsBounded(t *testing.T) {
	const sends = 10000
	k := sim.NewKernel()
	m := New(k, 2, testCosts())
	got, peak := 0, 0
	m.Nodes[1].InstallCoproc(func(Msg) (sim.Time, func()) { got++; return 0, nil })
	k.Spawn("app0", 0, func(p *sim.Proc) {
		for i := 1; i <= sends; i++ {
			m.Nodes[0].Send(1, Msg{Kind: 1, Size: 4, Class: stats.ClassProtocol, Target: ToCoproc})
			peak = max(peak, i-got) // sent, not yet serviced: at least the flights out
			p.Sleep(sim.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if got != sends {
		t.Fatalf("receiver serviced %d messages, want %d", got, sends)
	}
	if n := m.flights.Len(); n == 0 || n > peak {
		t.Fatalf("machine holds %d flights after %d sends, at most %d in flight at once; want 1 to %d", n, sends, peak, peak)
	}
	for m.flights.Len() > 0 {
		if f, _ := m.flights.Take(); *f != (flight{}) {
			t.Fatalf("flight on the free list is not zeroed: %+v", *f)
		}
	}
}

// Only a node's application proc calls Call, so the node has one reply
// port: a second proc that calls while the first waits panics, naming the
// node.
func TestConcurrentCallPanics(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, 2, testCosts())
	srv := m.Nodes[1]
	srv.InstallCoproc(func(req Msg) (sim.Time, func()) {
		return 0, func() { srv.Respond(req, Msg{Kind: 2, Size: 4, Class: stats.ClassProtocol}) }
	})
	req := Msg{Kind: 1, Size: 4, Class: stats.ClassProtocol, Target: ToCoproc}
	k.Spawn("app0", 0, func(p *sim.Proc) { m.Nodes[0].Call(p, 1, req) })
	var got any
	k.Spawn("intruder", 1, func(p *sim.Proc) {
		defer func() { got = recover() }()
		m.Nodes[0].Call(p, 1, req)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	msg, _ := got.(string)
	if !strings.Contains(msg, "node 0") {
		t.Fatalf("second concurrent Call recovered %v, want a panic naming node 0", got)
	}
}
