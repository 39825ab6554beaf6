package paragon

import (
	"runtime"
	"testing"

	"gosvm/internal/fault"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
)

// bothTargets runs a dispatcher test once per processor; overhead is the
// fixed cost that processor adds to every service.
func bothTargets(t *testing.T, f func(t *testing.T, target Target, overhead sim.Time)) {
	t.Run("compute", func(t *testing.T) { f(t, ToCompute, testCosts().ReceiveInterrupt) })
	t.Run("coproc", func(t *testing.T) { f(t, ToCoproc, 0) })
}

// install sets h as the handler of n's dispatcher for target.
func install(n *Node, target Target, h Handler) {
	if target == ToCompute {
		n.InstallCompute(h)
	} else {
		n.InstallCoproc(h)
	}
}

// Messages delivered at distinct times, at the same instant, and while an
// earlier one is still in service are all served in arrival order, one at
// a time: each effect fires one service time after the later of its
// arrival and the previous effect.
func TestDispatcherFIFO(t *testing.T) {
	bothTargets(t, func(t *testing.T, target Target, overhead sim.Time) {
		const us = sim.Microsecond
		msgs := []struct{ at, work sim.Time }{
			{0, 30 * us},
			{10 * us, 5 * us}, // queues behind the first
			{10 * us, 0},      // same instant: creation order
			{20 * us, 40 * us},
			{900 * us, 1 * us}, // arrives long after the queue drained
			{900 * us, 0},
		}
		k := sim.NewKernel()
		m := New(k, 2, testCosts())
		n := m.Nodes[1]
		var order []int
		var fired []sim.Time
		install(n, target, func(msg Msg) (sim.Time, func()) {
			return msgs[msg.Kind].work, func() {
				order = append(order, msg.Kind)
				fired = append(fired, k.Now())
			}
		})
		for i, mg := range msgs {
			i := i
			k.At(mg.at, func() { n.receive(nil, Msg{Kind: i, Target: target}) })
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		free := sim.Time(0)
		for i, mg := range msgs {
			if i >= len(order) || order[i] != i {
				t.Fatalf("service order = %v, want 0..%d in order", order, len(msgs)-1)
			}
			start := mg.at
			if free > start {
				start = free
			}
			free = start + overhead + mg.work
			if fired[i] != free {
				t.Errorf("message %d: effect at %v, want %v", i, fired[i], free)
			}
		}
		if n.Stats.MsgsIn != int64(len(msgs)) {
			t.Errorf("MsgsIn = %d, want %d", n.Stats.MsgsIn, len(msgs))
		}
	})
}

// Two requests sent back to back from one node arrive one after the other
// while the first is in service: the second effect fires at t0 + s1 + s2.
func TestDispatcherBackToBackSerialize(t *testing.T) {
	bothTargets(t, func(t *testing.T, target Target, overhead sim.Time) {
		k := sim.NewKernel()
		m := New(k, 2, testCosts())
		works := []sim.Time{70 * sim.Microsecond, 20 * sim.Microsecond}
		var fired []sim.Time
		install(m.Nodes[1], target, func(msg Msg) (sim.Time, func()) {
			return works[msg.Kind], func() { fired = append(fired, k.Now()) }
		})
		k.Spawn("send", 0, func(p *sim.Proc) {
			m.Nodes[0].Send(1, Msg{Kind: 0, Size: 4, Class: stats.ClassProtocol, Target: target})
			m.Nodes[0].Send(1, Msg{Kind: 1, Size: 4, Class: stats.ClassProtocol, Target: target})
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
		c := testCosts()
		t0 := c.Wire(4)
		s1, s2 := overhead+works[0], overhead+works[1]
		if len(fired) != 2 || fired[0] != t0+s1 || fired[1] != t0+s1+s2 {
			t.Fatalf("effects at %v, want [%v %v]", fired, t0+s1, t0+s1+s2)
		}
		if got := m.Nodes[1].Stats.MsgsIn; got != 2 {
			t.Fatalf("MsgsIn = %d, want 2", got)
		}
	})
}

// Only interrupt service on a computing processor costs the application
// anything: it extends the CPU.Use in progress by exactly the service
// time. A blocked application overlaps the service with its wait, and the
// co-processor never steals.
func TestDispatcherSteal(t *testing.T) {
	const work = 25 * sim.Microsecond
	const use = 10 * sim.Millisecond
	c := testCosts()
	cases := []struct {
		name      string
		target    Target
		computing bool // the app is inside CPU.Use when the request lands
		stolen    sim.Time
	}{
		{"interrupt during Use", ToCompute, true, c.ReceiveInterrupt + work},
		{"interrupt during wait", ToCompute, false, 0},
		{"coproc during Use", ToCoproc, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			m := New(k, 1, c)
			n := m.Nodes[0]
			install(n, tc.target, func(Msg) (sim.Time, func()) { return work, nil })
			var end sim.Time
			k.Spawn("app", 0, func(p *sim.Proc) {
				n.CPU.Bind(p)
				if !tc.computing {
					p.Sleep(use) // blocked, not computing, while the request is served
				}
				n.CPU.Use(p, use, stats.CatCompute)
				end = p.Now()
			})
			k.At(sim.Millisecond, func() { n.receive(nil, Msg{Target: tc.target}) })
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			k.Shutdown()
			want := use + tc.stolen
			if !tc.computing {
				want += use
			}
			if end != want {
				t.Errorf("app finished at %v, want %v", end, want)
			}
			if got := n.Stats.Time[stats.CatProtocol]; got != tc.stolen {
				t.Errorf("stolen time accounted = %v, want %v", got, tc.stolen)
			}
		})
	}
}

// A crash in the middle of a service freezes the processor: the service
// resumes after the restart, its effect lands only then, and the messages
// that queued up meanwhile are served in order behind it.
func TestDispatcherCrashStretchesService(t *testing.T) {
	bothTargets(t, func(t *testing.T, target Target, overhead sim.Time) {
		const us = sim.Microsecond
		const work = 10 * us
		crashAt := 3*overhead + 100*us
		restart := crashAt + sim.Millisecond
		k := sim.NewKernel()
		m := New(k, 1, testCosts())
		m.EnableFaults(fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Node: 0, At: crashAt, RestartAt: restart}}}))
		n := m.Nodes[0]
		d := &n.coproc
		if target == ToCompute {
			d = &n.compute
		}
		var effects []int
		var fired []sim.Time
		install(n, target, func(msg Msg) (sim.Time, func()) {
			return work, func() {
				effects = append(effects, msg.Kind)
				fired = append(fired, k.Now())
			}
		})
		arrivals := []sim.Time{0, crashAt - 5*us, crashAt + 50*us, crashAt + 60*us}
		for i, at := range arrivals {
			i := i
			k.At(at, func() { n.receive(nil, Msg{Kind: i, Target: target}) })
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		s := overhead + work
		// Message 0 is served before the crash; message 1 starts 5 µs
		// before it and finishes the rest of its service after the
		// restart; 2 and 3 follow back to back.
		e1 := arrivals[1] + s + (restart - crashAt)
		want := []sim.Time{s, e1, e1 + s, e1 + 2*s}
		if len(effects) != 4 || effects[0] != 0 || effects[1] != 1 || effects[2] != 2 || effects[3] != 3 {
			t.Fatalf("effects applied = %v, want [0 1 2 3]", effects)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Errorf("message %d: effect at %v, want %v", i, fired[i], want[i])
			}
		}
		if fired[1] <= restart {
			t.Errorf("message 1's effect at %v, not after the restart at %v", fired[1], restart)
		}
		if d.queue.Len() != 0 || d.busy {
			t.Errorf("after the run: %d queued, busy=%v; want an idle, empty dispatcher", d.queue.Len(), d.busy)
		}
	})
}

// Building a machine starts nothing: dispatchers are event callbacks, so
// there is no goroutine per processor.
func TestNewSpawnsNoProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	New(sim.NewKernel(), 64, testCosts())
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("New(64 nodes) started %d goroutines, want none", got-before)
	}
}

// A dispatcher round trip — push onto an idle processor, serve, complete,
// go idle — allocates nothing in the steady state: the two events reuse
// closures built once per dispatcher and the drained queue keeps its
// backing array.
func TestDispatcherRoundTripAllocFree(t *testing.T) {
	const iters = 10000
	allocs := testing.AllocsPerRun(1, func() {
		k := sim.NewKernel()
		m := New(k, 1, testCosts())
		n := m.Nodes[0]
		served := 0
		effect := func() { served++ }
		n.InstallCoproc(func(Msg) (sim.Time, func()) { return sim.Microsecond, effect })
		k.Spawn("app", 0, func(p *sim.Proc) {
			for i := 0; i < iters; i++ {
				n.InjectCoproc(Msg{Kind: 1})
				p.Sleep(2 * sim.Microsecond) // the co-processor is idle again
			}
		})
		if err := k.Run(); err != nil {
			t.Error(err)
		}
		k.Shutdown()
		if served != iters {
			t.Errorf("served %d of %d", served, iters)
		}
	})
	// Machine and kernel construction plus event-heap growth; far below
	// one allocation per round trip.
	if allocs > 100 {
		t.Errorf("%d dispatcher round trips cost %.0f allocs, want < 100 total (0 per op)", iters, allocs)
	}
}
