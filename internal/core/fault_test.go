package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"gosvm/internal/fault"
	"gosvm/internal/mem"
	"gosvm/internal/paragon"
	"gosvm/internal/sim"
)

func faultOpts(t *testing.T, proto Protocol, p int, profile string, seed int64) Options {
	t.Helper()
	plan, err := fault.Profile(profile, seed)
	if err != nil {
		t.Fatal(err)
	}
	o := testOpts(proto, p)
	o.Fault = plan
	return o
}

// TestRunRejectsMeaninglessPlans: a plan value that means nothing on any
// machine is an error from Run, not a run as if it were absent. A slowdown
// or target naming a node the machine lacks stays valid (the presets name
// fixed nodes and run on 2-node machines).
func TestRunRejectsMeaninglessPlans(t *testing.T) {
	ms := sim.Millisecond
	slow := func(s fault.Slowdown) fault.Plan { return fault.Plan{Slowdowns: []fault.Slowdown{s}} }
	target := func(tg fault.Target) fault.Plan { return fault.Plan{Targets: []fault.Target{tg}} }
	cases := []struct {
		name string
		plan fault.Plan
		want string // in the error; "" means the plan is valid
	}{
		{"crash of a missing node", fault.Plan{Crashes: []fault.Crash{{Node: 4, At: ms, RestartAt: 2 * ms}}}, "crash of node 4"},
		{"crash that never restarts", fault.Plan{Crashes: []fault.Crash{{Node: 1, At: ms}}}, "invalid schedule"},
		{"slowdown factor 0", slow(fault.Slowdown{Node: 1, To: ms}), "slowdown of node 1"},
		{"slowdown factor below 1", slow(fault.Slowdown{Node: 1, To: ms, Factor: 0.5}), "slowdown of node 1"},
		{"slowdown factor NaN", slow(fault.Slowdown{Node: 1, To: ms, Factor: math.NaN()}), "slowdown of node 1"},
		{"slowdown factor +Inf", slow(fault.Slowdown{Node: 1, To: ms, Factor: math.Inf(1)}), "slowdown of node 1"},
		{"slowdown backwards window", slow(fault.Slowdown{Node: 1, From: 2 * ms, To: ms, Factor: 2}), "slowdown of node 1"},
		{"slowdown empty window", slow(fault.Slowdown{Node: 1, From: ms, To: ms, Factor: 2}), "slowdown of node 1"},
		{"slowdown negative node", slow(fault.Slowdown{Node: -1, To: ms, Factor: 2}), "slowdown of node -1"},
		{"target From below AnyNode", target(fault.Target{From: -2, To: 0}), "fault target -2->0"},
		{"target To below AnyNode", target(fault.Target{From: 0, To: -3}), "fault target 0->-3"},
		{"target negative Nth", target(fault.Target{From: 0, To: 1, Nth: -1}), "(Nth -1)"},
		{"drop below 0", fault.Plan{Drop: -0.5}, "Drop probability"},
		{"duplicate above 1", fault.Plan{Duplicate: 1.5}, "Duplicate probability"},
		{"delay NaN", fault.Plan{Delay: math.NaN()}, "Delay probability"},
		{"reorder +Inf", fault.Plan{Reorder: math.Inf(1)}, "Reorder probability"},
		{"negative MaxDelay", fault.Plan{Delay: 0.5, MaxDelay: -ms}, "MaxDelay"},
		{"slowdown of a node past the machine", slow(fault.Slowdown{Node: 9, To: ms, Factor: 2}), ""},
		{"target of nodes past the machine", target(fault.Target{From: 9, To: fault.AnyNode, Nth: 1}), ""},
		{"probabilities at the bounds", fault.Plan{Seed: 1, Duplicate: 1, Delay: 0}, ""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			o := testOpts(ProtoHLRC, 4)
			o.Fault = tc.plan
			_, err := Run(o, counterApp(1), false)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid plan rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// Every litmus app must still compute the right answer when the network
// drops, duplicates, delays, and reorders messages: the reliability
// transport has to make the faulty network indistinguishable from a slow
// reliable one. At 32 and 96 nodes the counter's same-instant lock burst
// runs down the longest forwarding chains, with a radix-8 barrier tree at
// 96.
func TestProtocolsSurviveFaultProfiles(t *testing.T) {
	for _, profile := range []string{fault.ProfileLossy, fault.ProfileHostile} {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			forEachProto(t, []int{2, 4, 32, 96}, func(t *testing.T, proto Protocol, p int) {
				const n = 6
				res := runOrFail(t, faultOpts(t, proto, p, profile, 7), counterApp(n))
				if want := float64(p * n); res.Data[0] != want {
					t.Fatalf("counter = %v, want %v", res.Data[0], want)
				}

				res = runOrFail(t, faultOpts(t, proto, p, profile, 11), multiWriterApp())
				for i, v := range res.Data {
					if want := float64(100*(i%p) + i); v != want {
						t.Fatalf("multiwriter word %d = %v, want %v", i, v, want)
					}
				}

				const rounds = 4
				res = runOrFail(t, faultOpts(t, proto, p, profile, 13), migratoryApp(rounds))
				for i, v := range res.Data {
					if want := float64(rounds * p); v != want {
						t.Fatalf("migratory word %d = %v, want %v", i, v, want)
					}
				}
			})
		})
	}
}

// A faulty run is still a deterministic function of (program, plan,
// seed): the injector's PRNG is the only randomness and it is consulted
// in kernel order.
func TestFaultRunDeterminism(t *testing.T) {
	for _, proto := range Protocols {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			r1 := runOrFail(t, faultOpts(t, proto, 4, fault.ProfileHostile, 3), counterApp(6))
			r2 := runOrFail(t, faultOpts(t, proto, 4, fault.ProfileHostile, 3), counterApp(6))
			if r1.Stats.Elapsed != r2.Stats.Elapsed {
				t.Fatalf("elapsed differs: %v vs %v", r1.Stats.Elapsed, r2.Stats.Elapsed)
			}
			for i := range r1.Stats.Nodes {
				a, b := r1.Stats.Nodes[i], r2.Stats.Nodes[i]
				if *a != *b {
					t.Fatalf("node %d stats differ:\n%+v\n%+v", i, a, b)
				}
			}
		})
	}
}

// A different seed must change the fault schedule (otherwise the seed
// isn't plumbed through).
func TestFaultSeedMatters(t *testing.T) {
	r1 := runOrFail(t, faultOpts(t, ProtoHLRC, 4, fault.ProfileHostile, 1), counterApp(6))
	r2 := runOrFail(t, faultOpts(t, ProtoHLRC, 4, fault.ProfileHostile, 2), counterApp(6))
	if r1.Stats.Elapsed == r2.Stats.Elapsed {
		t.Fatalf("different seeds produced identical elapsed time %v", r1.Stats.Elapsed)
	}
}

// The reliability counters must surface in stats: under a lossy plan
// something is dropped, retried, and deduped somewhere across the run.
func TestFaultCountersVisible(t *testing.T) {
	res := runOrFail(t, faultOpts(t, ProtoHLRC, 4, fault.ProfileHostile, 5), migratoryApp(6))
	var dropped, retries, dups int64
	var recovery sim.Time
	for _, nd := range res.Stats.Nodes {
		dropped += nd.Counts.MsgsDropped
		retries += nd.Counts.Retries
		dups += nd.Counts.DupsSuppressed
		recovery += nd.Recovery
	}
	if dropped == 0 || retries == 0 || dups == 0 {
		t.Fatalf("fault counters flat: dropped=%d retries=%d dups=%d", dropped, retries, dups)
	}
	if retries > 0 && recovery == 0 {
		t.Fatalf("retries=%d but recovery time is zero", retries)
	}
	avg := res.Stats.AvgNode()
	total := avg.Counts.Retries + avg.Counts.DupsSuppressed + avg.Counts.MsgsDropped
	if total == 0 && dropped+retries+dups >= int64(len(res.Stats.Nodes)) {
		t.Fatalf("AvgNode dropped the fault counters: %+v", avg.Counts)
	}
}

// A reply edge severed for every copy: the transport gives up after ten
// attempts, the run must hang, the kernel must convert the hang into a
// DeadlockError naming the blocked proc, and the watchdog must name the
// lost message.
func TestSeveredReplyGiveUpDiagnosed(t *testing.T) {
	var addr mem.Addr
	app := &testApp{
		name:  "dropreply",
		setup: func(s *Setup) { addr = s.Alloc(64) },
		init: func(w *Init) {
			for i := 0; i < 64; i++ {
				w.Store(addr+mem.Addr(i), 0)
			}
			w.SetHome(addr, 64, 1)
		},
		worker: func(c *Ctx, id int) {
			if id == 1 {
				c.Store(addr, 7)
			}
			c.Barrier(0)
			if id == 0 {
				c.Load(addr) // page fetch from home 1; the reply is eaten
			}
			c.Barrier(1)
		},
		gather: func(c *Ctx) []float64 { return []float64{c.Load(addr)} },
	}
	opts := testOpts(ProtoHLRC, 2)
	opts.Fault = fault.Plan{
		Seed: 1,
		Targets: []fault.Target{{
			Kind:  kFetchPage,
			From:  fault.AnyNode,
			To:    0,
			Reply: true,
			Nth:   0,
		}},
	}
	_, err := Run(opts, app, false)
	if err == nil {
		t.Fatal("run with a swallowed reply succeeded")
	}
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error is not a DeadlockError: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "app0") {
		t.Fatalf("report does not name the blocked proc app0: %v", msg)
	}
	if !strings.Contains(msg, "fetch-page reply") || !strings.Contains(msg, "n1->n0") ||
		!strings.Contains(msg, "after 10 attempts") {
		t.Fatalf("watchdog did not name the lost message: %v", msg)
	}
}

// One dropped copy of the same reply must recover invisibly.
func TestDroppedReplyWithRetryRecovers(t *testing.T) {
	var addr mem.Addr
	app := &testApp{
		name:  "dropreply",
		setup: func(s *Setup) { addr = s.Alloc(64) },
		init: func(w *Init) {
			for i := 0; i < 64; i++ {
				w.Store(addr+mem.Addr(i), 0)
			}
			w.SetHome(addr, 64, 1)
		},
		worker: func(c *Ctx, id int) {
			if id == 1 {
				c.Store(addr, 7)
			}
			c.Barrier(0)
			if id == 0 {
				if got := c.Load(addr); got != 7 {
					panic("stale read after recovery")
				}
			}
			c.Barrier(1)
		},
		gather: func(c *Ctx) []float64 { return []float64{c.Load(addr)} },
	}
	opts := testOpts(ProtoHLRC, 2)
	opts.Fault = fault.Plan{
		Seed: 1,
		Targets: []fault.Target{{
			Kind:  kFetchPage,
			From:  fault.AnyNode,
			To:    0,
			Reply: true,
			Nth:   1,
		}},
	}
	res := runOrFail(t, opts, app)
	if res.Data[0] != 7 {
		t.Fatalf("result = %v, want 7", res.Data[0])
	}
	var retries int64
	for _, nd := range res.Stats.Nodes {
		retries += nd.Counts.Retries
	}
	if retries == 0 {
		t.Fatal("recovery happened without any recorded retry")
	}
}

// meshFaultOpts is the benchmark's fault_matrix configuration: the
// hostile profile, judged per message, on the 2-D mesh network model.
func meshFaultOpts(t *testing.T, proto Protocol, p int, seed int64) Options {
	t.Helper()
	o := faultOpts(t, proto, p, fault.ProfileHostile, seed)
	o.Machine.Topology = TopoMesh
	return o
}

// Message-level faults on the mesh: every protocol must still compute
// exact results, the transport must have retransmitted, and no copy is
// ever lost inside the mesh — the injector judges whole messages only.
func TestMeshHostileFaultsAllProtocols(t *testing.T) {
	forEachProto(t, []int{4}, func(t *testing.T, proto Protocol, p int) {
		o := meshFaultOpts(t, proto, p, 5)
		const n = 6
		res := runOrFail(t, o, counterApp(n))
		if want := float64(p * n); res.Data[0] != want {
			t.Fatalf("counter = %v, want %v", res.Data[0], want)
		}
		var retries int64
		for _, nd := range res.Stats.Nodes {
			retries += nd.Counts.Retries
		}
		if retries == 0 {
			t.Fatal("hostile loss on the mesh recovered without a single retransmission")
		}

		res = runOrFail(t, o, multiWriterApp())
		for i, v := range res.Data {
			if want := float64(100*(i%p) + i); v != want {
				t.Fatalf("multiwriter word %d = %v, want %v", i, v, want)
			}
		}
	})
}

// A faulted mesh run is still a deterministic function of (plan, seed):
// mesh link occupancy and the injector's stream are both consulted in
// kernel order.
func TestMeshHostileFaultDeterminism(t *testing.T) {
	o := meshFaultOpts(t, ProtoHLRC, 4, 3)
	r1 := runOrFail(t, o, counterApp(6))
	r2 := runOrFail(t, o, counterApp(6))
	if r1.Stats.Elapsed != r2.Stats.Elapsed {
		t.Fatalf("elapsed differs: %v vs %v", r1.Stats.Elapsed, r2.Stats.Elapsed)
	}
	for i := range r1.Stats.Nodes {
		if *r1.Stats.Nodes[i] != *r2.Stats.Nodes[i] {
			t.Fatalf("node %d stats differ:\n%+v\n%+v", i, r1.Stats.Nodes[i], r2.Stats.Nodes[i])
		}
	}
}

// Severing every copy of one edge's requests while retries are on: the
// transport gives up after ten attempts and the watchdog reports it.
func TestRetryGiveUpDiagnosed(t *testing.T) {
	opts := testOpts(ProtoHLRC, 2)
	opts.Fault = fault.Plan{
		Seed: 1,
		// Sever all barrier requests from node 1 to the manager.
		Targets: []fault.Target{{Kind: kBarrier, From: 1, To: fault.AnyNode}},
	}
	_, err := Run(opts, counterApp(2), false)
	if err == nil {
		t.Fatal("run with a severed barrier edge succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "given up") || !strings.Contains(msg, "after 10 attempts") {
		t.Fatalf("watchdog did not report retry exhaustion: %v", msg)
	}
	if !strings.Contains(msg, "barrier") {
		t.Fatalf("watchdog did not name the message kind: %v", msg)
	}
}

// TestMessageKindsDenseAndNamed: the watchdog's HangError prints
// msgKindName, so every declared kind needs a real name and the range
// must have no hole a renumbering left behind. Every kind an engine serves
// must dispatch to a work/apply pair, and every other kind to badKind: a
// kind its table forgot would otherwise panic only on the rare path that
// sends it (kGCDone at a homeless collection).
func TestMessageKindsDenseAndNamed(t *testing.T) {
	for k := kLockAcq; k <= kMakeDiff; k++ {
		if name := msgKindName(k); strings.HasPrefix(name, "kind-") {
			t.Errorf("message kind %d has no name (%q)", k, name)
		}
	}
	if name := msgKindName(kMakeDiff + 1); !strings.HasPrefix(name, "kind-") {
		t.Errorf("kind %d past the last declared one is named %q", kMakeDiff+1, name)
	}
	for _, eng := range []struct {
		name      string
		dispatch  func(kind int) bool
		notServed []int
	}{
		{"hlrc", func(k int) bool { return dispatches(&hlrcHandlers, k) }, []int{kFetchDiffs}},
		{"lrc", func(k int) bool { return dispatches(&lrcHandlers, k) }, []int{kDiffFlush}},
	} {
		for k := kLockAcq - 1; k <= kMakeDiff+1; k++ {
			want := k >= kLockAcq && k <= kMakeDiff && !slices.Contains(eng.notServed, k)
			if got := eng.dispatch(k); got != want {
				t.Errorf("%s: kind %d (%s) reaches a work/apply pair: %v, want %v", eng.name, k, msgKindName(k), got, want)
			}
		}
	}
}

// dispatches reports whether kind reaches a work/apply pair in t rather
// than badKind.
func dispatches[E any](t *[numKinds]handler[E], kind int) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	h := handlerOf(t, kind)
	return h.work != nil && h.apply != nil
}

// lockTasksApp runs tasks critical sections, task i on node i mod P: it
// adds i+1 to word i mod 2 under lock i mod 2. The sums are exact, so the
// result is the same bits on any machine size and in any grant order.
func lockTasksApp(tasks int) *testApp {
	var addr mem.Addr
	return &testApp{
		name:  "lock-tasks",
		setup: func(s *Setup) { addr = s.Alloc(2) },
		init:  func(w *Init) {},
		worker: func(c *Ctx, id int) {
			for i := id; i < tasks; i += c.Nodes() {
				w := addr + mem.Addr(i%2)
				c.Lock(i % 2)
				v := c.Load(w)
				c.Compute(10 * sim.Microsecond)
				c.Store(w, v+float64(i+1))
				c.Unlock(i % 2)
			}
			c.Barrier(0)
		},
		gather: func(c *Ctx) []float64 {
			out := make([]float64, 2)
			c.ReadRange(addr, out)
			return out
		},
	}
}

// roundsApp has every node add j+r to each word j of pages pages it owns by
// j mod P in round r, for rounds rounds: every page has P writers. With
// check set ("fetch-rounds"), every node then reads every word back and
// checks it: under the homeless protocols each read round fetches diffs
// from every writer of a page, and page copies after the collections a
// small threshold forces. Without ("flush-rounds"), nothing is read until
// the end: under the home-based protocols every node flushes a diff to
// every other page's home each round and applies those of the pages it
// homes, so the diff records circulate through the free list. The
// result is the same bits on any machine size.
func roundsApp(pages, rounds int, check bool) *testApp {
	var addr mem.Addr
	var words int
	name := "flush-rounds"
	if check {
		name = "fetch-rounds"
	}
	return &testApp{
		name: name,
		setup: func(s *Setup) {
			words = pages * s.Space.PageWords
			addr = s.Alloc(words)
		},
		init: func(w *Init) {},
		worker: func(c *Ctx, id int) {
			for r := 0; r < rounds; r++ {
				for j := id; j < words; j += c.Nodes() {
					a := addr + mem.Addr(j)
					c.Store(a, c.Load(a)+float64(j+r))
				}
				c.Barrier(2 * r)
				if !check {
					continue
				}
				for j := 0; j < words; j++ {
					if got, want := c.Load(addr+mem.Addr(j)), float64((r+1)*j+r*(r+1)/2); got != want {
						panic(fmt.Sprintf("node %d round %d: word %d = %v, want %v", id, r, j, got, want))
					}
				}
				c.Barrier(2*r + 1)
			}
		},
		gather: func(c *Ctx) []float64 {
			out := make([]float64, words)
			c.ReadRange(addr, out)
			return out
		},
	}
}

// TestAnswersInBodiesSurviveDuplicates: a server writes its answer into the
// requester's body (a lock grant, a barrier release, a diff or page fetch
// answer), which is sound only because the transport delivers each request
// exactly once — a request serviced a second time would overwrite the body
// of the requester's next exchange, and the reply port's generation check
// drops only the stale answer, not that write. A home-based diff record
// rests on the same premise: the home recycles it once applied, so a flush
// applied twice would apply whatever the record holds by then. Under the
// hostile profile, whose duplicated and retransmitted copies the transport
// suppresses, a lock-passing app, a fetch-heavy one and a diff-heavy one
// compute the sequential run's bits under every protocol; no server writes
// into a body whose Call no longer waits, and no home applies a recycled
// diff record (CheckFrames).
func TestAnswersInBodiesSurviveDuplicates(t *testing.T) {
	CheckFrames(t)
	for _, app := range []func() *testApp{
		func() *testApp { return lockTasksApp(60) },
		func() *testApp { return roundsApp(4, 4, true) },
		func() *testApp { return roundsApp(8, 12, false) },
	} {
		name := app().Name()
		seq := runOrFail(t, testOpts(ProtoSeq, 1), app())
		for _, proto := range Protocols {
			opts := faultOpts(t, proto, 4, fault.ProfileHostile, 9)
			opts.GCThreshold = 2048
			res := runOrFail(t, opts, app())
			var dups, retries int64
			for _, nd := range res.Stats.Nodes {
				dups += nd.Counts.DupsSuppressed
				retries += nd.Counts.Retries
			}
			if dups == 0 || retries == 0 {
				t.Errorf("%s/%s: %d duplicates suppressed, %d retransmissions; want both above zero",
					name, proto, dups, retries)
			}
			if !slices.EqualFunc(res.Data, seq.Data, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Errorf("%s/%s: result %v, want the sequential run's %v", name, proto, res.Data, seq.Data)
			}
			if testing.Verbose() {
				t.Logf("%s/%s: %d duplicates suppressed, %d retransmissions, %d collections on node 0",
					name, proto, dups, retries, res.Stats.Nodes[0].Counts.GCs)
			}
		}
	}
}

// The answer-in-body check fires: a server about to answer into the body of
// a Call that no longer waits panics under CheckFrames, naming the kind.
func TestClaimBodyRefusesAnsweredCall(t *testing.T) {
	CheckFrames(t)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "no longer waits") || !strings.Contains(msg, msgKindName(kLockFwd)) {
			t.Errorf("claimBody on an answered Call panicked with %q, want a panic naming %s and the Call that no longer waits",
				msg, msgKindName(kLockFwd))
		}
	}()
	b := &base{self: 1}
	b.claimBody(paragon.Msg{Kind: kLockFwd, Reply: new(paragon.Reply)})
}

// The recycled-record check fires: under CheckFrames a home applying a
// diff record that is on the simulation's free list panics before it
// touches the page.
func TestRecycledDiffRecordIsRefused(t *testing.T) {
	CheckFrames(t)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "recycled diff record") {
			t.Errorf("applying a recycled diff record panicked with %q, want a panic naming the recycled record", msg)
		}
	}()
	e := &hlrcEngine{}
	e.sys = &System{}
	df := new(diffFlush)
	e.sys.diffRecs.Put(df)
	e.homeApply(df)
}
