package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"gosvm/internal/fault"
	"gosvm/internal/mem"
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

// Every litmus app must still compute the right answer when the network
// drops, duplicates, delays, and reorders messages: the reliability
// transport has to make the faulty network indistinguishable from a slow
// reliable one.
func TestProtocolsSurviveFaultProfiles(t *testing.T) {
	for _, profile := range []string{fault.ProfileLossy, fault.ProfileHostile} {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			forEachProto(t, []int{2, 4}, func(t *testing.T, proto Protocol, p int) {
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
	for k := kLockAcq; k <= kBarrierDown; k++ {
		if name := msgKindName(k); strings.HasPrefix(name, "kind-") {
			t.Errorf("message kind %d has no name (%q)", k, name)
		}
	}
	if name := msgKindName(kBarrierDown + 1); !strings.HasPrefix(name, "kind-") {
		t.Errorf("kind %d past the last declared one is named %q", kBarrierDown+1, name)
	}
	for _, eng := range []struct {
		name      string
		dispatch  func(kind int) bool
		notServed []int
	}{
		{"hlrc", func(k int) bool { return dispatches(&hlrcHandlers, k) }, []int{kFetchDiffs}},
		{"lrc", func(k int) bool { return dispatches(&lrcHandlers, k) }, []int{kDiffFlush}},
	} {
		for k := kLockAcq - 1; k <= kBarrierDown+1; k++ {
			want := k >= kLockAcq && k <= kBarrierDown && !slices.Contains(eng.notServed, k)
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
