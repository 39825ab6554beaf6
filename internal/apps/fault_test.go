package apps

import (
	"fmt"
	"testing"

	"gosvm/internal/core"
	"gosvm/internal/fault"
	"gosvm/internal/sim"
)

// crashRun runs app on n nodes while k nodes, victim and the k-1 after it,
// are down for 5 ms from at. The outage stays far inside the retry
// layer's give-up horizon, so every message to a crashed node survives it.
func crashRun(app core.App, proto core.Protocol, n, k, victim int, at sim.Time) (*core.Result, error) {
	plan := fault.Plan{Seed: 1}
	for i := 0; i < k; i++ {
		plan.Crashes = append(plan.Crashes, fault.Crash{Node: (victim + i) % n, At: at, RestartAt: at + 5*sim.Millisecond})
	}
	return core.Run(core.Options{
		Protocol:  proto,
		Machine:   core.Machine{Nodes: n},
		PageBytes: 1024,
		Fault:     plan,
	}, app, false)
}

// Every application must survive a mid-run crash of one node (k1) under
// every protocol, and of two neighbours at once (k2) under the home-based
// pair; the homeless pair runs k1 only, to keep the matrix's share of the
// package's -race run close to what two protocols cost. The crashed nodes
// home pages and manage locks (and node 0 the barrier); they keep all
// their state, every request to them waits out the restart, and the
// result still matches the sequential reference — bitwise, or to 1e-9 for
// the two water codes, whose lock-ordered floating-point sums legitimately
// reassociate. The crash times are fractions of the fault-free run, so
// they land wherever that app's compute phases, lock traffic and barrier
// crunches fall. Under -short only SOR and LU on 4 nodes run: the cells
// that keep their legacy names, and one k2 cell per home-based protocol.
func TestAppsSurviveHomeCrash(t *testing.T) {
	apps := []struct {
		name string
		tol  float64
		mk   func() core.App
	}{
		{"sor", 0, func() core.App { return NewSOR(SizeTest, false) }},
		{"lu", 0, func() core.App { return NewLU(SizeTest) }},
		{"raytrace", 0, func() core.App { return NewRaytrace(SizeTest) }},
		{"water-nsq", 1e-9, func() core.App { return NewWaterNsq(SizeTest) }},
		{"water-sp", 1e-9, func() core.App { return NewWaterSp(SizeTest) }},
	}
	fractions := []struct {
		label    string
		num, den sim.Time
	}{{"1/5", 1, 5}, {"1/3", 1, 3}, {"1/2", 1, 2}, {"2/3", 2, 3}}
	// The eight cells this test ran before it grew into a matrix keep
	// their subtest names, and the assertion that a crash costs time.
	legacy := map[string]string{"1/3": "mid-interval", "2/3": "at-barrier"}
	short := testing.Short()

	// Every cell, and every (app, protocol) group's fault-free runs, is its
	// own simulation: they run in parallel.
	for _, a := range apps {
		if short && a.name != "sor" && a.name != "lu" {
			continue
		}
		seq := seqRun(t, a.mk())
		for _, proto := range core.Protocols {
			t.Run(fmt.Sprintf("%s/%s", a.name, proto), func(t *testing.T) {
				t.Parallel()
				for _, n := range []int{4, 8, 16} {
					if short && n != 4 {
						continue
					}
					elapsed := parRun(t, a.mk(), proto, n).Stats.Elapsed
					for _, k := range []int{1, 2} {
						if k == 2 && !proto.HomeBased() {
							continue
						}
						for _, victim := range []int{0, 1, n - 2, n - 1} {
							for _, f := range fractions {
								at := elapsed * f.num / f.den
								name := fmt.Sprintf("n%d/k%d/node%d@%s", n, k, victim, f.label)
								old := (a.name == "sor" || a.name == "lu") && n == 4 && k == 1 && victim == 1 && legacy[f.label] != ""
								if short && !old && !(a.name == "sor" && k == 2 && victim == 0 && f.label == "1/3") {
									continue
								}
								if old {
									name = legacy[f.label]
								}
								t.Run(name, func(t *testing.T) {
									t.Parallel()
									res, err := crashRun(a.mk(), proto, n, k, victim, at)
									if err != nil {
										t.Fatal(err)
									}
									checkMatch(t, fmt.Sprintf("%s/%s/%s", a.name, proto, name), seq.Data, res.Data, a.tol)
									if old && res.Stats.Elapsed <= elapsed {
										t.Fatalf("crash run finished in %v, not slower than fault-free %v",
											res.Stats.Elapsed, elapsed)
									}
								})
							}
						}
					}
				}
			})
		}
	}
}

// SOR and LU must validate against the sequential reference under the
// lossy and hostile fault profiles for all four protocols — the
// acceptance bar for the reliability layer on real workloads.
func TestAppsUnderFaultProfiles(t *testing.T) {
	apps := []struct {
		name string
		mk   func() core.App
	}{
		{"sor", func() core.App { return NewSOR(SizeTest, false) }},
		{"lu", func() core.App { return NewLU(SizeTest) }},
	}
	for _, a := range apps {
		seq := seqRun(t, a.mk())
		for _, profile := range []string{fault.ProfileLossy, fault.ProfileHostile} {
			plan, err := fault.Profile(profile, 1234)
			if err != nil {
				t.Fatal(err)
			}
			for _, proto := range core.Protocols {
				a, proto, profile, plan := a, proto, profile, plan
				t.Run(fmt.Sprintf("%s/%s/%s", a.name, proto, profile), func(t *testing.T) {
					opts := core.Options{
						Protocol:  proto,
						Machine:   core.Machine{Nodes: 4},
						PageBytes: 1024,
						Fault:     plan,
					}
					res, err := core.Run(opts, a.mk(), false)
					if err != nil {
						t.Fatalf("%s/%s/%s: %v", a.name, proto, profile, err)
					}
					checkMatch(t, fmt.Sprintf("%s/%s/%s", a.name, proto, profile),
						seq.Data, res.Data, 0)
				})
			}
		}
	}
}

// Above 64 nodes the barrier is a tree whose root is node 0: the crash-mgr
// profile takes the root down for 20 ms, and it replays its frozen combine
// state when it restarts, while requests to node 1's lock-manager role
// wait out node 1's later crash. The result still matches the sequential
// run bitwise.
func TestTreeRootCrashRecovers(t *testing.T) {
	plan, err := fault.Profile(fault.ProfileCrashMgr, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := core.Machine{Nodes: 96}
	if m.Nodes <= core.BarrierCrossover {
		t.Fatalf("%d nodes run the central barrier; the cell needs the tree", m.Nodes)
	}
	seq, err := core.Run(core.Options{Protocol: core.ProtoSeq, Machine: core.Machine{Nodes: 1}}, NewSOR(SizeSmall, false), false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(core.Options{
		Protocol: core.ProtoHLRC,
		Machine:  m,
		Fault:    plan,
	}, NewSOR(SizeSmall, false), false)
	if err != nil {
		t.Fatal(err)
	}
	checkMatch(t, "sor/hlrc/n96/crash-mgr", seq.Data, res.Data, 0)
}
