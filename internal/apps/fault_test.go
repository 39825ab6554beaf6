package apps

import (
	"fmt"
	"testing"

	"gosvm/internal/core"
	"gosvm/internal/fault"
	"gosvm/internal/sim"
)

// SOR and LU must validate against the sequential reference under the
// lossy and hostile fault profiles for all four protocols — the
// acceptance bar for the reliability layer on real workloads.
// SOR and LU must also survive a mid-run home crash under the
// home-based protocols when replication is on: node 1's pages are
// re-homed and the results still match the sequential reference
// bitwise. The crash times are derived from the fault-free run so one
// lands mid-interval (during a compute phase) and one right around the
// barrier crunch, wherever the app's phase boundaries fall.
func TestAppsSurviveHomeCrash(t *testing.T) {
	apps := []struct {
		name string
		mk   func() core.App
	}{
		{"sor", func() core.App { return NewSOR(SizeTest, false) }},
		{"lu", func() core.App { return NewLU(SizeTest) }},
	}
	for _, a := range apps {
		seq := seqRun(t, a.mk())
		for _, proto := range []core.Protocol{core.ProtoHLRC, core.ProtoOHLRC} {
			free := parRun(t, a.mk(), proto, 4)
			elapsed := free.Stats.Elapsed
			for label, at := range map[string]sim.Time{
				"mid-interval": elapsed / 3,
				"at-barrier":   2 * elapsed / 3,
			} {
				a, proto, label, at := a, proto, label, at
				t.Run(fmt.Sprintf("%s/%s/%s", a.name, proto, label), func(t *testing.T) {
					opts := core.Options{
						Protocol:  proto,
						Machine:   core.Machine{Nodes: 4},
						PageBytes: 1024,
						Fault: fault.Plan{
							Seed: 1,
							// Short RTO: suspicion (3 attempts) fires well
							// inside the outage. The outage stays shorter
							// than the retry layer's give-up horizon so
							// traffic still chasing the restarting node
							// (e.g. a pinned held lock token) survives it.
							RTO: 100 * sim.Microsecond,
							Crashes: []fault.Crash{
								{Node: 1, At: at, RestartAt: at + 5*sim.Millisecond},
							},
						},
						Recovery: core.Recovery{Replicas: 1},
					}
					res, err := core.Run(opts, a.mk(), false)
					if err != nil {
						t.Fatalf("%s/%s/%s: %v", a.name, proto, label, err)
					}
					checkMatch(t, fmt.Sprintf("%s/%s/%s", a.name, proto, label),
						seq.Data, res.Data, 0)
					if res.Stats.Elapsed <= elapsed {
						t.Fatalf("crash run finished in %v, not slower than fault-free %v",
							res.Stats.Elapsed, elapsed)
					}
				})
			}
		}
	}
}

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
