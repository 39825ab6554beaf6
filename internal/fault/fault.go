// Package fault implements deterministic, seeded fault injection for the
// simulated Paragon network. The reliability layer that recovers from the
// injected faults lives in internal/paragon.
//
// A Plan describes what goes wrong during a run: per-transmission message
// drop/duplicate/delay/reorder probabilities, targeted one-shot faults
// ("drop the Nth diff-flush to home H"), and per-node compute slowdown
// windows. An Injector turns a Plan into a stream of per-message verdicts
// drawn from its own self-contained PRNG; because the discrete-event
// kernel consults it in a deterministic order, a given (plan, seed) pair
// produces a byte-identical faulty execution every run — a reproducible
// adversarial scheduler.
//
// The zero Plan is inert: no injector is built and the message path is
// exactly the fault-free one, so statistics of existing runs are
// unchanged byte for byte.
package fault

import (
	"fmt"

	"gosvm/internal/sim"
)

// Profile names accepted by Profile.
const (
	ProfileNone    = "none"
	ProfileLossy   = "lossy"
	ProfileHostile = "hostile"
	ProfileCrash   = "crash"
	// ProfileCrashMgr crashes synchronization-manager nodes (the barrier
	// manager, then a lock manager) in successive windows.
	ProfileCrashMgr = "crash-mgr"
)

// Profiles lists the built-in fault profiles.
var Profiles = []string{ProfileNone, ProfileLossy, ProfileHostile, ProfileCrash, ProfileCrashMgr}

// AnyNode matches any node in a Target.
const AnyNode = -1

// Target is a targeted fault: drop transmissions of a specific message
// kind on a specific edge. The zero Kind matches every kind; From/To set
// to AnyNode match every node.
type Target struct {
	Kind     int  // protocol message kind; 0 matches any kind
	From, To int  // node ids; AnyNode matches any
	Reply    bool // match reply transmissions instead of requests
	// Nth drops only the Nth matching transmission (1-based); 0 drops
	// every match (a severed edge).
	Nth int
}

// Slowdown multiplies node Node's compute work by Factor during the
// simulated-time window [From, To).
type Slowdown struct {
	Node     int
	From, To sim.Time
	Factor   float64
}

// Crash is an outage of node Node over the simulated-time window
// [At, RestartAt): the node stops servicing protocol messages and its
// local compute freezes, then it comes back at RestartAt with its
// volatile protocol state (home copies, cached pages) lost. RestartAt
// must come after At; every crash restarts. Recovery of home-page state
// is the job of the core re-homing protocol (see core.Recovery).
type Crash struct {
	Node      int
	At        sim.Time
	RestartAt sim.Time
}

// Plan is a complete per-run fault schedule. Probabilities apply
// independently to every message transmission (including
// retransmissions). The reliability transport that recovers from the
// faults runs a fixed retransmission schedule (paragon/reliable.go).
type Plan struct {
	Seed int64

	// Message fault probabilities, per transmission.
	Drop      float64
	Duplicate float64
	Delay     float64 // extra latency drawn from U(0, MaxDelay)
	Reorder   float64 // small jitter from U(0, reorderWindow), FIFO clamp skipped

	MaxDelay sim.Time // default 1ms

	Targets   []Target
	Slowdowns []Slowdown
	Crashes   []Crash
}

// Messaging reports whether the plan injects any message-level fault
// (which is also what activates the reliability transport).
func (p *Plan) Messaging() bool {
	return p.Drop > 0 || p.Duplicate > 0 || p.Delay > 0 || p.Reorder > 0 ||
		len(p.Targets) > 0 || len(p.Crashes) > 0
}

// Active reports whether the plan perturbs the run at all.
func (p *Plan) Active() bool {
	return p.Messaging() || len(p.Slowdowns) > 0
}

// withDefaults fills an unset MaxDelay.
func (p Plan) withDefaults() Plan {
	if p.MaxDelay == 0 {
		p.MaxDelay = sim.Millisecond
	}
	return p
}

// Profile returns a named preset plan seeded with seed.
func Profile(name string, seed int64) (Plan, error) {
	switch name {
	case ProfileNone, "":
		return Plan{}, nil
	case ProfileLossy:
		// Mild packet loss and jitter: the protocols should recover with
		// a handful of retries and no visible result change.
		return Plan{
			Seed:      seed,
			Drop:      0.02,
			Duplicate: 0.02,
			Delay:     0.05,
			MaxDelay:  500 * sim.Microsecond,
			Reorder:   0.05,
		}, nil
	case ProfileHostile:
		// Adversarial network: heavy loss, duplication, reordering, long
		// delays, plus compute slowdown windows that skew the schedules
		// the protocols see.
		return Plan{
			Seed:      seed,
			Drop:      0.10,
			Duplicate: 0.08,
			Delay:     0.15,
			MaxDelay:  2 * sim.Millisecond,
			Reorder:   0.20,
			Slowdowns: []Slowdown{
				{Node: 1, From: 0, To: 50 * sim.Millisecond, Factor: 2},
				{Node: 2, From: 25 * sim.Millisecond, To: 150 * sim.Millisecond, Factor: 3},
			},
		}, nil
	case ProfileCrash:
		// Node 1 dies mid-run and reboots 20ms later with its volatile
		// protocol state lost. With home-state replication enabled the
		// home-based protocols re-home its pages and finish correctly.
		return Plan{
			Seed: seed,
			Crashes: []Crash{
				{Node: 1, At: 5 * sim.Millisecond, RestartAt: 25 * sim.Millisecond},
			},
		}, nil
	case ProfileCrashMgr:
		// One synchronization manager dies per interval: first the
		// barrier manager (node 0), then node 1, the manager of lock 1.
		// Requests to a crashed manager wait out its restart; the pages
		// both nodes home are re-homed, so this needs
		// Recovery.Replicas >= 1.
		return Plan{
			Seed: seed,
			Crashes: []Crash{
				{Node: 0, At: 5 * sim.Millisecond, RestartAt: 25 * sim.Millisecond},
				{Node: 1, At: 30 * sim.Millisecond, RestartAt: 50 * sim.Millisecond},
			},
		}, nil
	}
	return Plan{}, fmt.Errorf("fault: unknown profile %q (have %v)", name, Profiles)
}
