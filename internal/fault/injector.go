package fault

import (
	"sort"

	"gosvm/internal/sim"
)

// reorderWindow bounds the jitter a Reorder verdict adds to a message.
const reorderWindow = 250 * sim.Microsecond

// Verdict is the injector's decision about one message transmission.
type Verdict struct {
	Drop      bool
	Duplicate bool     // deliver an extra, unordered copy
	Delay     sim.Time // extra latency applied to the primary copy
}

// Injector turns a Plan into a deterministic stream of per-transmission
// verdicts. The discrete-event kernel consults it from a single
// goroutine in a deterministic order, so the whole faulty execution
// replays exactly from (plan, seed).
type Injector struct {
	plan       Plan
	r          rng
	targetHits []int
	losses     []Loss
	// crashes holds the plan's crash schedule grouped per node and
	// sorted by At, for outage-window queries.
	crashes map[int][]Crash

	// KindName, when set, renders protocol message kinds in watchdog
	// reports ("diff-flush" instead of "kind 7"). The protocol layer owns
	// the kind namespace, so it installs this.
	KindName func(kind int) string
}

// NewInjector builds an injector for plan, filling the MaxDelay default.
func NewInjector(plan Plan) *Injector {
	plan = plan.withDefaults()
	in := &Injector{
		plan:       plan,
		r:          newRNG(plan.Seed),
		targetHits: make([]int, len(plan.Targets)),
		crashes:    make(map[int][]Crash),
	}
	for _, c := range plan.Crashes {
		in.crashes[c.Node] = append(in.crashes[c.Node], c)
	}
	for n := range in.crashes {
		cs := in.crashes[n]
		sort.Slice(cs, func(i, j int) bool { return cs[i].At < cs[j].At })
	}
	return in
}

// Plan returns the plan with the MaxDelay default applied.
func (in *Injector) Plan() Plan { return in.plan }

// Judge decides the fate of one transmission of a protocol message.
// Every transmission — including retransmissions — rolls independently.
func (in *Injector) Judge(from, to, kind int, reply bool) Verdict {
	var v Verdict
	for i := range in.plan.Targets {
		tg := &in.plan.Targets[i]
		if tg.Kind != 0 && tg.Kind != kind {
			continue
		}
		if tg.Reply != reply {
			continue
		}
		if tg.From != AnyNode && tg.From != from {
			continue
		}
		if tg.To != AnyNode && tg.To != to {
			continue
		}
		in.targetHits[i]++
		if tg.Nth == 0 || tg.Nth == in.targetHits[i] {
			v.Drop = true
		}
	}
	if in.r.Float() < in.plan.Drop {
		v.Drop = true
	}
	if in.r.Float() < in.plan.Duplicate {
		v.Duplicate = true
	}
	if in.r.Float() < in.plan.Delay {
		v.Delay += in.r.timeIn(in.plan.MaxDelay)
	}
	if in.r.Float() < in.plan.Reorder {
		v.Delay += in.r.timeIn(reorderWindow)
	}
	return v
}

// JudgeAck decides whether a transport-level acknowledgement is lost.
// Acks are tiny and carry no payload, so only the drop probability
// applies; a lost ack simply provokes a (suppressed) retransmission.
func (in *Injector) JudgeAck() bool {
	return in.r.Float() < in.plan.Drop
}

// Slow scales compute work d on node at simulated time now according to
// the plan's slowdown windows. Overlapping windows compound.
func (in *Injector) Slow(node int, now, d sim.Time) sim.Time {
	for _, s := range in.plan.Slowdowns {
		if s.Node == node && now >= s.From && now < s.To && s.Factor > 1 {
			d = sim.Time(float64(d) * s.Factor)
		}
	}
	return d
}

// Down reports whether node is inside a crash outage window at time t:
// crashed at or before t and not yet restarted.
func (in *Injector) Down(node int, t sim.Time) bool {
	for _, c := range in.crashes[node] {
		if t < c.At {
			return false
		}
		if t < c.RestartAt {
			return true
		}
	}
	return false
}

// Stall stretches a compute duration d started at now on node across any
// crash outage it overlaps: the processor freezes for the outage and the
// remaining work completes after the restart.
func (in *Injector) Stall(node int, now, d sim.Time) sim.Time {
	end := now + d
	for _, c := range in.crashes[node] {
		if c.At >= end && c.At > now {
			break
		}
		if c.RestartAt <= now {
			continue
		}
		// The outage [max(At, now), RestartAt) overlaps [now, end):
		// freeze for its remainder.
		start := c.At
		if start < now {
			start = now
		}
		if start <= end {
			d += c.RestartAt - start
			end = now + d
		}
	}
	return d
}
