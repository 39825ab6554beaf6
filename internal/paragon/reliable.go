package paragon

import (
	"gosvm/internal/fault"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
)

// ackBytes is the payload size of a transport-level acknowledgement: a
// message id plus a small header, in the spirit of NX-level flow control.
const ackBytes = 12

// The retransmission schedule: the first retry fires rto after a send and
// each later wait is backoff times the previous one, capped at rtoMax so
// recovery after a long outage stays bounded. A message is given up after
// maxAttempts transmissions.
const (
	rto         = 2 * sim.Millisecond
	backoff     = 2
	rtoMax      = 50 * sim.Millisecond
	maxAttempts = 10
)

// faultLayer is the faulty network plus the reliability transport that
// recovers from it. Every inter-node transmission receives a unique id;
// the sender retransmits on an exponential-backoff timer (on the
// simulated clock) until the receiver's ack lands, and the receiver
// dedups by id so replayed requests, replies, and injected duplicates
// are delivered exactly once.
//
// All state is touched only from the simulation goroutine, so no locking
// is needed and the execution stays deterministic.
type faultLayer struct {
	m   *Machine
	inj *fault.Injector

	nextID uint64
	// seen holds, per destination node, the ids already delivered there.
	// Entries are retired as soon as no copy of the id can still be in
	// flight (see maybeRetire), so the maps stay bounded by the number
	// of concurrently outstanding messages, not by run length.
	seen []map[uint64]struct{}
}

// netMsg is one logical message in flight: the transport retransmits the
// same id until it is acked or given up on. It is the only object the
// transport allocates per message; every event it posts fires the netMsg
// itself, through arrival, ackArrival or retryTimer.
type netMsg struct {
	fl        *faultLayer
	id        uint64
	src, dst  int
	attempts  int
	firstSent sim.Time
	// wait is the retry timer's current wait. At most one timer per
	// message is armed, so one field holds the whole backoff chain.
	wait  sim.Time
	acked bool
	lost  bool
	// inflight counts copies on the wire (scheduled arrivals not yet
	// processed). Once the sender is done with the id (acked or lost)
	// and inflight hits zero, no copy can ever arrive again and the
	// receiver's dedup entry is retired.
	inflight int

	// msg is the payload, retransmitted whole; a response travels to port,
	// the requester's reply port (nil for a request).
	msg  Msg
	port *Reply
}

// arrival, ackArrival and retryTimer are the events posted for a netMsg:
// a copy reaching dst, its ack reaching src, and the retry timer.
type (
	arrival    netMsg
	ackArrival netMsg
	retryTimer netMsg
)

func (a *arrival) Fire()    { nm := (*netMsg)(a); nm.fl.arrive(nm) }
func (a *ackArrival) Fire() { nm := (*netMsg)(a); nm.fl.ackArrived(nm) }
func (r *retryTimer) Fire() { nm := (*netMsg)(r); nm.fl.retry(nm) }

func newFaultLayer(m *Machine, inj *fault.Injector) *faultLayer {
	fl := &faultLayer{
		m:    m,
		inj:  inj,
		seen: make([]map[uint64]struct{}, len(m.Nodes)),
	}
	for i := range fl.seen {
		fl.seen[i] = make(map[uint64]struct{})
	}
	return fl
}

// transmit puts one (possibly faulty) copy of nm on the wire: the
// injector's verdict first, then the network model (crossbar or mesh).
func (fl *faultLayer) transmit(nm *netMsg) {
	v := fl.inj.Judge(nm.src, nm.dst, nm.msg.Kind, nm.port != nil)
	n := fl.m.Nodes[nm.src]
	size := nm.msg.Size
	n.Stats.Sent(nm.msg.Class, size+fl.m.Costs.MsgHeader)
	if v.Drop {
		fl.dropped(nm)
		return
	}
	// A delayed primary copy leaves the FIFO order, as do duplicates:
	// both model packets straggling through the mesh.
	at := n.arrivalTime(nm.dst, size, v.Delay == 0)
	nm.inflight++
	// Arrivals go through the same src->dst handoff path as fault-free
	// sends. (Fault runs always execute on an unpartitioned kernel — the
	// transport's dedup/pending maps are global — so this is the plain
	// event path; the routing just stays uniform.)
	fl.m.K.Post(nm.src, nm.dst, at+v.Delay, (*arrival)(nm))
	if v.Duplicate {
		nm.inflight++
		fl.m.K.Post(nm.src, nm.dst, n.arrivalTime(nm.dst, size, false), (*arrival)(nm))
	}
}

// deliver hands nm's payload to its destination: a request to the
// targeted dispatcher, a response to the waiting reply port.
func (fl *faultLayer) deliver(nm *netMsg) {
	if nm.port != nil {
		nm.port.deliver(nm.msg)
		return
	}
	fl.m.Nodes[nm.dst].enqueue(nm.msg)
}

// send routes msg from n to node to through the faulty network — a
// one-way message or request when port is nil, otherwise a response to
// the requester's port: it mints the netMsg, puts the first copy on the
// wire and arms the retransmission timer.
func (fl *faultLayer) send(n *Node, to int, msg Msg, port *Reply) {
	fl.nextID++
	nm := &netMsg{
		fl:        fl,
		id:        fl.nextID,
		src:       n.ID,
		dst:       to,
		attempts:  1,
		firstSent: fl.m.K.Now(),
		msg:       msg,
		port:      port,
	}
	fl.transmit(nm)
	fl.armRetry(nm, rto)
}

// maybeRetire drops the receiver's dedup entry for nm once no copy can
// ever arrive again: the sender is done with the id (acked or given up,
// so no retransmission will mint new copies) and every copy already on
// the wire has been processed. This keeps the seen maps bounded by the
// number of concurrently outstanding messages.
func (fl *faultLayer) maybeRetire(nm *netMsg) {
	if (nm.acked || nm.lost) && nm.inflight == 0 {
		delete(fl.seen[nm.dst], nm.id)
	}
}

// dropped accounts a copy the network ate; the retransmission chain
// decides whether the loss is final.
func (fl *faultLayer) dropped(nm *netMsg) {
	fl.m.Nodes[nm.src].Stats.Counts.MsgsDropped++
}

// arrive runs when a copy reaches the destination. The id is deduped
// (replays and injected duplicates deliver exactly once) and every copy
// is acknowledged.
func (fl *faultLayer) arrive(nm *netMsg) {
	nm.inflight--
	if fl.m.Down(nm.dst) {
		// The destination is crashed: the copy falls on the floor — no
		// delivery, no ack. The retransmission chain keeps trying and
		// succeeds after the restart.
		fl.dropped(nm)
		fl.maybeRetire(nm)
		return
	}
	if _, dup := fl.seen[nm.dst][nm.id]; dup {
		fl.m.Nodes[nm.dst].Stats.Counts.DupsSuppressed++
		fl.sendAck(nm)
		fl.maybeRetire(nm)
		return
	}
	fl.seen[nm.dst][nm.id] = struct{}{}
	fl.sendAck(nm)
	fl.deliver(nm)
	fl.maybeRetire(nm)
}

// sendAck returns a tiny acknowledgement to the sender. Acks themselves
// cross the faulty network (drop only — a lost ack just provokes one
// more suppressed retransmission).
func (fl *faultLayer) sendAck(nm *netMsg) {
	fl.m.Nodes[nm.dst].Stats.Sent(stats.ClassProtocol, ackBytes+fl.m.Costs.MsgHeader)
	if fl.inj.JudgeAck() {
		fl.m.Nodes[nm.dst].Stats.Counts.MsgsDropped++
		return
	}
	fl.m.K.Post(nm.dst, nm.src, fl.m.K.LaneNow(nm.dst)+fl.m.Costs.Wire(ackBytes), (*ackArrival)(nm))
}

func (fl *faultLayer) ackArrived(nm *netMsg) {
	if nm.acked || nm.lost {
		return
	}
	nm.acked = true
	if nm.attempts > 1 {
		// Recovery time: how long the loss stalled this message beyond a
		// clean first-attempt round trip.
		fl.m.Nodes[nm.src].Stats.Recovery += fl.m.K.Now() - nm.firstSent
	}
	fl.maybeRetire(nm)
}

// armRetry arms nm's retransmission timer to fire wait from now. At most
// one timer per message is outstanding; the chain ends on ack, on give-up,
// or with a final no-op firing after the ack lands.
func (fl *faultLayer) armRetry(nm *netMsg, wait sim.Time) {
	nm.wait = wait
	fl.m.K.Post(nm.src, nm.src, fl.m.K.LaneNow(nm.src)+wait, (*retryTimer)(nm))
}

// retry is nm's retransmission timer firing: give up after maxAttempts,
// otherwise retransmit and back off.
func (fl *faultLayer) retry(nm *netMsg) {
	if nm.acked || nm.lost {
		return
	}
	if nm.attempts >= maxAttempts {
		nm.lost = true
		fl.inj.RecordLoss(fault.Loss{
			At:       fl.m.K.Now(),
			From:     nm.src,
			To:       nm.dst,
			Kind:     nm.msg.Kind,
			Reply:    nm.port != nil,
			Attempts: nm.attempts,
		})
		fl.maybeRetire(nm)
		return
	}
	nm.attempts++
	fl.m.Nodes[nm.src].Stats.Counts.Retries++
	fl.transmit(nm)
	fl.armRetry(nm, min(sim.Time(float64(nm.wait)*backoff), rtoMax))
}
