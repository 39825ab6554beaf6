package paragon

import (
	"gosvm/internal/fault"
	"gosvm/internal/sim"
	"gosvm/internal/slab"
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
// recovers from it. The sender retransmits on an exponential-backoff timer
// (on the simulated clock) until the receiver's ack lands. Every copy of a
// message, whether a retransmission or an injected duplicate, fires the
// same netMsg, so the receiver dedups by that identity: replayed requests,
// replies and duplicates are delivered exactly once. Protocols may rely on
// that: a server that writes its answer into the requester's request body
// must never service the same request twice.
//
// All state is touched only from the simulation goroutine, so no locking
// is needed and one free list serves every node.
type faultLayer struct {
	m   *Machine
	inj *fault.Injector

	// free holds the netMsgs no event names any more (see maybeRetire).
	// It never holds more than were live at once at the peak, so it needs
	// no bound.
	free slab.Free[*netMsg]
}

// netMsg is one logical message in flight: the transport retransmits it
// until it is acked or given up on. Every event it posts fires the netMsg
// itself, through arrival, ackArrival or retryTimer; once no event can
// name it any more it is zeroed and recycled through faultLayer.free.
type netMsg struct {
	fl        *faultLayer
	src, dst  int
	attempts  int
	firstSent sim.Time
	// wait is the retry timer's current wait. At most one timer per
	// message is armed, so one field holds the whole backoff chain.
	wait      sim.Time
	armed     bool
	acked     bool
	lost      bool
	delivered bool
	// inflight counts copies on the wire and acks counts acks on the wire
	// (scheduled arrivals not yet processed).
	inflight, acks int

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
	return &faultLayer{m: m, inj: inj}
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
	fl.m.K.At(at+v.Delay, (*arrival)(nm))
	if v.Duplicate {
		nm.inflight++
		fl.m.K.At(n.arrivalTime(nm.dst, size, false), (*arrival)(nm))
	}
}

// send routes msg from n to node to through the faulty network — a
// one-way message or request when port is nil, otherwise a response to
// the requester's port: it fills a recycled netMsg, puts the first copy
// on the wire and arms the retransmission timer.
func (fl *faultLayer) send(n *Node, to int, msg Msg, port *Reply) {
	nm, ok := fl.free.Take()
	if !ok {
		nm = new(netMsg)
	}
	*nm = netMsg{
		fl:        fl,
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

// maybeRetire recycles nm once no event can name it again: the sender is
// done with it (acked or given up, so no retransmission will put new
// copies on the wire), every copy and every ack already on the wire has
// been processed, and its retry timer has had its last firing.
func (fl *faultLayer) maybeRetire(nm *netMsg) {
	if (nm.acked || nm.lost) && nm.inflight == 0 && nm.acks == 0 && !nm.armed {
		*nm = netMsg{}
		fl.free.Put(nm)
	}
}

// dropped accounts a copy the network ate; the retransmission chain
// decides whether the loss is final.
func (fl *faultLayer) dropped(nm *netMsg) {
	fl.m.Nodes[nm.src].Stats.Counts.MsgsDropped++
}

// arrive runs when a copy reaches the destination. Only the first copy
// is delivered (replays and injected duplicates deliver exactly once) and
// every copy is acknowledged.
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
	if nm.delivered {
		fl.m.Nodes[nm.dst].Stats.Counts.DupsSuppressed++
		fl.sendAck(nm)
		fl.maybeRetire(nm)
		return
	}
	nm.delivered = true
	fl.sendAck(nm)
	fl.m.Nodes[nm.dst].receive(nm.port, nm.msg)
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
	nm.acks++
	fl.m.K.At(fl.m.K.Now()+fl.m.Costs.Wire(ackBytes), (*ackArrival)(nm))
}

func (fl *faultLayer) ackArrived(nm *netMsg) {
	nm.acks--
	if nm.acked || nm.lost {
		fl.maybeRetire(nm)
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
	nm.wait, nm.armed = wait, true
	fl.m.K.At(fl.m.K.Now()+wait, (*retryTimer)(nm))
}

// retry is nm's retransmission timer firing: give up after maxAttempts,
// otherwise retransmit and back off.
func (fl *faultLayer) retry(nm *netMsg) {
	nm.armed = false
	if nm.acked || nm.lost {
		fl.maybeRetire(nm)
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
