package paragon

import (
	"gosvm/internal/sim"
	"gosvm/internal/stats"
)

// Target selects which processor on the destination node services a
// message.
type Target int

const (
	// ToCompute delivers to the compute processor: servicing requires a
	// receive interrupt that steals time from the application.
	ToCompute Target = iota
	// ToCoproc delivers to the communication co-processor's polling
	// dispatch loop: no interrupt, but serviced one at a time.
	ToCoproc
)

// Msg is an NX/2-style message. Kind is interpreted by the installed
// protocol handler; Body carries the protocol payload. Size is the payload
// wire size in bytes (header added by the network).
type Msg struct {
	Kind   int
	From   int
	Size   int
	Class  stats.Class
	Target Target
	Body   any
	// Reply, when non-nil, is where the handler sends its response. A
	// requester blocked on a Reply polls for the message, so delivery
	// needs no receive interrupt.
	Reply *Reply
}

// Reply is a one-shot response port for request/response exchanges: the
// requester's proc parks in Wait until the first answer is delivered.
type Reply struct {
	msg    Msg
	got    bool
	waiter *sim.Proc // parked in Wait, until the answer wakes it
	// owner is the node whose proc waits on this port. The fault layer
	// addresses the reply wire by it: the request's From field is
	// overwritten at every forwarding hop and may no longer name the
	// original requester.
	owner int
}

// deliver stores the answer and wakes the waiter. A port answers once: a
// later answer to the same request (a handler that responds twice) is
// dropped, and the waiter is not woken again.
func (r *Reply) deliver(m Msg) {
	if r.got {
		return
	}
	r.msg, r.got = m, true
	if r.waiter != nil {
		r.waiter.Unpark()
	}
}

// Wait blocks p until the response arrives.
func (r *Reply) Wait(p *sim.Proc) Msg {
	for !r.got {
		r.waiter = p
		p.Park("recv reply")
	}
	return r.msg
}

// response is a fault-free answer in flight to its port.
type response struct {
	port *Reply
	msg  Msg
}

func (r *response) Fire() { r.port.deliver(r.msg) }
