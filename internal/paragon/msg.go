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
	// gen is the Call a request belongs to: Call stamps it with its
	// port's generation and Respond copies it into the answer.
	gen uint64
}

// Reply is a node's response port. Only the node's application proc calls
// Call, so one port per node serves every exchange: each Call opens a new
// generation, and the requester's proc parks until the first answer of
// that generation is delivered.
type Reply struct {
	msg    Msg
	gen    uint64 // the current Call's
	got    bool
	waiter *sim.Proc // the proc in Call, nil between Calls
	// owner is the node whose proc waits on this port. The fault layer
	// addresses the reply wire by it: the request's From field is
	// overwritten at every forwarding hop and may no longer name the
	// original requester.
	owner int
}

// deliver stores the answer and wakes the waiter. A port keeps one answer
// per Call: an answer to an earlier Call (a handler that responds twice,
// or a crash replay) and a second answer to the current one are dropped,
// and the waiter is not woken again.
func (r *Reply) deliver(m Msg) {
	if m.gen != r.gen || r.got {
		return
	}
	r.msg, r.got = m, true
	r.waiter.Unpark()
}

// Waiting reports whether the Call that sent request m still waits for
// its first answer. A server that writes its answer into the requester's
// memory may check it first: once the Call has returned, that memory
// belongs to the requester's next exchange.
func (m Msg) Waiting() bool {
	r := m.Reply
	return r != nil && r.waiter != nil && r.gen == m.gen && !r.got
}

// maxFlights bounds each node's free list of flights. Requests and their
// answers keep the lists balanced; the bound only caps what a node that
// mostly receives one-way traffic (diff flushes) holds on to.
const maxFlights = 64

// flight is a fault-free message in flight: a request or one-way message
// to node to's dispatchers when port is nil, otherwise an answer to port.
// It comes off the sending node's free list and, once it fires, goes onto
// the receiving node's.
type flight struct {
	to   *Node
	port *Reply
	msg  Msg
}

// Fire puts f, zeroed, on the receiving node's free list, unless that is
// full, and delivers the message.
func (f *flight) Fire() {
	to, port, msg := f.to, f.port, f.msg
	*f = flight{} // drop the payload's references
	to.flights.Put(f)
	to.receive(port, msg)
}

// post puts msg on the wire from n to node to, in a flight from n's free
// list, for delivery after the wire time (FIFO per source/destination
// pair).
func (n *Node) post(to int, port *Reply, msg Msg) {
	f, ok := n.flights.Take()
	if !ok {
		f = new(flight)
	}
	*f = flight{to: n.M.Nodes[to], port: port, msg: msg}
	n.M.K.At(n.arrivalTime(to, msg.Size, true), f)
}
