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

// Reply is a one-shot response port for request/response exchanges.
type Reply struct {
	ch *sim.Chan[Msg]
	// owner is the node whose proc waits on this port, or -1 when unknown.
	// Call records it so the fault layer can address the reply wire: the
	// request's From field is overwritten at every forwarding hop and may
	// no longer name the original requester.
	owner int
}

// NewReply returns a fresh response port.
func NewReply() *Reply {
	return &Reply{ch: sim.NewChan[Msg]("reply"), owner: -1}
}

// dest resolves the node the response travels to, falling back to the
// request's From field when the owner was never recorded.
func (r *Reply) dest(from int) int {
	if r.owner >= 0 {
		return r.owner
	}
	return from
}

// Wait blocks p until the response arrives.
func (r *Reply) Wait(p *sim.Proc) Msg { return r.ch.Recv(p) }
