package paragon

import (
	"fmt"

	"gosvm/internal/fault"
	"gosvm/internal/sim"
	"gosvm/internal/slab"
	"gosvm/internal/stats"
)

// Handler services one message. It returns the compute work the service
// requires and an effect to apply once that time has elapsed (typically
// state mutation plus sending replies). Handlers must not block; requests
// that cannot be satisfied yet are parked on protocol pending lists and
// answered from a later handler's effect. A dispatcher calls its handler
// again only after the previous effect has fired, so a handler may keep
// the message in a slot of its own and return the same effect every time,
// built once, that applies whatever the slot holds: the protocol engines
// do, and allocate nothing per message serviced. A closure per message
// works too.
type Handler func(m Msg) (work sim.Time, effect func())

// Machine is a multicomputer: a set of nodes connected by a
// latency/bandwidth network, driven by one simulation kernel.
type Machine struct {
	K     *sim.Kernel
	Costs Costs
	Nodes []*Node

	// flights holds the fired flights every node's sends draw from.
	flights slab.Free[*flight]

	// lastArrival enforces per-(src,dst) FIFO delivery, as the Paragon's
	// wormhole mesh does: a later small message must not overtake an
	// earlier large one. Indexed [src][dst].
	lastArrival [][]sim.Time

	// mesh, when non-nil, routes messages over a 2-D wormhole mesh with
	// link contention instead of the default crossbar. See EnableMesh.
	mesh *mesh

	// inj, when non-nil, scales compute work by the fault plan's slowdown
	// windows; faults, when non-nil, additionally routes inter-node
	// traffic through the faulty/reliable transport. Both nil in a
	// fault-free run, leaving every code path untouched.
	inj    *fault.Injector
	faults *faultLayer
}

// New builds an n-node machine on kernel k. It spawns no procs: each
// node's two dispatchers are event callbacks.
func New(k *sim.Kernel, n int, costs Costs) *Machine {
	m := &Machine{K: k, Costs: costs}
	for i := 0; i < n; i++ {
		nd := &Node{ID: i, M: m, Stats: &stats.Node{}}
		nd.CPU = &CPU{node: nd}
		nd.reply.owner = i
		nd.compute.init(nd, true)
		nd.coproc.init(nd, false)
		m.Nodes = append(m.Nodes, nd)
	}
	// Per-source rows materialize on first ordered send (see sendTime):
	// most (src,dst) pairs never communicate at scale.
	m.lastArrival = make([][]sim.Time, n)
	return m
}

// EnableFaults wires a fault injector into the machine: compute work is
// scaled by the plan's slowdown windows and stalled across its crash
// outages, and if the plan injects message faults (crashes included) all
// inter-node traffic is routed through the fault transport (see
// reliable.go). A crash needs nothing else: the node keeps all its state,
// so its restart is only the end of the outage. Must be called before the
// simulation starts.
func (m *Machine) EnableFaults(inj *fault.Injector) {
	m.inj = inj
	if p := inj.Plan(); p.Messaging() {
		m.faults = newFaultLayer(m, inj)
	}
}

// Down reports whether node is inside a crash outage window right now.
func (m *Machine) Down(node int) bool {
	return m.inj != nil && m.inj.Down(node, m.K.Now())
}

// workTime is how long compute work d started now on node keeps its
// processor busy: scaled by any active slowdown window, then stretched
// across any crash window it overlaps.
func (m *Machine) workTime(node int, d sim.Time) sim.Time {
	if m.inj == nil {
		return d
	}
	now := m.K.Now()
	return m.inj.Stall(node, now, m.inj.Slow(node, now, d))
}

// Node is one Paragon node: compute processor, communication co-processor,
// and shared local memory (implicit — protocol state lives in Go objects
// owned by the node).
type Node struct {
	ID    int
	M     *Machine
	CPU   *CPU
	Stats *stats.Node

	compute dispatcher // requests serviced under a receive interrupt
	coproc  dispatcher // the co-processor's polling dispatch loop

	reply Reply // the port every Call on this node waits on
}

// InstallCompute sets the handler for messages targeted at the compute
// processor (serviced under a receive interrupt).
func (n *Node) InstallCompute(h Handler) { n.compute.h = h }

// InstallCoproc sets the handler run by the co-processor dispatch loop.
func (n *Node) InstallCoproc(h Handler) { n.coproc.h = h }

// dispatcher serializes one processor's request service: pop a message,
// call the handler, hold the processor for the service time, apply the
// effect, repeat. A handler never blocks mid-service, so the loop needs no
// proc of its own; it runs to completion inside two events — serve when a
// push finds it idle, complete one service time later — created exactly
// where a dispatcher proc's unpark and sleep wake-ups would be, which keeps
// the event order of such a proc bit for bit.
type dispatcher struct {
	n      *Node
	h      Handler
	intr   bool // compute processor: pay the receive interrupt, steal from the app
	queue  sim.Queue[Msg]
	busy   bool   // a serve or complete event is pending
	effect func() // of the message in service
	// serve and complete are built once so scheduling them allocates nothing.
	serve, complete func()
}

func (d *dispatcher) init(n *Node, intr bool) {
	d.n, d.intr = n, intr
	d.serve = func() {
		msg, _ := d.queue.TryPop()
		work, effect := d.h(msg)
		if d.intr {
			work += n.M.Costs.ReceiveInterrupt
		}
		// A crash freezes the processor mid-service: the work resumes
		// after the restart, and its effect — already-acknowledged
		// state — still applies.
		service := n.M.workTime(n.ID, work)
		if d.intr {
			// The interrupt runs on the compute processor: it both
			// occupies this dispatcher (serializing back-to-back requests
			// into hot spots) and steals the time from whatever the
			// application was doing.
			n.CPU.Steal(service)
		}
		d.effect = effect
		n.M.K.At(n.M.K.Now()+service, d.complete)
	}
	d.complete = func() {
		if effect := d.effect; effect != nil {
			d.effect = nil
			effect()
		}
		if d.queue.Len() > 0 {
			d.serve()
		} else {
			d.busy = false
		}
	}
}

// push queues msg and, if the processor is idle, wakes it at the current
// instant.
func (d *dispatcher) push(msg Msg) {
	d.queue.Push(msg)
	if !d.busy {
		d.busy = true
		d.n.M.K.At(d.n.M.K.Now(), d.serve)
	}
}

// arrivalTime computes when a payload of size bytes sent now arrives at
// node to. When ordered, the per-(src,dst) FIFO clamp is applied and
// recorded; unordered copies (fault-delayed or duplicate transmissions)
// may overtake earlier traffic on the same wire.
func (n *Node) arrivalTime(to, size int, ordered bool) sim.Time {
	var at sim.Time
	if ms := n.M.mesh; ms != nil && n.ID != to {
		// Software latency covers injection; the mesh model adds hop
		// delay and link contention for the payload.
		bw := n.M.Costs.BandwidthMBs * 1e6
		tx := sim.Time(float64(size+n.M.Costs.MsgHeader) / bw * float64(sim.Second))
		at = ms.deliver(n.M.K.Now()+n.M.Costs.MsgLatency, n.ID, to, tx)
	} else {
		at = n.M.K.Now() + n.M.Costs.Wire(size)
	}
	if !ordered {
		return at
	}
	row := n.M.lastArrival[n.ID]
	if row == nil {
		row = make([]sim.Time, len(n.M.Nodes))
		n.M.lastArrival[n.ID] = row
	}
	if prev := row[to]; at <= prev {
		at = prev + 1
	}
	row[to] = at
	return at
}

// receive hands a message delivered at n to port when it answers a Call,
// otherwise to the targeted dispatcher queue. Every enqueued message is an
// unsolicited request this node must service (answers bypass the
// dispatchers), so this is where the hot-spot metric MsgsIn is counted.
func (n *Node) receive(port *Reply, msg Msg) {
	if port != nil {
		port.deliver(msg)
		return
	}
	n.Stats.MsgsIn++
	switch msg.Target {
	case ToCompute:
		n.compute.push(msg)
	case ToCoproc:
		n.coproc.push(msg)
	}
}

// Send transmits msg from this node. Delivery is scheduled after the wire
// time (FIFO per source/destination pair); the receiving dispatcher then
// serializes service.
func (n *Node) Send(to int, msg Msg) {
	msg.From = n.ID
	if fl := n.M.faults; fl != nil && to != n.ID {
		fl.send(n, to, msg, nil)
		return
	}
	n.Stats.Sent(msg.Class, msg.Size+n.M.Costs.MsgHeader)
	n.post(to, nil, msg)
}

// Call sends a request and blocks p on the node's reply port until the
// first answer to this request arrives. The requester polls for its
// reply, so no receive interrupt is charged on this node. Only one proc
// per node may call: a Call while another waits on the port panics.
func (n *Node) Call(p *sim.Proc, to int, msg Msg) Msg {
	r := &n.reply
	if r.waiter != nil {
		panic(fmt.Sprintf("paragon: node %d: Call from %s while %s waits on the node's reply port",
			n.ID, p.Name(), r.waiter.Name()))
	}
	r.gen++
	r.got, r.waiter = false, p
	msg.Reply, msg.gen = r, r.gen
	n.Send(to, msg)
	for !r.got {
		p.Park("recv reply")
	}
	resp := r.msg
	r.msg, r.waiter = Msg{}, nil
	return resp
}

// Respond sends resp as the answer to req. It may be called from handler
// effects or proc code on the node that received req. Replies cross the
// same modeled network as requests — hop latency, link contention, and
// the per-(src,dst) FIFO order all apply on the way back.
func (n *Node) Respond(req Msg, resp Msg) {
	port := req.Reply
	if port == nil {
		panic("paragon: Respond to a message with no reply port")
	}
	resp.From, resp.gen = n.ID, req.gen
	to := port.owner
	if fl := n.M.faults; fl != nil && to != n.ID {
		fl.send(n, to, resp, port)
		return
	}
	n.Stats.Sent(resp.Class, resp.Size+n.M.Costs.MsgHeader)
	n.post(to, port, resp)
}

// InjectCoproc queues a message on the local co-processor from a handler
// effect (no proc context to charge).
func (n *Node) InjectCoproc(msg Msg) {
	msg.From = n.ID
	n.coproc.push(msg)
}

// CPU models the compute processor as seen by the application process:
// application work is charged through Use, and interrupt service steals
// time by extending whatever Use is in progress.
type CPU struct {
	node   *Node
	proc   *sim.Proc
	busy   bool
	stolen sim.Time
}

// Bind associates the application process with this CPU.
func (c *CPU) Bind(p *sim.Proc) { c.proc = p }

// Use charges d of processor time to category cat on behalf of p. If
// interrupts steal time while the work is in progress, the work is
// extended and the stolen time is accounted as protocol overhead.
func (c *CPU) Use(p *sim.Proc, d sim.Time, cat stats.Category) {
	d = c.node.M.workTime(c.node.ID, d)
	c.busy = true
	p.Sleep(d)
	c.node.Stats.Add(cat, d)
	for c.stolen > 0 {
		d = c.stolen
		c.stolen = 0
		p.Sleep(d)
		c.node.Stats.Add(stats.CatProtocol, d)
	}
	c.busy = false
}

// Steal records that an interrupt consumed d of compute-processor time.
// If the application is mid-Use the work is extended; if it is blocked
// (waiting on a reply or synchronization) the service overlaps the wait
// and costs the application nothing extra.
func (c *CPU) Steal(d sim.Time) {
	if c.busy {
		c.stolen += d
	}
}
