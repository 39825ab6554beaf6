package core

import (
	"fmt"
	"math"

	"gosvm/internal/fault"
	"gosvm/internal/mem"
	"gosvm/internal/paragon"
	"gosvm/internal/sim"
	"gosvm/internal/slab"
	"gosvm/internal/stats"
	"gosvm/internal/trace"
)

// App is a Splash-2-style application: sequential setup and
// initialization by processor 0, a parallel worker body, and a gather
// phase that collects results (used for validation).
type App interface {
	Name() string
	// Setup allocates shared memory. It must not write data.
	Setup(s *Setup)
	// Init fills initial data and may direct home placement. It models
	// the paper's "one process allocates and initializes global data";
	// it runs before the timed parallel phase.
	Init(w *Init)
	// Worker is the parallel body, run on every processor. Workers must
	// finish with a barrier so all updates are flushed.
	Worker(c *Ctx, id int)
	// Gather reads back the results through the SVM (on processor 0,
	// after all workers complete).
	Gather(c *Ctx) []float64
}

// Setup is the allocation-phase view of the system.
type Setup struct {
	Space *mem.Space
	P     int // number of processors for this run
}

// Alloc reserves n words of shared memory (page-aligned).
func (s *Setup) Alloc(n int) mem.Addr { return s.Space.Alloc(n) }

// AllocUnaligned reserves n words without page alignment.
func (s *Setup) AllocUnaligned(n int) mem.Addr { return s.Space.AllocUnaligned(n) }

// Init is the initialization-phase view: direct writes into the staging
// image plus home placement directives.
type Init struct {
	sys *System
	P   int
}

// Store writes one word of initial data.
func (w *Init) Store(a mem.Addr, v float64) { w.sys.staging[a] = v }

// StoreI writes an integer (must be exactly representable in float64).
func (w *Init) StoreI(a mem.Addr, v int64) { w.sys.staging[a] = float64(v) }

// Load reads back initial data (for init-time computation).
func (w *Init) Load(a mem.Addr) float64 { return w.sys.staging[a] }

// SetHome assigns the pages covering [a, a+words) to the given node: the
// paper's "homes chosen intelligently" (application-directed placement).
// Under the homeless protocols the same placement seeds the initial page
// copies. Ignored when Options.HomeRoundRobin is set.
func (w *Init) SetHome(a mem.Addr, words int, node int) {
	if w.sys.Opts.HomeRoundRobin {
		return
	}
	first := w.sys.Space.PageOf(a)
	last := w.sys.Space.PageOf(a + mem.Addr(words) - 1)
	for pg := first; pg <= last; pg++ {
		w.sys.homes[pg] = node % w.P
	}
}

// System is one configured simulation: machine, address space, page
// tables, and per-node protocol engines.
type System struct {
	K     *sim.Kernel
	M     *paragon.Machine
	Space *mem.Space
	Opts  Options

	Tables  []*mem.Table
	Engines []Engine

	homes     []int // per page
	staging   []float64
	appProcs  []*sim.Proc
	homeBased bool
	// pageBits backs every node's page sets (pageSets), and arrivals every
	// node's barrier arrivals (barrierNode.init).
	pageBits []uint64
	arrivals []arrival

	// pool recycles the page frames and diffRecs the HLRC diff records
	// (diffFlush) of every node: one free list of each per simulation, so
	// frames flowing from homes to readers and records flowing from writers
	// to homes come back to whichever node needs one next. A list never
	// holds more than were out of it at once.
	pool     *mem.Pool
	diffRecs slab.Free[*diffFlush]

	// traceLog, when non-nil, captures protocol events. untraced[i] is set
	// once node i's statistics are snapshotted: from then on its events
	// still count but are no longer traced, so the trace spans exactly what
	// the reported counters do.
	traceLog *trace.Log
	untraced []bool

	// onBarrier is invoked (scheduler context) after each completed
	// barrier episode, for phase capture.
	onBarrier func()
}

// Result is the outcome of a run.
type Result struct {
	Stats *stats.Run
	// Data is the result image collected by App.Gather on processor 0.
	Data []float64
	// Phases are per-barrier-episode stat deltas when phase capture is on.
	Phases []stats.Phase
	// Trace is the protocol event log when Options.TraceLimit is set.
	Trace *trace.Log
}

// checkPlan rejects a fault plan with a value that means nothing on any
// machine, or a crash of a node the machine of n nodes lacks. A slowdown or
// target may name a node past n: the presets name fixed nodes, and on a
// smaller machine such an entry never applies. (A NaN fails every
// comparison, so each check is written to fail it.)
func checkPlan(p *fault.Plan, n int) error {
	for _, c := range p.Crashes {
		if c.Node < 0 || c.Node >= n {
			return fmt.Errorf("core: crash of node %d outside Machine.Nodes=%d", c.Node, n)
		}
		if c.At <= 0 || c.RestartAt <= c.At {
			return fmt.Errorf("core: crash of node %d has invalid schedule [%v, %v)", c.Node, c.At, c.RestartAt)
		}
	}
	for _, s := range p.Slowdowns {
		if s.Node < 0 || s.To <= s.From || !(s.Factor >= 1 && s.Factor < math.Inf(1)) {
			return fmt.Errorf("core: slowdown of node %d by %g over [%v, %v) needs a node, a non-empty window and a finite factor >= 1", s.Node, s.Factor, s.From, s.To)
		}
	}
	for _, tg := range p.Targets {
		if tg.From < fault.AnyNode || tg.To < fault.AnyNode || tg.Nth < 0 {
			return fmt.Errorf("core: fault target %d->%d (Nth %d) needs nodes >= %d and Nth >= 0", tg.From, tg.To, tg.Nth, fault.AnyNode)
		}
	}
	for i, v := range [...]float64{p.Drop, p.Duplicate, p.Delay, p.Reorder} {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("core: fault %s probability %g is outside [0, 1]", [...]string{"Drop", "Duplicate", "Delay", "Reorder"}[i], v)
		}
	}
	if p.MaxDelay < 0 {
		return fmt.Errorf("core: fault MaxDelay %v is negative", p.MaxDelay)
	}
	return nil
}

// Run executes app under opts and returns the gathered results and
// statistics.
func Run(opts Options, app App, capturePhases bool) (*Result, error) {
	opts.Defaults()
	if err := opts.Machine.Validate(); err != nil {
		return nil, err
	}
	if opts.PageBytes <= 0 || opts.PageBytes%8 != 0 {
		return nil, fmt.Errorf("core: PageBytes=%d is not a positive multiple of 8", opts.PageBytes)
	}
	if opts.GCThreshold < 0 {
		return nil, fmt.Errorf("core: GCThreshold=%d is negative", opts.GCThreshold)
	}
	n := opts.Machine.Nodes
	if opts.Protocol == ProtoSeq && n != 1 {
		return nil, fmt.Errorf("core: sequential runs require Machine.Nodes=1, got %d", n)
	}
	if err := checkPlan(&opts.Fault, n); err != nil {
		return nil, err
	}

	k := sim.NewKernel()
	// One exit for the success, error and panic paths alike: whatever
	// procs are still parked when Run leaves are unwound, not leaked.
	defer k.Shutdown()
	machine := paragon.New(k, n, opts.Machine.Costs)
	if opts.Machine.Topology == TopoMesh {
		machine.EnableMesh(0)
	}
	var inj *fault.Injector
	if opts.Fault.Active() {
		inj = fault.NewInjector(opts.Fault)
		inj.KindName = msgKindName
		machine.EnableFaults(inj)
	}
	space := mem.NewSpace(opts.PageBytes)
	sys := &System{
		K:         k,
		M:         machine,
		Space:     space,
		Opts:      opts,
		homeBased: opts.Protocol.HomeBased() || opts.Protocol == ProtoSeq,
		pool:      mem.NewPool(space.PageWords),
	}
	if opts.TraceLimit != 0 {
		limit := opts.TraceLimit
		if limit < 0 {
			limit = 0
		}
		sys.traceLog = trace.NewLog(limit)
		sys.untraced = make([]bool, n)
	}

	// Phase 1: allocation.
	app.Setup(&Setup{Space: space, P: n})
	npages := space.NumPages()
	if npages == 0 {
		return nil, fmt.Errorf("core: app %q allocated no shared memory", app.Name())
	}

	// Phase 2: initialization into the staging image, with default
	// round-robin home placement that the app may override.
	sys.staging = make([]float64, npages*space.PageWords)
	sys.homes = make([]int, npages)
	for pg := range sys.homes {
		sys.homes[pg] = pg % n
	}
	app.Init(&Init{sys: sys, P: n})

	// Phase 3: page tables and engines.
	// Page tables and protocol state materialize lazily on first touch
	// (slab.Chunks, stable entry pointers): at 1024 nodes each node
	// references only its sliver of the address space, and allocating
	// n_nodes * n_pages entries eagerly would dominate host memory.
	sys.Tables = make([]*mem.Table, n)
	for i := range sys.Tables {
		sys.Tables[i] = mem.NewTable(space)
	}
	sys.Engines = make([]Engine, n)
	for i := range sys.Engines {
		switch opts.Protocol {
		case ProtoSeq:
			sys.Engines[i] = newSeqEngine(sys, i)
		case ProtoLRC, ProtoOLRC:
			sys.Engines[i] = newLRCEngine(sys, i)
		case ProtoHLRC, ProtoOHLRC:
			sys.Engines[i] = newHLRCEngine(sys, i)
		default:
			return nil, fmt.Errorf("core: unknown protocol %q", opts.Protocol)
		}
	}

	// Phase 4: the staging image, clipped page by page, is the homes' first copy.
	for pg, w := 0, space.PageWords; pg < npages; pg++ {
		owner := sys.homes[pg]
		p := sys.Tables[owner].Page(pg)
		p.Data = sys.staging[pg*w : (pg+1)*w : (pg+1)*w]
		p.State = mem.ReadOnly
		if opts.Protocol == ProtoSeq {
			p.State = mem.ReadWrite
		}
		machine.Nodes[owner].Stats.AppMem += int64(space.PageBytes())
	}
	sys.staging = nil

	// Phase capture.
	var phases []stats.Phase
	var lastSnap []stats.Node
	if capturePhases {
		lastSnap = make([]stats.Node, n)
		sys.onBarrier = func() {
			ph := stats.Phase{Barrier: len(phases) + 1, PerNode: make([]stats.Node, n)}
			for i, nd := range machine.Nodes {
				snap := nd.Stats.Snapshot()
				ph.PerNode[i] = snap.Sub(lastSnap[i])
				lastSnap[i] = snap
			}
			phases = append(phases, ph)
		}
	}

	// Phase 5: run workers.
	sys.appProcs = make([]*sim.Proc, n)
	perProcEnd := make([]sim.Time, n)
	endStats := make([]stats.Node, n)
	var gathered []float64
	for i := 0; i < n; i++ {
		i := i
		sys.appProcs[i] = k.Spawn(fmt.Sprintf("app%d", i), 0, func(p *sim.Proc) {
			machine.Nodes[i].CPU.Bind(p)
			c := newCtx(sys, i, p)
			app.Worker(c, i)
			perProcEnd[i] = p.Now()
			// Snapshot before the (untimed) gather phase so reported
			// statistics cover exactly the parallel execution.
			endStats[i] = machine.Nodes[i].Stats.Snapshot()
			if sys.traceLog != nil {
				sys.untraced[i] = true
			}
			if i == 0 {
				gathered = app.Gather(c)
			}
			sys.Engines[i].Finish()
		})
	}
	if err := k.Run(); err != nil {
		if inj != nil {
			// Attribute the hang to any permanently lost messages before
			// surfacing it.
			err = inj.Diagnose(err)
		}
		return nil, fmt.Errorf("core: %s/%s: %w", app.Name(), opts.Protocol, err)
	}

	var elapsed sim.Time
	for _, t := range perProcEnd {
		if t > elapsed {
			elapsed = t
		}
	}
	run := &stats.Run{
		Protocol: string(opts.Protocol),
		App:      app.Name(),
		Elapsed:  elapsed,
	}
	for i := range endStats {
		nd := endStats[i]
		run.Nodes = append(run.Nodes, &nd)
	}
	return &Result{Stats: run, Data: gathered, Phases: phases, Trace: sys.traceLog}, nil
}
