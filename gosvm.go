// Package gosvm is a shared virtual memory (SVM) system implementing the
// four lazy release consistency protocols of Zhou, Iftode & Li,
// "Performance Evaluation of Two Home-Based Lazy Release Consistency
// Protocols for Shared Virtual Memory Systems" (OSDI 1996): standard
// homeless LRC, Home-based LRC (HLRC), and their overlapped variants OLRC
// and OHLRC that offload protocol work onto a per-node communication
// co-processor.
//
// The protocols run on a deterministic discrete-event model of the
// paper's hardware (a 64-node Intel Paragon): page faults, twins, diffs,
// vector timestamps, lock and barrier management, message latency and
// bandwidth, and the dominant receive-interrupt cost are all simulated
// with the paper's measured constants, while shared data is real — every
// program computes its actual result through the coherence protocol, so
// runs are verifiable against sequential execution.
//
// # Programming model
//
// Applications implement the App interface (the Splash-2 model: one
// process initializes, all processes compute) and access shared memory
// through a Ctx: Load/Store/ReadRange/WriteRange for data,
// Lock/Unlock/Barrier for synchronization, Compute to charge modeled
// computation time. See examples/quickstart for a complete program.
package gosvm

import (
	"gosvm/internal/core"
	"gosvm/internal/fault"
	"gosvm/internal/mem"
	"gosvm/internal/paragon"
	"gosvm/internal/serve"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
	"gosvm/internal/trace"
)

// Protocol identifies one of the simulated coherence protocols.
// Use ParseProtocol to validate external input (flags, config).
type Protocol = core.Protocol

// Protocol names.
const (
	// Seq runs the application sequentially with no coherence protocol:
	// the baseline for speedups.
	Seq = core.ProtoSeq
	// LRC is the standard homeless lazy release consistency protocol
	// (TreadMarks-style).
	LRC = core.ProtoLRC
	// OLRC is LRC with diff creation and remote request service
	// overlapped on the communication co-processor.
	OLRC = core.ProtoOLRC
	// HLRC is the paper's home-based LRC: updates flow as diffs to a
	// per-page home and whole pages are fetched from it.
	HLRC = core.ProtoHLRC
	// OHLRC is HLRC with diff creation, application, and page service
	// overlapped on the communication co-processors.
	OHLRC = core.ProtoOHLRC
)

// Protocols lists the four SVM protocols in the paper's order.
var Protocols = core.Protocols

// ParseProtocol validates a protocol name, accepting exactly the names
// of the exported Protocol constants.
func ParseProtocol(s string) (Protocol, error) { return core.ParseProtocol(s) }

// Re-exported building blocks. The aliases make the internal packages'
// types part of the public API without duplicating them.
type (
	// Options configures a run: protocol, machine size, page size, cost
	// model, and protocol tuning knobs.
	Options = core.Options
	// App is a Splash-2-style application.
	App = core.App
	// Ctx is the per-processor shared-memory programming interface.
	Ctx = core.Ctx
	// Setup is the allocation phase passed to App.Setup.
	Setup = core.Setup
	// Init is the initialization phase passed to App.Init.
	Init = core.Init
	// Result carries the gathered output data and run statistics.
	Result = core.Result
	// Addr is a word address in the shared address space.
	Addr = mem.Addr
	// Time is simulated time in nanoseconds.
	Time = sim.Time
	// Costs is the machine cost model (the paper's Table 3).
	Costs = paragon.Costs
	// Machine describes the simulated multicomputer independently of the
	// protocol: size, topology, and cost profile. Set it as
	// Options.Machine.
	Machine = core.Machine
	// Topology selects the network model (TopoCrossbar or TopoMesh).
	Topology = core.Topology
	// RunStats aggregates per-node statistics for a run.
	RunStats = stats.Run
	// NodeStats holds one node's time breakdown, counters, traffic, and
	// memory accounting.
	NodeStats = stats.Node
	// TraceLog is the protocol event log captured when
	// Options.TraceLimit is set (see Result.Trace).
	TraceLog = trace.Log
	// TraceEvent is one protocol event in a TraceLog.
	TraceEvent = trace.Event
	// FaultPlan is a deterministic per-run fault schedule (see
	// Options.Fault). The reliability layer that recovers from it runs a
	// fixed retransmission schedule: 2 ms first timeout, doubled per
	// retry, capped at 50 ms, give-up after 10 attempts.
	FaultPlan = fault.Plan
	// FaultTarget is a targeted fault: drop transmissions of one message
	// kind on one edge (FaultPlan.Targets).
	FaultTarget = fault.Target
	// FaultSlowdown is a per-node compute slowdown window
	// (FaultPlan.Slowdowns).
	FaultSlowdown = fault.Slowdown
	// Crash schedules one node outage: the node stops servicing messages
	// and freezes computation at At, and restarts at RestartAt, which must
	// come after At. The node keeps all its state, and requests to any
	// role it holds — page home, lock or barrier manager — wait out the
	// outage in retransmission, under every protocol. See
	// FaultPlan.Crashes.
	Crash = fault.Crash
	// ServeConfig parameterizes the open-loop request-serving workload:
	// key-value store shape (keys, op mix, Zipf skew), Poisson offered
	// load and window, and seed. Every store serves through striped
	// per-key locks and seqlock-validated lock-free reads. See Serve and
	// NewServeApp.
	ServeConfig = serve.Config
	// ServeApp is the serving workload as an App, with access to its
	// request traces, trace-derived expected store contents, and the
	// post-run serve statistics. Build one with NewServeApp.
	ServeApp = serve.KV
	// ServeStats is the serving workload's result block: offered vs.
	// achieved throughput, tail-latency histogram, and saturation
	// detection (RunStats.Serve).
	ServeStats = stats.ServeStats
	// LatencyHist is the HDR-style log-bucketed latency histogram behind
	// ServeStats.Latency.
	LatencyHist = stats.Hist
)

// Structured errors. Use errors.As to detect them under the wrapping
// applied by Run.
type (
	// DeadlockError reports a simulation deadlock: every unfinished
	// process is blocked. Its Blocked field lists who waits on what.
	DeadlockError = sim.DeadlockError
	// HangError wraps a DeadlockError when fault injection permanently
	// lost messages, listing the lost messages that explain the hang.
	HangError = fault.HangError
)

// Fault profile names accepted by FaultProfile.
const (
	FaultNone    = fault.ProfileNone
	FaultLossy   = fault.ProfileLossy
	FaultHostile = fault.ProfileHostile
	FaultCrash   = fault.ProfileCrash
)

// FaultProfiles lists the built-in fault profiles.
var FaultProfiles = fault.Profiles

// FaultProfile returns a named preset fault plan ("none", "lossy",
// "hostile", "crash", "crash-mgr"; see FaultProfiles) seeded with seed.
func FaultProfile(name string, seed int64) (FaultPlan, error) {
	return fault.Profile(name, seed)
}

// Topology names.
const (
	// TopoCrossbar is the default network model: every node pair has an
	// independent latency/bandwidth wire.
	TopoCrossbar = core.TopoCrossbar
	// TopoMesh models the Paragon's 2-D wormhole mesh at link
	// granularity (XY routing, per-hop latency, per-link occupancy).
	TopoMesh = core.TopoMesh
)

// BarrierCrossover is the largest machine whose barrier is the paper's
// centralized one, every node reporting straight to the manager. Above it
// the barrier tree has fan-in 8: each node reports its subtree to its
// parent, and each release is the answer to that report.
const BarrierCrossover = core.BarrierCrossover

// ParseTopology validates a topology name.
func ParseTopology(s string) (Topology, error) { return core.ParseTopology(s) }

// Time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Time breakdown categories (indexes into NodeStats.Time), matching the
// stacked bars of the paper's Figure 3.
const (
	CatCompute  = stats.CatCompute
	CatData     = stats.CatData
	CatGC       = stats.CatGC
	CatLock     = stats.CatLock
	CatBarrier  = stats.CatBarrier
	CatProtocol = stats.CatProtocol
)

// Traffic classes (indexes into NodeStats.Bytes and MsgsOut).
const (
	ClassData     = stats.ClassData
	ClassProtocol = stats.ClassProtocol
)

// DefaultCosts returns the reconstructed Paragon cost model.
func DefaultCosts() Costs { return paragon.DefaultCosts() }

// ModernCosts returns a cost profile resembling a contemporary cluster
// (microsecond messaging, ~10us handler costs); see paragon.ModernCosts.
func ModernCosts() Costs { return paragon.ModernCosts() }

// CostProfiles lists the built-in cost profile names for CostProfile.
var CostProfiles = paragon.CostProfiles

// CostProfile returns a named built-in cost model: "paragon" (default)
// or "modern".
func CostProfile(name string) (Costs, error) { return paragon.CostProfile(name) }

// Run executes app under opts and returns its results and statistics.
func Run(opts Options, app App) (*Result, error) {
	return core.Run(opts, app, false)
}

// RunWithPhases is Run with per-barrier-episode statistics capture
// (the instrumentation behind the paper's Figure 4).
func RunWithPhases(opts Options, app App) (*Result, error) {
	return core.Run(opts, app, true)
}

// NewServeApp builds the open-loop serving workload for a machine of
// the given size: a key-value store sharded over SVM pages plus the
// per-node seeded client traces that drive it. The traces depend only
// on (cfg, procs) — never the protocol, fault plan, or host — so every
// protocol serves the identical request stream. Instances are
// single-run; call ServeApp.Stats after the run for the latency block,
// or use Serve, which wires everything together.
func NewServeApp(cfg ServeConfig, procs int) (*ServeApp, error) {
	return serve.New(cfg, procs)
}

// Serve runs the open-loop serving workload under opts: it builds the
// workload for opts' machine size, serves the trace through the
// configured protocol, validates the final store contents against the
// trace-derived expectation, and attaches the tail-latency /
// throughput / saturation block to Result.Stats.Serve (also emitted by
// RunStats.WriteJSON as the "serve" object).
func Serve(opts Options, cfg ServeConfig) (*Result, error) {
	opts.Defaults()
	kv, err := serve.New(cfg, opts.Machine.Nodes)
	if err != nil {
		return nil, err
	}
	return serve.Run(opts, kv)
}

// Sequential measures the sequential execution of app: the speedup
// baseline. The page size only affects layout, not timing.
func Sequential(app App, pageBytes int) (*Result, error) {
	return core.Run(Options{Protocol: Seq, Machine: Machine{Nodes: 1}, PageBytes: pageBytes}, app, false)
}

// Speedup runs app sequentially and in parallel and returns the ratio of
// simulated execution times, along with both results. The sequential
// baseline uses the same cost model as the parallel run — comparing
// runs under different Costs would make the ratio meaningless.
func Speedup(opts Options, mk func() App) (float64, *Result, *Result, error) {
	seq, err := core.Run(Options{
		Protocol:  Seq,
		PageBytes: opts.PageBytes,
		Machine:   Machine{Nodes: 1, Costs: opts.Machine.Costs},
	}, mk(), false)
	if err != nil {
		return 0, nil, nil, err
	}
	par, err := Run(opts, mk())
	if err != nil {
		return 0, seq, nil, err
	}
	return float64(seq.Stats.Elapsed) / float64(par.Stats.Elapsed), seq, par, nil
}
