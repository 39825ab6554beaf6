package main

import (
	"fmt"
	"math"

	"gosvm/internal/apps"
	"gosvm/internal/core"
	"gosvm/internal/fault"
	"gosvm/internal/serve"
	"gosvm/internal/sim"
)

// Every cell runs the paper's configuration: 8 KB pages, Paragon costs
// (the zero Machine.Costs) and an 8 MB garbage-collection threshold.
const (
	pageBytes   = 8192
	gcThreshold = 8 << 20
)

// scale selects the problem sizes. full is what BENCHMARK.json measures;
// tiny keeps every workload's shape but finishes in milliseconds, for
// harness_test.go.
type scale string

const (
	scaleFull scale = "full"
	scaleTiny scale = "tiny"
)

// cellSpec describes one simulation of a workload: a batch application
// under one protocol, or one fixed-rate rung of the serving ladder.
type cellSpec struct {
	name string
	opts core.Options

	// Batch cells. ref keys the sequential baseline the output is checked
	// against (cells with the same ref share one); tol is the relative
	// tolerance of that check, zero meaning bitwise.
	mk  func() core.App
	ref string
	tol float64

	// Serving rungs (mk == nil).
	kv serve.Config
}

func (s *cellSpec) serving() bool { return s.mk == nil }

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string
	// p99Limit, when non-zero, marks a serving workload and is the
	// latency limit a rung must meet to count as sustained.
	p99Limit sim.Time
	// minProcs is the smallest GOMAXPROCS the workload is meaningful at.
	minProcs int
	specs    func(sc scale, seed int64) ([]cellSpec, error)
}

var workloads = []workload{
	{
		name:  "home_batch",
		why:   "Table 2 home-based columns: {HLRC,OHLRC} x 5 apps, 32 nodes, crossbar; app loop + software MMU bound, near-zero diffs on LU/SOR",
		specs: homeBatch,
	},
	{
		name:  "homeless_batch",
		why:   "same apps through lrc.go ({LRC,OLRC} x sor, water-nsq, water-sp, raytrace): lazy diffs, TopoSort, write-notice growth; must not move home_batch",
		specs: homelessBatch,
	},
	{
		name:  "fault_matrix",
		why:   "message-bound: hostile profile on the 2-D mesh x 4 protocols, then crash-mgr x {HLRC,OHLRC} with 1 replica; only workload on the sequential-fallback kernel",
		specs: faultMatrix,
	},
	{
		name:     "scale_parallel",
		why:      "paper-grid SOR on 256 nodes under all four protocols, RunWorkers 2: partitioned kernel, tree barrier, sparse clocks; allocation-heavy",
		minProcs: 2,
		specs:    scaleParallel,
	},
	{
		name:     "serve_read",
		why:      "open-loop KV, 64 nodes, OHLRC, Zipf 0.99, 90/5/5 get/put/scan at five fixed rates: seqlock reads and the fetch path dominate",
		p99Limit: 10 * sim.Millisecond,
		specs:    func(sc scale, seed int64) ([]cellSpec, error) { return serveLadder(sc, seed, true), nil },
	},
	{
		name:     "serve_write",
		why:      "same store, 45/50/5 mix at five lower fixed rates: every put locks, twins, diffs and flushes to the home",
		p99Limit: 25 * sim.Millisecond,
		specs:    func(sc scale, seed int64) ([]cellSpec, error) { return serveLadder(sc, seed, false), nil },
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func cellOpts(proto core.Protocol, m core.Machine) core.Options {
	return core.Options{Protocol: proto, PageBytes: pageBytes, GCThreshold: gcThreshold, Machine: m}
}

// batchNodes is the machine size of the batch and fault workloads.
func batchNodes(sc scale) int {
	if sc == scaleTiny {
		return 8
	}
	return 32
}

// benchApp builds a batch application. The full scale keeps the paper's
// data layout (grid, molecule count, block size) and cuts iterations or
// steps — or, for LU, the matrix — so that one pass over a workload's
// cells takes about two seconds and a run can repeat it.
func benchApp(name string, sc scale) func() core.App {
	if sc == scaleTiny {
		return func() core.App { return mustApp(name, apps.SizeTest) }
	}
	switch name {
	case "lu":
		return func() core.App { a := apps.NewLU(apps.SizePaper); a.N = 768; return a }
	case "sor":
		return func() core.App { a := apps.NewSOR(apps.SizePaper, false); a.Iters = 3; return a }
	case "water-nsq":
		return func() core.App { a := apps.NewWaterNsq(apps.SizePaper); a.N, a.Steps = 2048, 1; return a }
	case "water-sp":
		return func() core.App { a := apps.NewWaterSp(apps.SizePaper); a.N, a.Steps = 1024, 1; return a }
	case "raytrace":
		return func() core.App { return apps.NewRaytrace(apps.SizeSmall) }
	}
	panic("benchmark: no bench size for app " + name)
}

func mustApp(name string, size apps.Size) core.App {
	a, err := apps.New(name, size)
	if err != nil {
		panic(err) // names come from the tables in this file
	}
	return a
}

// waterTol is the tolerance the repo's own tests use for the two water
// codes, whose lock-ordered force reductions are timing-dependent.
func waterTol(app string) float64 {
	if app == "water-nsq" || app == "water-sp" {
		return 1e-9
	}
	return 0
}

func batchCells(sc scale, protos []core.Protocol, appNames []string) []cellSpec {
	m := core.Machine{Nodes: batchNodes(sc), Topology: core.TopoCrossbar}
	var cells []cellSpec
	for _, p := range protos {
		for _, a := range appNames {
			cells = append(cells, cellSpec{
				name: fmt.Sprintf("%s/%s", p, a),
				opts: cellOpts(p, m),
				mk:   benchApp(a, sc),
				ref:  a,
				tol:  waterTol(a),
			})
		}
	}
	return cells
}

func homeBatch(sc scale, _ int64) ([]cellSpec, error) {
	return batchCells(sc, []core.Protocol{core.ProtoHLRC, core.ProtoOHLRC}, apps.Names), nil
}

func homelessBatch(sc scale, _ int64) ([]cellSpec, error) {
	return batchCells(sc, []core.Protocol{core.ProtoLRC, core.ProtoOLRC},
		[]string{"sor", "water-nsq", "water-sp", "raytrace"}), nil
}

// faultMatrix runs the repo's small problem size: app compute is
// negligible there and the reliable transport, injector, mesh links and
// recovery code do the work.
func faultMatrix(sc scale, seed int64) ([]cellSpec, error) {
	size := apps.SizeSmall
	hostileApps := []string{"sor", "water-nsq", "water-sp"}
	crashApps := []string{"water-nsq", "water-sp", "raytrace"}
	if sc == scaleTiny {
		size = apps.SizeTest
		hostileApps, crashApps = []string{"sor"}, []string{"raytrace"}
	}
	hostile, err := fault.Profile(fault.ProfileHostile, seed)
	if err != nil {
		return nil, err
	}
	crash, err := fault.Profile(fault.ProfileCrashMgr, seed)
	if err != nil {
		return nil, err
	}
	nodes := batchNodes(sc) / 2
	var cells []cellSpec
	add := func(profile string, plan fault.Plan, topo core.Topology, replicas int, protos []core.Protocol, names []string) {
		for _, p := range protos {
			for _, a := range names {
				o := cellOpts(p, core.Machine{Nodes: nodes, Topology: topo})
				o.Fault = plan
				o.Recovery = core.Recovery{Replicas: replicas}
				cells = append(cells, cellSpec{
					name: fmt.Sprintf("%s/%s/%s", profile, p, a),
					opts: o,
					mk:   func() core.App { return mustApp(a, size) },
					ref:  a,
					tol:  waterTol(a),
				})
			}
		}
	}
	add(fault.ProfileHostile, hostile, core.TopoMesh, 0, core.Protocols, hostileApps)
	add(fault.ProfileCrashMgr, crash, core.TopoCrossbar, 1,
		[]core.Protocol{core.ProtoHLRC, core.ProtoOHLRC}, crashApps)
	return cells, nil
}

func scaleParallel(sc scale, _ int64) ([]cellSpec, error) {
	nodes := 256
	mk := func() core.App { a := apps.NewSOR(apps.SizePaper, false); a.Iters = 3; return a }
	if sc == scaleTiny {
		nodes = 16
		mk = func() core.App { return mustApp("sor", apps.SizeTest) }
	}
	var cells []cellSpec
	for _, p := range []core.Protocol{core.ProtoHLRC, core.ProtoOHLRC, core.ProtoLRC, core.ProtoOLRC} {
		o := cellOpts(p, core.Machine{Nodes: nodes, Topology: core.TopoCrossbar})
		o.RunWorkers = 2
		cells = append(cells, cellSpec{name: fmt.Sprintf("%s/sor-p%d", p, nodes), opts: o, mk: mk, ref: "sor"})
	}
	return cells, nil
}

// serveLadder is the open-loop serving workload at five fixed offered
// rates. Arrivals are on the simulated clock and latency is completion
// minus the scheduled arrival, so the generator is never late.
func serveLadder(sc scale, seed int64, readMostly bool) []cellSpec {
	nodes, keys := 64, 16384
	window := 240 * sim.Millisecond
	rates := []float64{30e3, 45e3, 60e3, 75e3, 90e3}
	mix := [3]int{90, 5, 5}
	if !readMostly {
		window = 400 * sim.Millisecond
		rates = []float64{6e3, 9e3, 12e3, 15e3, 18e3}
		mix = [3]int{45, 50, 5}
	}
	if sc == scaleTiny {
		nodes, keys, window = 8, 512, 20*sim.Millisecond
		for i := range rates {
			rates[i] /= 8
		}
	}
	var cells []cellSpec
	for i, rate := range rates {
		cells = append(cells, cellSpec{
			name: fmt.Sprintf("ohlrc/%gk", rate/1e3),
			opts: cellOpts(core.ProtoOHLRC, core.Machine{Nodes: nodes, Topology: core.TopoCrossbar}),
			kv: serve.Config{
				Keys:        keys,
				OfferedLoad: rate,
				Window:      window,
				ReadPct:     mix[0],
				WritePct:    mix[1],
				ScanPct:     mix[2],
				ZipfTheta:   0.99,
				// A zero Config.Seed means "default", so keep it non-zero
				// and distinct per rung.
				Seed:     seed*int64(len(rates)) + int64(i) + 1,
				KeyLocks: 8,
				Seqlock:  true,
			},
		})
	}
	return cells
}

// cell is a cellSpec instantiated for one run: applications and serving
// traces are single-use, so every pass prepares a fresh set.
type cell struct {
	spec *cellSpec
	app  core.App
	kv   *serve.KV
}

func prepare(specs []cellSpec) ([]cell, error) {
	cells := make([]cell, len(specs))
	for i := range specs {
		s := &specs[i]
		cells[i].spec = s
		if !s.serving() {
			cells[i].app = s.mk()
			continue
		}
		kv, err := serve.New(s.kv, s.opts.Machine.Nodes)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		cells[i].kv = kv
	}
	return cells, nil
}

func (c *cell) run() (*core.Result, error) {
	if c.kv != nil {
		return serve.Run(c.spec.opts, c.kv)
	}
	return core.Run(c.spec.opts, c.app, false)
}

// baseline is one application's sequential run: the oracle the parallel
// output is checked against and the denominator of its speedup.
type baseline struct {
	data    []float64
	elapsed sim.Time
	hostS   float64
}

// check counts the operations a cell attempted and how many of them
// failed. A batch cell is one operation, failed when the run errored or
// its output differs from the sequential reference. A serving rung
// attempts every generated request: the uncompleted ones fail, and all
// of them fail when the run errored or the final store is wrong.
func (c *cell) check(res *core.Result, runErr error, base *baseline) (attempted, failed int64, err error) {
	if c.kv == nil {
		if runErr != nil {
			return 1, 1, runErr
		}
		if err := compare(base.data, res.Data, c.spec.tol); err != nil {
			return 1, 1, err
		}
		return 1, 0, nil
	}
	attempted = c.kv.Generated()
	if runErr != nil {
		return attempted, attempted, runErr
	}
	if err := c.kv.Validate(res.Data); err != nil {
		return attempted, attempted, err
	}
	return attempted, attempted - res.Stats.Serve.Completed, nil
}

// compare checks got against want word for word when tol is zero, else
// within the relative tolerance.
func compare(want, got []float64, tol float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("result has %d words, reference %d", len(got), len(want))
	}
	for i := range want {
		if tol == 0 {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				return fmt.Errorf("result word %d: want %v, got %v", i, want[i], got[i])
			}
			continue
		}
		d := math.Abs(want[i] - got[i])
		if rel := d / math.Max(1, math.Abs(want[i])); rel > tol || math.IsNaN(rel) {
			return fmt.Errorf("result word %d: want %v, got %v (rel %g)", i, want[i], got[i], rel)
		}
	}
	return nil
}
