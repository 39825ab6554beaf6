package main

import (
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"gosvm/internal/apps"
	"gosvm/internal/core"
	"gosvm/internal/fault"
	"gosvm/internal/mem"
	"gosvm/internal/paragon"
	"gosvm/internal/serve"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
	"gosvm/internal/vc"
)

// The probe suite times each module's public functions from outside, to
// give the per-layer unit costs: host nanoseconds (and heap allocations)
// per simulated event, message, page miss, lock acquire and so on. It is
// independent of the workload, so that a traced run of any workload
// reports the same ladder and a unit cost can be multiplied by that
// workload's own counts.

type prober struct {
	sc     scale
	log    *spanLog
	parent int
	out    map[string]float64
}

// ops scales an iteration count down for the tiny scale.
func (p *prober) ops(full int) int {
	if p.sc == scaleTiny {
		return max(full/100, 4)
	}
	return full
}

// unit runs fn three times and records the fastest: host ns per op under
// name, and heap allocations per op under allocs when it is non-empty.
// fn returns how many operations it performed.
func (p *prober) unit(name, allocs string, fn func() int) {
	s := p.log.begin("probe."+name, name, p.parent)
	defer p.log.end(s)
	ns, al := math.Inf(1), math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		n := fn()
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		ns = math.Min(ns, float64(d.Nanoseconds())/float64(n))
		al = math.Min(al, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	p.out[name] = ns
	if allocs != "" {
		p.out[allocs] = al
	}
}

func mustRun(k *sim.Kernel) {
	if err := k.Run(); err != nil {
		panic("benchmark: probe kernel: " + err.Error())
	}
	k.Shutdown()
}

func runProbes(sc scale, log *spanLog, parent int) map[string]float64 {
	p := &prober{sc: sc, log: log, parent: parent, out: map[string]float64{}}
	p.simProbes()
	p.paragonProbes()
	p.memProbes()
	p.vcProbes()
	p.statsProbes()
	p.coreProbes()
	p.serveProbe()
	p.wholeRunProbes()
	p.out["core.latency_err_pct"] = latencyErrPct()
	return p.out
}

func (p *prober) simProbes() {
	n := p.ops(200000)
	p.unit("sim.event_ns", "", func() int {
		k := sim.NewKernel()
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				k.After(1, tick)
			}
		}
		k.After(1, tick)
		mustRun(k)
		return n
	})
	n = p.ops(50000)
	p.unit("sim.ctx_switch_ns", "", func() int {
		k := sim.NewKernel()
		var pa, pb *sim.Proc
		pa = k.Spawn("a", 0, func(pr *sim.Proc) {
			for i := 0; i < n; i++ {
				pb.Unpark()
				pr.Park("ping")
			}
		})
		pb = k.Spawn("b", 0, func(pr *sim.Proc) {
			for i := 0; i < n; i++ {
				pr.Park("pong")
				pa.Unpark()
			}
		})
		mustRun(k)
		return n
	})
	n = p.ops(100000)
	p.unit("sim.sleep_ns", "", func() int {
		k := sim.NewKernel()
		k.Spawn("sleeper", 0, func(pr *sim.Proc) {
			for i := 0; i < n; i++ {
				pr.Sleep(1)
			}
		})
		mustRun(k)
		return n
	})
	// The partitioned kernel at the shape the protocols give it: 64 lanes,
	// the Paragon's 50 us lookahead, 2 workers, and one event in eight
	// handed to another lane at the window boundary.
	const lanes = 64
	const lookahead = 50 * sim.Microsecond
	per := p.ops(2000)
	p.unit("sim.lane_event_ns", "", func() int {
		k := sim.NewKernel()
		k.Partition(lanes, lookahead, 2)
		var step func(lane, left int) func()
		step = func(lane, left int) func() {
			return func() {
				if left == 0 {
					return
				}
				dst := lane
				if left%8 == 0 {
					dst = (lane + 1) % lanes
				}
				k.Post(lane, dst, k.LaneNow(lane)+lookahead, step(dst, left-1))
			}
		}
		for i := 0; i < lanes; i++ {
			k.Post(i, i, 0, step(i, per))
		}
		mustRun(k)
		return lanes * (per + 1)
	})
}

// callLoop times n request/response round trips between two nodes.
func callLoop(n int, enable func(m *paragon.Machine)) {
	k := sim.NewKernel()
	m := paragon.New(k, 2, paragon.DefaultCosts())
	enable(m)
	m.Nodes[1].InstallCompute(func(msg paragon.Msg) (sim.Time, func()) {
		return 0, func() {
			m.Nodes[1].Respond(msg, paragon.Msg{Kind: 2, Size: 4, Class: stats.ClassProtocol})
		}
	})
	k.Spawn("caller", 0, func(pr *sim.Proc) {
		m.Nodes[0].CPU.Bind(pr)
		for i := 0; i < n; i++ {
			m.Nodes[0].Call(pr, 1, paragon.Msg{Kind: 1, Size: 4, Class: stats.ClassProtocol, Target: paragon.ToCompute})
		}
	})
	mustRun(k)
}

func lossyInjector() *fault.Injector {
	plan, err := fault.Profile(fault.ProfileLossy, 1)
	if err != nil {
		panic(err) // a built-in profile name
	}
	return fault.NewInjector(plan)
}

func (p *prober) paragonProbes() {
	n := p.ops(20000)
	p.unit("paragon.call_ns.crossbar", "paragon.call_allocs.crossbar", func() int {
		callLoop(n, func(*paragon.Machine) {})
		return n
	})
	p.unit("paragon.call_ns.mesh", "", func() int {
		callLoop(n, func(m *paragon.Machine) { m.EnableMesh(0) })
		return n
	})
	p.unit("paragon.call_ns.reliable", "paragon.call_allocs.reliable", func() int {
		callLoop(n, func(m *paragon.Machine) { m.EnableFaults(lossyInjector()) })
		return n
	})
	n = p.ops(1000000)
	p.unit("fault.judge_ns", "", func() int {
		inj := lossyInjector()
		for i := 0; i < n; i++ {
			inj.Judge(0, 1, 1+i&7, i&1 == 0)
		}
		return n
	})
}

// diffPage builds an 8 KB page and its twin with 5 % of the words
// modified in scattered single-word runs.
func diffPage() (twin, cur []float64) {
	const words = pageBytes / 8
	twin = make([]float64, words)
	cur = make([]float64, words)
	for i := range twin {
		twin[i] = float64(i)
		cur[i] = float64(i)
	}
	for i := 0; i < words; i += 20 {
		cur[i] = -float64(i) - 1
	}
	return twin, cur
}

func (p *prober) memProbes() {
	const words = pageBytes / 8
	twin, cur := diffPage()
	pool := mem.NewPool(words)
	n := p.ops(30000)
	p.unit("mem.diff_create_ns", "", func() int {
		for i := 0; i < n; i++ {
			d := mem.ComputeDiffPooled(pool, 0, twin, cur)
			d.Release(pool)
		}
		return n
	})
	p.unit("mem.diff_apply_ns", "", func() int {
		d := mem.ComputeDiffPooled(pool, 0, twin, cur)
		dst := append([]float64(nil), twin...)
		for i := 0; i < n; i++ {
			d.Apply(dst)
		}
		d.Release(pool)
		return n
	})
	p.unit("mem.twin_ns", "", func() int {
		pg := mem.Page{Data: cur}
		for i := 0; i < n; i++ {
			pg.MakeTwin(pool)
			pg.DropTwin(pool)
		}
		return n
	})
	n = p.ops(2000000)
	p.unit("mem.table_page_ns", "", func() int {
		t := mem.NewTable(mem.NewSpace(pageBytes))
		var live int
		for i := 0; i < n; i++ {
			if t.Page(i&4095).State != mem.Invalid {
				live++
			}
		}
		return n + live // live is always 0: pages start Invalid
	})
}

func (p *prober) vcProbes() {
	// 1024-node clocks with 32 active writers each, half of them shared.
	const dims, active = 1024, 32
	a, b := vc.NewSparse(dims), vc.NewSparse(dims)
	for i := 0; i < active; i++ {
		a.Set(i*16, int32(i+1))
		b.Set(i*16+8*(i%2), int32(2*i+1))
	}
	n := p.ops(100000)
	// One merge as the protocols do it: copy the local clock, raise it.
	p.unit("vc.sparse_maxwith_ns", "", func() int {
		for i := 0; i < n; i++ {
			a.Copy().MaxWith(b)
		}
		return n
	})
	merged := a.Copy()
	merged.MaxWith(b)
	p.unit("vc.sparse_covers_ns", "", func() int {
		var no int
		for i := 0; i < n; i++ {
			if !merged.Covers(b) {
				no++
			}
		}
		return n + no // the merge always covers b, so every scan is full
	})
	// 256 intervals: 16 processors x 16 intervals, each interval having
	// seen the previous interval of every processor (a barrier program).
	const procs, ivals = 16, 16
	stamps := make([]vc.Stamp, 0, procs*ivals)
	for iv := ivals; iv >= 1; iv-- {
		for pr := procs - 1; pr >= 0; pr-- {
			clock := vc.NewSparse(procs)
			for q := 0; q < procs; q++ {
				clock.Set(q, int32(iv-1))
			}
			clock.Set(pr, int32(iv))
			stamps = append(stamps, vc.Stamp{Proc: pr, Interval: int32(iv), VC: clock})
		}
	}
	n = max(p.ops(300)/100, 1)
	p.unit("vc.toposort_ns", "", func() int {
		work := make([]vc.Stamp, len(stamps))
		for i := 0; i < n; i++ {
			copy(work, stamps)
			vc.TopoSort(work)
		}
		return n
	})
}

func (p *prober) statsProbes() {
	n := p.ops(2000000)
	p.unit("stats.hist_record_ns", "", func() int {
		h := stats.NewHist()
		for i := 0; i < n; i++ {
			h.Record(sim.Time(1000 + (i*7919)&0xfffff))
		}
		return n
	})
	run := &stats.Run{Protocol: "hlrc", App: "probe", Elapsed: sim.Second}
	for i := 0; i < 1024; i++ {
		run.Nodes = append(run.Nodes, &stats.Node{})
	}
	n = max(p.ops(400)/100, 1)
	p.unit("stats.run_json_ns.1024", "", func() int {
		for i := 0; i < n; i++ {
			if err := run.WriteJSON(io.Discard); err != nil {
				panic(err) // marshalling plain integers cannot fail
			}
		}
		return n
	})
}

// microApp is a synthetic application whose every page is homed on node
// 0, used to drive one protocol operation at a time through core.Run.
type microApp struct {
	name  string
	pages int
	body  func(a *microApp, c *core.Ctx, id int)

	base mem.Addr
	pw   int // words per page
}

func (a *microApp) Name() string { return a.name }
func (a *microApp) Setup(s *core.Setup) {
	a.pw = s.Space.PageWords
	a.base = s.Alloc(a.pages * a.pw)
}
func (a *microApp) Init(w *core.Init)               { w.SetHome(a.base, a.pages*a.pw, 0) }
func (a *microApp) Worker(c *core.Ctx, id int)      { a.body(a, c, id) }
func (a *microApp) Gather(c *core.Ctx) []float64    { return nil }
func (a *microApp) word(page, off int) mem.Addr     { return a.base + mem.Addr(page*a.pw+off) }
func microOpts(p core.Protocol, n int) core.Options { return cellOpts(p, core.Machine{Nodes: n}) }

// microRun runs app and returns the counters summed over the nodes.
func microRun(opts core.Options, app *microApp) map[string]int64 {
	res, err := core.Run(opts, app, false)
	if err != nil {
		panic("benchmark: probe " + app.name + ": " + err.Error())
	}
	counts := map[string]int64{}
	for _, nd := range res.Stats.Nodes {
		addCounters(counts, nd.Counts)
	}
	return counts
}

func (p *prober) coreProbes() {
	// A warm page miss: node 0 dirties one word of every page, a barrier
	// publishes the write notices, node 1 reads every page back. HLRC
	// fetches the page from its home; LRC fetches and applies a diff.
	const pages = 64
	rounds := max(p.ops(6400)/100, 2)
	missBody := func(a *microApp, c *core.Ctx, id int) {
		for r := 0; r <= rounds; r++ {
			for pg := 0; pg < a.pages; pg++ {
				if id == 0 {
					c.Store(a.word(pg, 1+r%(a.pw-1)), float64(r+1))
				} else {
					c.Load(a.word(pg, 0))
				}
			}
			c.Barrier(r)
		}
	}
	for _, proto := range []core.Protocol{core.ProtoHLRC, core.ProtoLRC} {
		name := string(proto)
		p.unit("core.page_miss_ns."+name, "core.page_miss_allocs."+name, func() int {
			c := microRun(microOpts(proto, 2), &microApp{name: "miss", pages: pages, body: missBody})
			return int(c["ReadMisses"])
		})
	}

	// Remote lock acquires with empty critical sections: four nodes pass
	// each of four locks around, so the manager, the last holder and the
	// requester usually differ.
	acquires := p.ops(1000)
	p.unit("core.lock_acquire_ns", "core.lock_acquire_allocs", func() int {
		c := microRun(microOpts(core.ProtoHLRC, 4), &microApp{name: "lock", pages: 4,
			body: func(a *microApp, c *core.Ctx, id int) {
				for i := 0; i < acquires; i++ {
					l := (i + id) % 4
					c.Lock(l)
					c.Unlock(l)
				}
				c.Barrier(0)
			}})
		return int(c["LockAcquires"])
	})

	// Barrier episodes with nothing to publish, on the centralized
	// barrier (8 nodes) and at its largest size (64).
	episodes := p.ops(400)
	barrierBody := func(a *microApp, c *core.Ctx, id int) {
		for i := 0; i < episodes; i++ {
			c.Barrier(i)
		}
	}
	p.unit("core.barrier_ns.8", "", func() int {
		microRun(microOpts(core.ProtoHLRC, 8), &microApp{name: "barrier", pages: 1, body: barrierBody})
		return episodes
	})
	p.unit("core.barrier_ns.64", "core.barrier_allocs.64", func() int {
		microRun(microOpts(core.ProtoHLRC, 64), &microApp{name: "barrier", pages: 1, body: barrierBody})
		return episodes
	})

	// Diff flush: node 1 writes 5 % of every page homed on node 0, and the
	// barrier ends the interval: write fault, twin, diff, flush to home.
	p.unit("core.diff_flush_ns", "core.diff_flush_allocs", func() int {
		c := microRun(microOpts(core.ProtoHLRC, 2), &microApp{name: "flush", pages: pages,
			body: func(a *microApp, c *core.Ctx, id int) {
				for r := 0; r < rounds; r++ {
					if id == 1 {
						for pg := 0; pg < a.pages; pg++ {
							for off := 0; off < a.pw; off += 20 {
								c.Store(a.word(pg, off), float64(r+1))
							}
						}
					}
					c.Barrier(r)
				}
			}})
		return int(c["DiffsCreated"])
	})

	// The software MMU's hit path: loads and stores to a page the node
	// homes and has already made writable.
	hits := p.ops(2000000)
	p.unit("core.access_ns", "", func() int {
		microRun(microOpts(core.ProtoHLRC, 1), &microApp{name: "access", pages: 1,
			body: func(a *microApp, c *core.Ctx, id int) {
				var sum float64
				for i := 0; i < hits; i++ {
					sum += c.Load(a.word(0, i&511))
					c.Store(a.word(0, (i+1)&511), sum)
				}
				c.Barrier(0)
			}})
		return 2 * hits
	})

	// Building a 1024-node machine (nodes, dispatchers, engines, tables)
	// and tearing it down after a single barrier. Reported per run.
	nodes := 1024
	if p.sc == scaleTiny {
		nodes = 64
	}
	p.unit("core.machine_build_ns.1024", "", func() int {
		microRun(microOpts(core.ProtoHLRC, nodes), &microApp{name: "build", pages: 1,
			body: func(a *microApp, c *core.Ctx, id int) { c.Barrier(0) }})
		return 1
	})
}

func (p *prober) serveProbe() {
	cfg := serveLadder(p.sc, 1, true)[1].kv
	nodes := 64
	if p.sc == scaleTiny {
		nodes = 8
	}
	p.unit("serve.tracegen_ns_per_req", "", func() int {
		kv, err := serve.New(cfg, nodes)
		if err != nil {
			panic(err) // the benchmark's own configuration
		}
		return int(kv.Generated())
	})
}

// wallOf returns the fastest of reps timings of fn, in seconds.
func wallOf(reps int, fn func()) float64 {
	best := math.Inf(1)
	for rep := 0; rep < reps; rep++ {
		t := time.Now()
		fn()
		best = math.Min(best, time.Since(t).Seconds())
	}
	return best
}

func mustCell(opts core.Options, app core.App) {
	if _, err := core.Run(opts, app, false); err != nil {
		panic("benchmark: probe cell: " + err.Error())
	}
}

// wholeRunProbes are ratios of whole simulations, not unit costs.
func (p *prober) wholeRunProbes() {
	s := p.log.begin("probe.whole_runs", "", p.parent)
	defer p.log.end(s)

	// Protocol event tracing: one small cell with every event retained
	// against the same cell with tracing off.
	small := func(limit int) func() {
		return func() {
			o := microOpts(core.ProtoHLRC, 8)
			o.TraceLimit = limit
			mustCell(o, mustApp("sor", p.cellSize()))
		}
	}
	p.out["trace.on_overhead_pct"] = 100 * (wallOf(7, small(-1))/wallOf(7, small(0)) - 1)

	// The partitioned kernel: the scale_parallel HLRC cell on one worker
	// against two.
	specs, err := scaleParallel(p.sc, 0)
	if err != nil {
		panic(err)
	}
	hlrc := specs[0]
	workers := func(n int) func() {
		return func() {
			o := hlrc.opts
			o.RunWorkers = n
			mustCell(o, hlrc.mk())
		}
	}
	p.out["sim.parallel_speedup"] = wallOf(2, workers(1)) / wallOf(2, workers(2))

	// A sweep of independent cells: the same eight test-size cells one
	// after another against one goroutine per host CPU. The harness fans
	// them out itself instead of going through bench.Runner, which the
	// ROADMAP plans to fold into a single sweep driver.
	type job struct {
		app   string
		proto core.Protocol
	}
	var jobs []job
	for _, a := range []string{"lu", "sor", "water-nsq", "raytrace"} {
		for _, pr := range []core.Protocol{core.ProtoHLRC, core.ProtoLRC} {
			jobs = append(jobs, job{a, pr})
		}
	}
	sweep := func(par int) func() {
		return func() {
			next := make(chan job)
			var wg sync.WaitGroup
			for w := 0; w < par; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := range next {
						mustCell(microOpts(j.proto, 8), mustApp(j.app, apps.SizeTest))
					}
				}()
			}
			for _, j := range jobs {
				next <- j
			}
			close(next)
			wg.Wait()
		}
	}
	p.out["bench.sweep_speedup"] = wallOf(3, sweep(1)) / wallOf(3, sweep(runtime.NumCPU()))
}

func (p *prober) cellSize() apps.Size {
	if p.sc == scaleTiny {
		return apps.SizeTest
	}
	return apps.SizeSmall
}

// latencyErrPct micro-simulates the minimum page-miss and remote
// lock-acquire latencies on the machine model and returns the largest
// relative error against the figures DESIGN.md §1 derives from the
// paper's text. The Table 2 speedups themselves have no such reference:
// the OCR of the paper garbles their digits, so they are unvalidated.
func latencyErrPct() float64 {
	c := paragon.DefaultCosts()
	// roundTrip measures a request through hops forwarding nodes to a
	// final node that answers with respBytes after work.
	roundTrip := func(target paragon.Target, hops, respBytes int, work sim.Time) sim.Time {
		k := sim.NewKernel()
		m := paragon.New(k, hops+2, c)
		last := hops + 1
		for i := 1; i <= last; i++ {
			i := i
			h := func(msg paragon.Msg) (sim.Time, func()) {
				if i < last {
					return 0, func() { m.Nodes[i].Send(i+1, msg) }
				}
				return work, func() {
					m.Nodes[i].Respond(msg, paragon.Msg{Size: respBytes, Class: stats.ClassData})
				}
			}
			m.Nodes[i].InstallCompute(h)
			m.Nodes[i].InstallCoproc(h)
		}
		var rt sim.Time
		k.Spawn("req", 0, func(pr *sim.Proc) {
			t0 := pr.Now()
			m.Nodes[0].Call(pr, 1, paragon.Msg{Size: 4, Class: stats.ClassProtocol, Target: target})
			rt = pr.Now() - t0
		})
		mustRun(k)
		return rt
	}
	apply := c.DiffApplyCost(1)
	got := []sim.Time{
		c.PageFault + roundTrip(paragon.ToCompute, 0, pageBytes, 0), // HLRC miss
		c.PageFault + roundTrip(paragon.ToCoproc, 0, pageBytes, 0),  // OHLRC miss
		c.PageFault + roundTrip(paragon.ToCompute, 0, 8, 0) + apply, // LRC miss, 1-word diff
		c.PageFault + roundTrip(paragon.ToCoproc, 0, 8, 0) + apply,  // OLRC miss, 1-word diff
		roundTrip(paragon.ToCompute, 1, 64, c.LockHandling),         // remote lock acquire
	}
	paper := []float64{1172, 482, 1130, 440, 1550} // microseconds
	var worst float64
	for i, g := range got {
		worst = math.Max(worst, 100*math.Abs(g.Micros()-paper[i])/paper[i])
	}
	return worst
}
