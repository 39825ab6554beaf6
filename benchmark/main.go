// Command benchmark is the repository's benchmark: six workloads that
// each lean on a different layer of the simulator, measured on both
// clocks — what a run costs the host, and the simulated numbers it
// produces — with every output checked against a reference.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process is one run. It sets up several times (setup_s is the
// median), then repeats one pass over the workload's cells until the
// time is up and reports the median pass. The last line of the output is
// one JSON object: with --trace 0 the end-to-end metrics, with --trace 1
// the per-layer metrics (probe unit costs, the workload's counts, spans,
// estimated shares). See README.md beside this file.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"gosvm/internal/core"
)

// processStart approximates process start: setup_s runs from here to
// the first timed call.
var processStart = time.Now()

const (
	setupReps = 3 // setup_s is the median of this many full set-ups
	minPasses = 3 // host metrics are medians over at least this many passes
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	traceOut string
}

// outcome is what one cell of one pass produced.
type outcome struct {
	res   *core.Result
	err   error
	hostS float64
}

// report is everything a run measured.
type report struct {
	cfg   config
	w     *workload
	specs []cellSpec

	setupS    []float64
	baselines map[string]*baseline
	passes    []passCost
	loopS     float64 // wall clock of the whole measuring loop
	cellHostS []float64
	totals    *simTotals // first pass; every later pass must reproduce it
	drifted   int        // passes whose simulated totals differed from the first
	attempted int64
	failed    int64
	failures  []string
	scaler    *scaler

	// Traced runs only.
	spans         *spanLog
	tracedWallS   []float64
	untracedWallS []float64
	probes        map[string]float64
}

func (r *report) correct() bool { return r.failed == 0 && r.drifted == 0 }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (see -manifest)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the serving traces and fault plans")
	fs.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long to repeat the timed pass")
	trace := fs.Int("trace", 0, "1: record spans, run the probe suite, report the per-layer metrics")
	sc := fs.String("scale", string(scaleFull), "problem scale: full, or tiny for tests")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default: beside the executable)")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printManifest {
		buf, err := manifest()
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		stdout.Write(buf)
		return 0
	}
	cfg.trace = *trace != 0
	cfg.scale = scale(*sc)
	if cfg.scale != scaleFull && cfg.scale != scaleTiny {
		fmt.Fprintf(stderr, "benchmark: unknown scale %q (have full, tiny)\n", *sc)
		return 2
	}
	rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// setUp does everything a run needs before its first timed call: build
// the applications and serving traces, run the sequential baselines
// (the output oracle and the speedup denominator), and run every second
// cell to warm the runtime up. It returns the baselines and how long the
// three steps took, each scaled to the reference host.
func setUp(specs []cellSpec, sc *scaler, log *spanLog, parent int) (map[string]*baseline, float64, error) {
	var refS float64
	step := func(name string, fn func() error) error {
		s := log.begin(name, "", parent)
		t := time.Now()
		err := fn()
		wall := time.Since(t)
		log.end(s)
		ref, _ := sc.scale(wall, 0)
		refS += ref
		return err
	}

	var cells []cell
	err := step("setup.build", func() (err error) {
		cells, err = prepare(specs)
		return err
	})
	if err != nil {
		return nil, 0, err
	}

	baselines := map[string]*baseline{}
	err = step("setup.sequential", func() error {
		for i := range specs {
			sp := &specs[i]
			if sp.serving() || baselines[sp.ref] != nil {
				continue
			}
			t := time.Now()
			res, err := core.Run(core.Options{
				Protocol:  core.ProtoSeq,
				PageBytes: pageBytes,
				Machine:   core.Machine{Nodes: 1},
			}, sp.mk(), false)
			if err != nil {
				return fmt.Errorf("sequential baseline of %s: %w", sp.ref, err)
			}
			baselines[sp.ref] = &baseline{data: res.Data, elapsed: res.Stats.Elapsed, hostS: time.Since(t).Seconds()}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	// Every second cell, so that about half a pass of every kind of cell
	// the workload has runs before anything is timed.
	err = step("setup.warmup", func() error {
		for i := 1; i < len(cells); i += 2 {
			if _, err := cells[i].run(); err != nil {
				return fmt.Errorf("warm-up cell %s: %w", cells[i].spec.name, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return baselines, refS, nil
}

// onePass runs every cell once inside a timed region and checks the
// outputs outside it.
func (r *report) onePass(i int, root int) error {
	cells, err := prepare(r.specs)
	if err != nil {
		return err
	}
	// Start every pass from a collected heap whose free pages went back
	// to the OS, so a pass neither pays for its predecessor's garbage nor
	// inherits its resident set.
	resetPeakRSS()
	pass := r.spans.begin("pass", strconv.Itoa(i), root)
	out := make([]outcome, len(cells))
	var cost passCost
	heap := sampleHeap()
	for j := range cells {
		s := r.spans.begin("run."+cells[j].spec.name, cells[j].spec.name, pass)
		cpu, t := cpuTime(), time.Now()
		out[j].res, out[j].err = cells[j].run()
		wall := time.Since(t)
		cpu = cpuTime() - cpu
		r.spans.end(s)
		out[j].hostS = wall.Seconds()
		cost.addCell(r.scaler, wall, cpu)
	}
	after := sampleHeap()
	cost.allocMB = float64(after.alloc-heap.alloc) / mib
	cost.mallocK = float64(after.mallocs-heap.mallocs) / 1e3
	if cost.peakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}

	ck := r.spans.begin("check", "", pass)
	totals := &simTotals{counts: map[string]int64{}}
	for j := range cells {
		base := r.baselines[cells[j].spec.ref]
		attempted, failed, err := cells[j].check(out[j].res, out[j].err, base)
		r.attempted += attempted
		r.failed += failed
		if err != nil && len(r.failures) < 8 {
			r.failures = append(r.failures, fmt.Sprintf("pass %d, %s: %v", i, cells[j].spec.name, err))
		}
		if out[j].res != nil {
			totals.add(&cells[j], out[j].res, base)
		}
	}
	r.spans.end(ck)
	r.spans.end(pass)

	r.passes = append(r.passes, cost)
	if r.totals == nil {
		r.totals = totals
		for j := range out {
			r.cellHostS = append(r.cellHostS, out[j].hostS)
		}
	} else if totals.digest() != r.totals.digest() {
		r.drifted++
	}
	return nil
}

func execute(cfg config) (*report, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if procs := runtime.GOMAXPROCS(0); procs < w.minProcs {
		return nil, fmt.Errorf("workload %s measures the parallel kernel and needs GOMAXPROCS >= %d, have %d",
			w.name, w.minProcs, procs)
	}
	specs, err := w.specs(cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	r := &report{cfg: cfg, w: w, specs: specs}
	if cfg.trace {
		r.spans = &spanLog{t0: processStart}
	}
	root := r.spans.begin("benchmark", w.name, -1)

	// Set-up is repeated so that setup_s is a median. Like the passes it
	// is reported on the reference host; the process's own start-up, a few
	// milliseconds before the first calibration, is added as measured.
	startupS := time.Since(processStart).Seconds()
	r.scaler = newScaler()
	for rep := 0; rep < setupReps; rep++ {
		s := r.spans.begin("setup", strconv.Itoa(rep), root)
		var refS float64
		r.baselines, refS, err = setUp(specs, r.scaler, r.spans, s)
		r.spans.end(s)
		if err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, startupS+refS)
	}

	loopStart := time.Now()
	for i := 0; i < minPasses || time.Since(loopStart).Seconds() < cfg.seconds; i++ {
		if r.spans != nil {
			// A traced run records spans on every other pass, and reports
			// the difference as the overhead of tracing.
			r.spans.paused = i%2 == 1
		}
		if err := r.onePass(i, root); err != nil {
			return nil, err
		}
		if r.spans != nil {
			wall := r.passes[len(r.passes)-1].refWallS
			if r.spans.paused {
				r.untracedWallS = append(r.untracedWallS, wall)
			} else {
				r.tracedWallS = append(r.tracedWallS, wall)
			}
		}
	}
	r.loopS = time.Since(loopStart).Seconds()

	if cfg.trace {
		r.spans.paused = false
		p := r.spans.begin("probes", "", root)
		r.probes = runProbes(cfg.scale, r.spans, p)
		r.spans.end(p)
		r.spans.end(root)
		path := cfg.traceOut
		if path == "" {
			exe, err := os.Executable()
			if err != nil {
				return nil, err
			}
			path = filepath.Join(filepath.Dir(exe), fmt.Sprintf("trace-%s-%d.json", w.name, cfg.seed))
		}
		if err := r.spans.writeChrome(path); err != nil {
			return nil, fmt.Errorf("span file: %w", err)
		}
		r.cfg.traceOut = path
	}
	return r, nil
}

func (r *report) print(w io.Writer) error {
	defs, values := endToEnd, r.endToEndValues()
	if r.cfg.trace {
		defs, values = perLayer, r.perLayerValues()
	}
	line, err := r.resultLine(defs, values)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "gosvm benchmark: workload=%s seed=%d scale=%s trace=%v\n", r.w.name, r.cfg.seed, r.cfg.scale, r.cfg.trace)
	fmt.Fprintf(w, "why: %s\n", r.w.why)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "setup: %d repeats %.3f s on the reference host (median reported)\n", len(r.setupS), r.setupS)
	walls := column(r.passes, func(p passCost) float64 { return p.wallS })
	refs := column(r.passes, func(p passCost) float64 { return p.refWallS })
	fmt.Fprintf(w, "timed: %d passes over %d cells in %.2f s\n", len(r.passes), len(r.specs), r.loopS)
	fmt.Fprintf(w, "  pass wall clock as measured      %.3f s (median %.3f)\n", walls, median(walls))
	fmt.Fprintf(w, "  pass wall clock, reference host  %.3f s (median %.3f = host_s)\n", refs, median(refs))
	fmt.Fprintf(w, "  (each cell scaled by the calibration kernel around it, nominal %.1f ms; this host ran %.2fx slower than the reference)\n",
		calibNominalWallS*1e3, median(walls)/median(refs))
	fmt.Fprintf(w, "  resident-set peak per pass       %.0f MB\n", column(r.passes, func(p passCost) float64 { return p.peakRSSMB }))
	fmt.Fprintln(w, "cells (first pass):")
	for i, s := range r.specs {
		fmt.Fprintf(w, "  %-32s host %.3f s\n", s.name, r.cellHostS[i])
	}
	if len(r.totals.rungs) > 0 {
		fmt.Fprintln(w, "serving: open loop; arrivals are on the simulated clock and latency is completion minus")
		fmt.Fprintln(w, "  the scheduled arrival, so the generator is never late (lateness 0 by construction)")
		for _, g := range r.totals.rungs {
			fmt.Fprintf(w, "  %6.0f req/s: generated %d completed %d  p50 %.3f p99 %.3f p99.9 %.3f sim ms  (%d samples, %d beyond p99)  saturated=%v\n",
				g.rate, g.generated, g.completed, g.p50, g.p99, g.p999, g.completed, g.beyondP99, g.saturated)
		}
		fmt.Fprintf(w, "  p99 limit %.0f sim ms: sustained %.0f req/s\n", r.w.p99Limit.Micros()/1e3, r.sustained())
	}
	if len(r.totals.speedups) > 0 {
		fmt.Fprintf(w, "simulated speedup over sequential: geomean %.2fx over %d cells (unvalidated: the OCR of the paper's Table 2 garbles its digits)\n",
			geomean(r.totals.speedups), len(r.totals.speedups))
	}
	fmt.Fprintf(w, "check: %d operations attempted, %d failed; %d of %d passes reproduced the first pass's simulated totals\n",
		r.attempted, r.failed, len(r.passes)-r.drifted, len(r.passes))
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	fmt.Fprintf(w, "sim_digest %s\n", r.totals.digest())

	if r.cfg.trace {
		fmt.Fprintf(w, "spans: %d written to %s\n", len(r.spans.spans), r.cfg.traceOut)
		hostS := median(walls)
		fmt.Fprintf(w, "estimated share of the %.3f s pass (count x unit cost / host_s; rows overlap, read top-down):\n", hostS)
		for _, row := range r.shares(hostS, r.probes) {
			fmt.Fprintf(w, "  %-8s %6.1f %%  %s\n", row.layer, row.pct, row.formula)
		}
	}
	fmt.Fprintln(w, "metrics:")
	for _, d := range defs {
		fmt.Fprintln(w, formatMetric(d, values[d.name]))
	}
	_, err = fmt.Fprintln(w, line)
	return err
}
