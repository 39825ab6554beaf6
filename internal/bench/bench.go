// Package bench regenerates every table and figure of the paper's
// evaluation section: speedups (Table 2), basic operation costs (Table 3),
// per-node protocol operation counts (Table 4), communication traffic
// (Table 5), protocol memory requirements (Table 6), execution time
// breakdowns (Figure 3), per-processor inter-barrier breakdowns
// (Figure 4), and the zero-initialized SOR experiment of §4.8.
//
// A Runner memoizes simulation runs so one sweep feeds all tables, and
// fans independent cells out across host cores: every cell owns its own
// simulation kernel, so per-cell determinism is free, and all rendering
// reads completed cells in fixed grid order — tables, figures, and
// per-cell JSON are byte-identical at any parallelism level.
//
// There is one of each moving part. exec is the only place a simulation
// starts (worker gate, host timer, core.Run or serve.Run, error label,
// progress line): the memoized Run calls it on a miss, every uncached
// cell with its own Options. sweep is the only fan-out: it runs a cell
// slice and returns results in cell order, and the renderer ranges over
// that same slice. writeCell is the only place a JSON file is written.
// What differs per table — which cells, which columns — is plain code in
// the table's own file.
package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gosvm/internal/apps"
	"gosvm/internal/core"
	"gosvm/internal/fault"
	"gosvm/internal/serve"
	"gosvm/internal/sim"
)

// Runner executes and memoizes benchmark runs.
type Runner struct {
	Size        apps.Size
	PageBytes   int
	GCThreshold int64
	Procs       []int // machine sizes; the paper uses 8, 32, 64
	// Machine is the size-independent machine shape (topology and
	// costs) applied to every cell; the node count is stamped per cell
	// from the Procs axis, and the barrier follows from it. The zero
	// value is the default crossbar Paragon.
	Machine  core.Machine
	Progress io.Writer // optional progress log
	// Parallel caps how many simulation cells run concurrently on the
	// host. 0 means GOMAXPROCS; 1 restores fully sequential execution.
	// Results are independent of the setting (see the package comment).
	Parallel int

	mu       sync.Mutex // guards cache and Progress writes
	cache    map[cell]*cacheEntry
	gateOnce sync.Once
	gateCh   chan struct{}
}

// cacheEntry is a singleflight memo slot: the first Run for a key owns
// the simulation; later callers block on done.
type cacheEntry struct {
	done chan struct{}
	res  *core.Result
}

// NewRunner returns a runner at the given problem size with the paper's
// machine parameters.
func NewRunner(size apps.Size) *Runner {
	return &Runner{
		Size:        size,
		PageBytes:   8192,
		GCThreshold: 8 << 20,
		Procs:       []int{8, 32, 64},
		cache:       map[cell]*cacheEntry{},
	}
}

// Run returns the (memoized) result of app under proto on procs nodes.
// proto "seq" ignores procs. Run is safe to call from many goroutines;
// concurrent calls for the same cell share one simulation.
func (r *Runner) Run(app string, proto core.Protocol, procs int) *core.Result {
	if proto == core.ProtoSeq {
		procs = 1
	}
	key := cell{app, proto, procs}
	r.mu.Lock()
	if e, ok := r.cache[key]; ok {
		r.mu.Unlock()
		<-e.done
		if e.res == nil {
			panic(fmt.Sprintf("bench: %v: owning run failed", key))
		}
		return e.res
	}
	e := &cacheEntry{done: make(chan struct{})}
	r.cache[key] = e
	r.mu.Unlock()
	defer close(e.done)
	e.res = must(r.execApp(app, r.cellOpts(proto, procs), ""))
	return e.res
}

// exec runs one simulation, and is the only place one starts: it alone
// takes a slot of the worker gate, times the run on the host clock, calls
// core.Run — or serve.Run for the serving workload, which also validates
// the store and attaches the latency block — wraps a failure with the
// cell's label, and writes the progress line. It waits on no other cell
// while it holds the slot, so fan-outs compose without hold-and-wait
// deadlocks.
func (r *Runner) exec(label string, opts core.Options, app core.App, phases bool) (*core.Result, error) {
	r.acquire()
	defer r.release()
	start := time.Now()
	var (
		res *core.Result
		err error
	)
	if kv, ok := app.(*serve.KV); ok {
		res, err = serve.Run(opts, kv)
	} else {
		res, err = core.Run(opts, app, phases)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", label, err)
	}
	if r.Progress != nil {
		// Lines interleave across cells in host-timing order; rendered
		// output is unaffected.
		r.mu.Lock()
		fmt.Fprintf(r.Progress, "# ran %s: simulated %.3fs (%.2fs real)\n",
			label, res.Stats.Elapsed.Micros()/1e6, time.Since(start).Seconds())
		r.mu.Unlock()
	}
	return res, nil
}

// execApp is exec for a named benchmark application at the Runner's
// problem size. The label is app/protocol/pN, plus a note saying what
// sets an uncached cell apart from the memoized one ("faulted", "mesh").
func (r *Runner) execApp(name string, opts core.Options, note string) (*core.Result, error) {
	a, err := apps.New(name, r.Size)
	if err != nil {
		return nil, err
	}
	label := cell{name, opts.Protocol, opts.Machine.Nodes}.String()
	if note != "" {
		label += " (" + note + ")"
	}
	return r.exec(label, opts, a, false)
}

// must unwraps a result for the renderers that return no error (the
// paper's tables and figures, the ablations): every cell there is a
// fixed, valid configuration, so a failure is a bug and panics, and
// forEach re-raises the panic on the caller.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// cellOpts returns the run Options for one cell: the Runner's machine
// shape stamped with the cell's node count.
func (r *Runner) cellOpts(proto core.Protocol, procs int) core.Options {
	m := r.Machine
	m.Nodes = procs
	return core.Options{
		Protocol:    proto,
		PageBytes:   r.PageBytes,
		GCThreshold: r.GCThreshold,
		Machine:     m,
	}
}

// faultOpts is cellOpts under a fault plan.
func (r *Runner) faultOpts(proto core.Protocol, procs int, plan fault.Plan) core.Options {
	opts := r.cellOpts(proto, procs)
	opts.Fault = plan
	return opts
}

// Seq returns the sequential baseline for app.
func (r *Runner) Seq(app string) *core.Result { return r.Run(app, core.ProtoSeq, 1) }

// Speedup returns seq/parallel simulated time.
func (r *Runner) Speedup(app string, proto core.Protocol, procs int) float64 {
	seq := r.Seq(app).Stats.Elapsed
	par := r.Run(app, proto, procs).Stats.Elapsed
	return float64(seq) / float64(par)
}

// AppNames lists the benchmark applications in the paper's order.
func AppNames() []string { return apps.Names }

// seconds formats simulated time as seconds.
func seconds(t sim.Time) string { return fmt.Sprintf("%.1f", t.Micros()/1e6) }

// mb formats bytes as megabytes.
func mb(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }

// ms renders simulated time in milliseconds.
func ms(t sim.Time) float64 { return t.Micros() / 1e3 }

// writeCell writes one JSON document of a sweep as dir/name, creating
// dir if it is not there; with no dir the sweep writes no JSON and this
// is a no-op. It is the only place the package creates a file.
func writeCell(dir, name string, write func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
