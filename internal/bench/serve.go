package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"gosvm/internal/core"
	"gosvm/internal/fault"
	"gosvm/internal/serve"
	"gosvm/internal/sim"
)

// ServeSweepOpts configures the open-loop serving sweep: the workload
// shape, the offered-load axis, and an optional fault profile composed
// over every cell.
type ServeSweepOpts struct {
	// Base is the workload shape (key space, mix, skew, arrival process,
	// window, seed). OfferedLoad is overridden per cell by Loads.
	Base serve.Config
	// Loads is the offered-load axis in requests per simulated second
	// (total across the machine).
	Loads []float64
	// Protos are the protocol columns; nil means the paper's four (or
	// the home-based pair under a crash profile).
	Protos []core.Protocol
	// Profile is an optional fault profile name ("", "lossy", "hostile",
	// "crash") composed over every cell; Seed seeds its plan. Crash
	// cells run with one home-state replica, as the fault sweep does.
	Profile string
	Seed    int64
	// Modes is an optional fast-path ablation axis (serve.Modes values);
	// each entry overwrites Base's fast-path knobs via ApplyFastpath and
	// adds a Mode column. Empty runs Base's knobs as configured, with no
	// extra column.
	Modes []string
	// Closed is an optional closed-loop axis: for each client count a
	// second table contrasts the closed population's behavior with the
	// open-loop cells above it (same shape, same protocols, demand
	// paced by completions instead of a free-running arrival process).
	Closed []int
	// Think is the closed-loop mean think time (zero: serve's default).
	Think sim.Time
}

// ServeSweep sweeps offered load x machine size x protocol over the
// open-loop KV serving workload and renders a latency/throughput table:
// offered vs. achieved rate, p50/p99/p999 service latency on the
// simulated clock, queue utilization, and saturation detection.
//
// Cells fan out across host cores exactly like the closed-loop sweeps:
// every cell owns its kernel and its (deterministic, protocol- and
// parallelism-independent) client trace, and rendering reads completed
// cells in fixed grid order, so the table and any per-cell JSON are
// byte-identical at every -parallel level. Every cell validates the
// final store contents against the trace-derived expectation.
//
// When jsonDir is non-empty, each cell's statistics (including the
// serve block with the full latency histogram) are written there as
// serve-<profile>-<proto>-p<procs>-l<load>.json.
func (r *Runner) ServeSweep(out io.Writer, o ServeSweepOpts, jsonDir string) error {
	if len(o.Loads) == 0 {
		return fmt.Errorf("bench: serve sweep needs at least one offered load")
	}
	profile := o.Profile
	if profile == "" {
		profile = fault.ProfileNone
	}
	plan, err := fault.Profile(profile, o.Seed)
	if err != nil {
		return err
	}
	protos := o.Protos
	if protos == nil {
		protos = faultProtocols(profile)
	}
	if jsonDir != "" {
		if err := os.MkdirAll(jsonDir, 0o755); err != nil {
			return err
		}
	}

	modes := o.Modes
	withModes := len(modes) > 0
	if !withModes {
		modes = []string{""}
	}

	type scell struct {
		load  float64
		procs int
		proto core.Protocol
		mode  string
	}
	var cells []scell
	for _, load := range o.Loads {
		for _, procs := range r.Procs {
			for _, proto := range protos {
				for _, mode := range modes {
					cells = append(cells, scell{load, procs, proto, mode})
				}
			}
		}
	}
	results := make([]*core.Result, len(cells))
	errs := make([]error, len(cells))
	r.forEach(len(cells), func(i int) {
		c := cells[i]
		results[i], errs[i] = r.runServe(o.Base, c.load, c.proto, c.procs, c.mode, 0, o.Think, plan)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	crash := len(plan.Crashes) > 0
	fmt.Fprintf(out, "Open-loop KV serving sweep: offered load vs. tail latency (fault profile %q, seed %d)\n",
		profile, o.Seed)
	fmt.Fprintln(out, "rates in requests per simulated second; latencies on the simulated clock")
	fmt.Fprintln(out, "Skew is the home hot-spot metric: max over nodes of serviced messages, relative to the mean")
	tw := tabwriter.NewWriter(out, 4, 8, 2, ' ', 0)
	fmt.Fprint(tw, "Offered\tProcs\tProtocol")
	if withModes {
		fmt.Fprint(tw, "\tMode")
	}
	fmt.Fprint(tw, "\tGenerated\tAchieved\tRatio\tUtil\tp50(ms)\tp99(ms)\tp999(ms)\tSkew")
	if withModes {
		fmt.Fprint(tw, "\tSeqRd\tFallbk")
	}
	fmt.Fprint(tw, "\tSaturated")
	if plan.Active() {
		fmt.Fprint(tw, "\tRetries\tRecovery(ms)")
	}
	if crash {
		fmt.Fprint(tw, "\tRehomed")
	}
	fmt.Fprintln(tw)
	for i, c := range cells {
		res := results[i]
		s := res.Stats.Serve
		sat := ""
		if s.Saturated() {
			sat = "SATURATED"
		}
		fmt.Fprintf(tw, "%.0f\t%d\t%s", c.load, c.procs, c.proto)
		if withModes {
			fmt.Fprintf(tw, "\t%s", c.mode)
		}
		fmt.Fprintf(tw, "\t%d\t%.0f\t%.3f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f",
			s.Generated, s.AchievedRate(), s.SaturationRatio(),
			s.MaxUtil, ms(s.Latency.P50()), ms(s.Latency.P99()), ms(s.Latency.P999()),
			homeSkew(res))
		if withModes {
			fmt.Fprintf(tw, "\t%d\t%d", s.SeqlockReads, s.SeqlockFallbacks)
		}
		fmt.Fprintf(tw, "\t%s", sat)
		if plan.Active() {
			var retries, rehomed int64
			var recovery sim.Time
			for _, nd := range res.Stats.Nodes {
				retries += nd.Counts.Retries
				rehomed += nd.Counts.PagesRehomed
				recovery += nd.Recovery
			}
			fmt.Fprintf(tw, "\t%d\t%.2f", retries, ms(recovery))
			if crash {
				fmt.Fprintf(tw, "\t%d", rehomed)
			}
		}
		fmt.Fprintln(tw)
		if jsonDir != "" {
			tag := ""
			if c.mode != "" {
				tag = "-" + c.mode
			}
			name := fmt.Sprintf("serve-%s-%s-p%d-l%.0f%s.json", profile, c.proto, c.procs, c.load, tag)
			if err := writeFile(filepath.Join(jsonDir, name), res.Stats.WriteJSON); err != nil {
				return err
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(o.Closed) > 0 {
		return r.closedSweep(out, o, protos, modes, withModes, plan, jsonDir, profile)
	}
	return nil
}

// closedSweep renders the closed-loop comparison table: the same store,
// mix, and protocols as the open-loop sweep above it, but demand is
// paced by a fixed client population that thinks between completions —
// throughput self-limits at capacity instead of building an unbounded
// backlog, so tail latency stays bounded where the open loop saturates.
func (r *Runner) closedSweep(out io.Writer, o ServeSweepOpts, protos []core.Protocol,
	modes []string, withModes bool, plan fault.Plan, jsonDir, profile string) error {
	type ccell struct {
		clients int
		procs   int
		proto   core.Protocol
		mode    string
	}
	var cells []ccell
	for _, clients := range o.Closed {
		for _, procs := range r.Procs {
			for _, proto := range protos {
				for _, mode := range modes {
					cells = append(cells, ccell{clients, procs, proto, mode})
				}
			}
		}
	}
	results := make([]*core.Result, len(cells))
	errs := make([]error, len(cells))
	r.forEach(len(cells), func(i int) {
		c := cells[i]
		results[i], errs[i] = r.runServe(o.Base, 0, c.proto, c.procs, c.mode, c.clients, o.Think, plan)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	fmt.Fprintln(out)
	fmt.Fprintln(out, "Closed-loop comparison: a fixed client population (think time between completions)")
	fmt.Fprintln(out, "self-limits at capacity — contrast achieved rate and tails with the open loop above")
	tw := tabwriter.NewWriter(out, 4, 8, 2, ' ', 0)
	fmt.Fprint(tw, "Clients\tProcs\tProtocol")
	if withModes {
		fmt.Fprint(tw, "\tMode")
	}
	fmt.Fprintln(tw, "\tCompleted\tAchieved\tUtil\tp50(ms)\tp99(ms)\tp999(ms)\tSkew")
	for i, c := range cells {
		res := results[i]
		s := res.Stats.Serve
		fmt.Fprintf(tw, "%d\t%d\t%s", c.clients, c.procs, c.proto)
		if withModes {
			fmt.Fprintf(tw, "\t%s", c.mode)
		}
		fmt.Fprintf(tw, "\t%d\t%.0f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			s.Completed, s.AchievedRate(), s.MaxUtil,
			ms(s.Latency.P50()), ms(s.Latency.P99()), ms(s.Latency.P999()), homeSkew(res))
		if jsonDir != "" {
			tag := ""
			if c.mode != "" {
				tag = "-" + c.mode
			}
			name := fmt.Sprintf("serve-closed-%s-%s-p%d-c%d%s.json", profile, c.proto, c.procs, c.clients, tag)
			if err := writeFile(filepath.Join(jsonDir, name), res.Stats.WriteJSON); err != nil {
				return err
			}
		}
	}
	return tw.Flush()
}

// homeSkew is the home hot-spot metric: the hottest node's serviced
// (unsolicited) message count relative to the mean across nodes. 1.0 is
// perfectly even; procs-sized values mean one home serves everything.
func homeSkew(res *core.Result) float64 {
	var max, sum int64
	for _, nd := range res.Stats.Nodes {
		if nd.MsgsIn > max {
			max = nd.MsgsIn
		}
		sum += nd.MsgsIn
	}
	if sum == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(len(res.Stats.Nodes)))
}

// runServe executes one serving cell: build the (cell-local) workload,
// run it under the protocol and fault plan, validate the store, and
// attach the serve statistics. mode (non-empty) overwrites the config's
// fast-path knobs; clients > 0 switches the cell to closed loop.
func (r *Runner) runServe(base serve.Config, load float64, proto core.Protocol, procs int,
	mode string, clients int, think sim.Time, plan fault.Plan) (*core.Result, error) {
	cfg := base
	if load > 0 {
		cfg.OfferedLoad = load
	}
	if mode != "" {
		if err := serve.ApplyFastpath(&cfg, mode); err != nil {
			return nil, err
		}
	}
	if clients > 0 {
		cfg.ClosedClients = clients
		if think > 0 {
			cfg.ThinkTime = think
		}
	}
	kv, err := serve.New(cfg, procs)
	if err != nil {
		return nil, err
	}
	opts := r.cellOpts(proto, procs)
	opts.Fault = plan
	if len(plan.Crashes) > 0 {
		opts.Recovery = core.Recovery{Replicas: 1}
	}
	r.acquire()
	start := time.Now()
	res, err := serve.Run(opts, kv)
	r.release()
	if err != nil {
		return nil, fmt.Errorf("bench: kv-serve/%s/p%d/l%.0f: %w", proto, procs, load, err)
	}
	r.progressf("# ran kv-serve/%s/p%d/l%.0f: %d reqs, simulated %.1fms (%.2fs real)\n",
		proto, procs, load, res.Stats.Serve.Completed,
		res.Stats.Elapsed.Micros()/1e3, time.Since(start).Seconds())
	return res, nil
}

// ms renders simulated time in milliseconds.
func ms(t sim.Time) float64 { return t.Micros() / 1e3 }

// writeFile creates path, fills it through write, and closes it,
// returning the first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
