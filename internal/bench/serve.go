package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"gosvm/internal/core"
	"gosvm/internal/fault"
	"gosvm/internal/serve"
)

// ServeSweepOpts configures the open-loop serving sweep: the workload
// shape, the offered-load axis, and an optional fault profile composed
// over every cell.
type ServeSweepOpts struct {
	// Base is the workload shape (key space, mix, skew, window, seed).
	// OfferedLoad is overridden per cell by Loads.
	Base serve.Config
	// Loads is the offered-load axis in requests per simulated second
	// (total across the machine).
	Loads []float64
	// Protos are the protocol columns; nil means the paper's four.
	Protos []core.Protocol
	// Profile is an optional fault profile name ("", "lossy", "hostile",
	// "crash") composed over every cell; Seed seeds its plan.
	Profile string
	Seed    int64
}

// ServeSweep sweeps offered load x machine size x protocol over the
// open-loop KV serving workload and renders a latency/throughput table:
// offered vs. achieved rate, p50/p99/p999 service latency on the
// simulated clock, queue utilization, seqlock reads and fallbacks, and
// saturation detection.
//
// Cells fan out across host cores exactly like the batch sweeps:
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
		protos = core.Protocols
	}

	cells := serveCells(o.Loads, r.Procs, protos)
	results, err := sweep(r, cells, func(c scell) (*core.Result, error) { return r.serveCell(c, o, plan) })
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "Open-loop KV serving sweep: offered load vs. tail latency (fault profile %q, seed %d)\n",
		profile, o.Seed)
	fmt.Fprintln(out, "rates in requests per simulated second; latencies on the simulated clock")
	fmt.Fprintln(out, "Skew is the home hot-spot metric: max over nodes of serviced messages, relative to the mean")
	tw := tabwriter.NewWriter(out, 4, 8, 2, ' ', 0)
	fmt.Fprint(tw, "Offered\tProcs\tProtocol\tGenerated\tAchieved\tRatio\tUtil\tp50(ms)\tp99(ms)\tp999(ms)\tSkew\tSeqRd\tFallbk\tSaturated")
	if plan.Active() {
		fmt.Fprint(tw, "\tRetries\tRecovery(ms)")
	}
	fmt.Fprintln(tw)
	for i, c := range cells {
		res := results[i]
		s := res.Stats.Serve
		sat := ""
		if s.Saturated() {
			sat = "SATURATED"
		}
		fmt.Fprintf(tw, "%.0f\t%d\t%s\t%d\t%.0f\t%.3f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%d\t%d\t%s",
			c.load, c.procs, c.proto, s.Generated, s.AchievedRate(), s.SaturationRatio(),
			s.MaxUtil, ms(s.Latency.P50()), ms(s.Latency.P99()), ms(s.Latency.P999()),
			res.Stats.MsgsInSkew(), s.SeqlockReads, s.SeqlockFallbacks, sat)
		if plan.Active() {
			sum := res.Stats.Sum()
			fmt.Fprintf(tw, "\t%d\t%.2f", sum.Counts.Retries, ms(sum.Recovery))
		}
		fmt.Fprintln(tw)
		if err := writeCell(jsonDir, c.fileName(profile), res.Stats.WriteJSON); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// scell is one cell of the serving sweep: an offered load on one
// machine size under one protocol.
type scell struct {
	load  float64
	procs int
	proto core.Protocol
}

// serveCells crosses offered load x machine size x protocol, in table
// row order.
func serveCells(loads []float64, procs []int, protos []core.Protocol) []scell {
	var cells []scell
	for _, load := range loads {
		for _, p := range procs {
			for _, proto := range protos {
				cells = append(cells, scell{load, p, proto})
			}
		}
	}
	return cells
}

// tag is the cell's coordinate on the load axis, l<load>.
func (c scell) tag() string { return fmt.Sprintf("l%.0f", c.load) }

// fileName is the cell's per-cell JSON file:
// serve-<profile>-<proto>-p<procs>-<tag>.json.
func (c scell) fileName(profile string) string {
	return fmt.Sprintf("serve-%s-%s-p%d-%s.json", profile, c.proto, c.procs, c.tag())
}

// serveCell executes one serving cell: build the (cell-local) workload
// from the sweep's base shape at the cell's load and run it under the
// protocol and fault plan. exec validates the store and attaches the
// serve statistics.
func (r *Runner) serveCell(c scell, o ServeSweepOpts, plan fault.Plan) (*core.Result, error) {
	cfg := o.Base
	cfg.OfferedLoad = c.load
	kv, err := serve.New(cfg, c.procs)
	if err != nil {
		return nil, err
	}
	label := fmt.Sprintf("kv-serve/%s/p%d/%s", c.proto, c.procs, c.tag())
	return r.exec(label, r.faultOpts(c.proto, c.procs, plan), kv, false)
}
