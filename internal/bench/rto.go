package bench

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"gosvm/internal/core"
	"gosvm/internal/fault"
	"gosvm/internal/stats"
)

// rtoApps are the applications used for the RTO ablation: one
// coarse-grained iterative kernel and one irregular molecular-dynamics
// code, enough to exercise both bulk data traffic and lock-heavy
// protocol traffic without rerunning the whole suite per arm.
var rtoApps = []string{"sor", "water-nsq"}

// rtoModes are the two transport arms of the ablation.
var rtoModes = []string{"fixed", "adaptive"}

// RTOSweep runs the adaptive-RTO ablation: for each fault profile, every
// (app, procs, protocol) cell twice — once with the plan's fixed
// retransmission timeout and once with per-edge Jacobson/Karels RTT
// estimation — on the link-granularity mesh network, where congestion
// makes a fixed timeout either slack (slow recovery) or trigger-happy
// (spurious retransmissions and the duplicate suppressions they cause).
// Every run validates against the sequential result; the table reports
// total retries, duplicate suppressions, and recovery time per arm.
//
// When jsonDir is non-empty every cell's statistics are written there as
// rto-<profile>-<mode>-<app>-<proto>-p<procs>.json.
func (r *Runner) RTOSweep(out io.Writer, profiles []string, seed int64, jsonDir string) error {
	return eachProfile(out, profiles, func(profile string) error {
		return r.rtoTable(out, profile, seed, jsonDir)
	})
}

func (r *Runner) rtoTable(out io.Writer, profile string, seed int64, jsonDir string) error {
	basePlan, err := fault.Profile(profile, seed)
	if err != nil {
		return err
	}
	if len(basePlan.Crashes) > 0 {
		return fmt.Errorf("bench: rto ablation does not support crash profiles (got %q)", profile)
	}
	protos := faultProtocols(profile)

	// One cell per arm; the two arms of a row differ only in
	// Plan.AdaptiveRTO.
	type rcell struct {
		cell
		mode string
	}
	var cells []rcell
	for _, c := range grid(rtoApps, r.Procs, protos) {
		for _, mode := range rtoModes {
			cells = append(cells, rcell{c, mode})
		}
	}
	results, err := sweep(r, cells, func(c rcell) (*core.Result, error) {
		// The profile is rendered at link level for the cell's machine
		// size: loss and jitter roll per link crossing, so they correlate
		// with XY routes — the fault structure a per-edge RTT estimator
		// can exploit and a single fixed timeout cannot.
		plan := basePlan.AtLinkLevel(c.procs)
		plan.AdaptiveRTO = c.mode == "adaptive"
		opts := r.faultOpts(c.proto, c.procs, plan)
		opts.Machine.Topology = core.TopoMesh
		res, err := r.execApp(c.app, opts, "mesh, faulted, "+c.mode+" RTO")
		if err != nil {
			return nil, err
		}
		// Faults and the network model perturb timing, never correctness:
		// the result must match the clean run at the same configuration.
		// The barrier-structured apps must match bitwise; the water codes
		// reduce forces under locks whose acquisition order is
		// timing-dependent, so they carry the same tiny tolerance the apps
		// tests use. (The clean runs themselves are checked against the
		// sequential reference by the apps tests.)
		tol := 0.0
		if c.app == "water-nsq" || c.app == "water-sp" {
			tol = 1e-9
		}
		if err := validateResult(r.Run(c.app, c.proto, c.procs).Data, res.Data, tol); err != nil {
			return nil, fmt.Errorf("bench: %v (mesh) differs from the clean run: %w", c.cell, err)
		}
		return res, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "Adaptive-RTO ablation under fault profile %q at link level (seed %d, mesh network)\n", profile, seed)
	fmt.Fprintln(out, "totals across nodes; recovery is time lost to retransmitted messages")
	tw := tabwriter.NewWriter(out, 4, 8, 2, ' ', 0)
	fmt.Fprint(tw, "Application\tProcs\tProtocol")
	for _, mode := range rtoModes {
		fmt.Fprintf(tw, "\t%s:retries\tdups\trecovery(ms)", mode)
	}
	fmt.Fprintln(tw)

	// One row per (application, machine size, protocol), one column
	// group per arm, and a closing row of per-arm totals.
	totals := make([]stats.Node, len(rtoModes))
	arm := func(n stats.Node) {
		fmt.Fprintf(tw, "\t%d\t%d\t%.2f", n.Counts.Retries, n.Counts.DupsSuppressed, ms(n.Recovery))
	}
	for i, c := range cells {
		res := results[i]
		mi := i % len(rtoModes)
		if mi == 0 {
			fmt.Fprintf(tw, "%s\t%d\t%s", c.app, c.procs, c.proto)
		}
		sum := res.Stats.Sum()
		arm(sum)
		totals[mi].Counts.Retries += sum.Counts.Retries
		totals[mi].Counts.DupsSuppressed += sum.Counts.DupsSuppressed
		totals[mi].Recovery += sum.Recovery
		name := fmt.Sprintf("rto-%s-%s-%s-%s-p%d.json", profile, c.mode, c.app, c.proto, c.procs)
		if err := writeCell(jsonDir, name, res.Stats.WriteJSON); err != nil {
			return err
		}
		if mi == len(rtoModes)-1 {
			fmt.Fprintln(tw)
		}
	}
	fmt.Fprint(tw, "total\t\t")
	for _, tot := range totals {
		arm(tot)
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}

// validateResult compares a gathered result image against a reference,
// word for word when tol is zero, else within relative tolerance.
func validateResult(want, got []float64, tol float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("result sizes differ: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if tol == 0 {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				return fmt.Errorf("result word %d: want %v, got %v", i, want[i], got[i])
			}
			continue
		}
		d := math.Abs(want[i] - got[i])
		if scale := math.Max(1, math.Abs(want[i])); d/scale > tol {
			return fmt.Errorf("result word %d: want %v, got %v (rel %g)", i, want[i], got[i], d/scale)
		}
	}
	return nil
}
