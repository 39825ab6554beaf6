package bench

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"gosvm/internal/apps"
	"gosvm/internal/core"
	"gosvm/internal/fault"
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
	if jsonDir != "" {
		if err := os.MkdirAll(jsonDir, 0o755); err != nil {
			return err
		}
	}
	for i, profile := range profiles {
		if i > 0 {
			fmt.Fprintln(out)
		}
		if err := r.rtoTable(out, profile, seed, jsonDir); err != nil {
			return err
		}
	}
	return nil
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

	// Same fan-out/render split as the fault sweep: run every cell in
	// parallel, then render in fixed grid order so output is identical at
	// any -parallel level. The two arms differ only in Plan.AdaptiveRTO.
	type rcell struct {
		app   string
		proto core.Protocol
		procs int
		mode  string
	}
	var cells []rcell
	for _, app := range rtoApps {
		for _, procs := range r.Procs {
			for _, proto := range protos {
				for _, mode := range rtoModes {
					cells = append(cells, rcell{app, proto, procs, mode})
				}
			}
		}
	}
	results := make([]*core.Result, len(cells))
	errs := make([]error, len(cells))
	r.forEach(len(cells), func(i int) {
		c := cells[i]
		// The profile is rendered at link level for the cell's machine
		// size: loss and jitter roll per link crossing, so they correlate
		// with XY routes — the fault structure a per-edge RTT estimator
		// can exploit and a single fixed timeout cannot.
		plan := basePlan.AtLinkLevel(c.procs)
		plan.AdaptiveRTO = c.mode == "adaptive"
		results[i], errs[i] = r.runMeshFaulted(c.app, c.proto, c.procs, plan)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "Adaptive-RTO ablation under fault profile %q at link level (seed %d, mesh network)\n", profile, seed)
	fmt.Fprintln(out, "totals across nodes; recovery is time lost to retransmitted messages")
	tw := tabwriter.NewWriter(out, 4, 8, 2, ' ', 0)
	fmt.Fprint(tw, "Application\tProcs\tProtocol")
	for _, mode := range rtoModes {
		fmt.Fprintf(tw, "\t%s:retries\tdups\trecovery(ms)", mode)
	}
	fmt.Fprintln(tw)

	next := 0
	totRetries := make([]int64, len(rtoModes))
	totDups := make([]int64, len(rtoModes))
	totRecovery := make([]float64, len(rtoModes))
	for _, app := range rtoApps {
		for _, procs := range r.Procs {
			for _, proto := range protos {
				fmt.Fprintf(tw, "%s\t%d\t%s", app, procs, proto)
				for mi, mode := range rtoModes {
					res := results[next]
					next++
					var retries, dups int64
					var recovery float64
					for _, nd := range res.Stats.Nodes {
						retries += nd.Counts.Retries
						dups += nd.Counts.DupsSuppressed
						recovery += nd.Recovery.Micros() / 1e3
					}
					totRetries[mi] += retries
					totDups[mi] += dups
					totRecovery[mi] += recovery
					fmt.Fprintf(tw, "\t%d\t%d\t%.2f", retries, dups, recovery)
					if jsonDir != "" {
						name := fmt.Sprintf("rto-%s-%s-%s-%s-p%d.json", profile, mode, app, proto, procs)
						if err := writeFile(filepath.Join(jsonDir, name), res.Stats.WriteJSON); err != nil {
							return err
						}
					}
				}
				fmt.Fprintln(tw)
			}
		}
	}
	fmt.Fprint(tw, "total\t\t")
	for mi := range rtoModes {
		fmt.Fprintf(tw, "\t%d\t%d\t%.2f", totRetries[mi], totDups[mi], totRecovery[mi])
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}

// runMeshFaulted is runFaulted on the link-granularity mesh network
// model, validated against the sequential result.
func (r *Runner) runMeshFaulted(app string, proto core.Protocol, procs int, plan fault.Plan) (*core.Result, error) {
	a, err := apps.New(app, r.Size)
	if err != nil {
		return nil, err
	}
	opts := r.cellOpts(proto, procs)
	opts.Fault = plan
	opts.Machine.Topology = core.TopoMesh
	r.acquire()
	start := time.Now()
	res, err := core.Run(opts, a, false)
	r.release()
	if err != nil {
		return nil, fmt.Errorf("bench: %s/%s/p%d (mesh): %w", app, proto, procs, err)
	}
	// Faults and the network model perturb timing, never correctness: the
	// result must match the clean run at the same configuration. The
	// barrier-structured apps must match bitwise; the water codes reduce
	// forces under locks whose acquisition order is timing-dependent, so
	// they carry the same tiny tolerance the apps tests use. (The clean
	// runs themselves are checked against the sequential reference by the
	// apps tests.)
	tol := 0.0
	if app == "water-nsq" || app == "water-sp" {
		tol = 1e-9
	}
	if err := validateResult(r.Run(app, proto, procs).Data, res.Data, tol); err != nil {
		return nil, fmt.Errorf("bench: %s/%s/p%d (mesh): %w", app, proto, procs, err)
	}
	r.progressf("# ran %s/%s/p%d (mesh, faulted): simulated %.1fs (%.2fs real)\n",
		app, proto, procs, res.Stats.Elapsed.Micros()/1e6, time.Since(start).Seconds())
	return res, nil
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
