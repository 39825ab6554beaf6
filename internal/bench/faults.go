package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"gosvm/internal/apps"
	"gosvm/internal/core"
	"gosvm/internal/fault"
	"gosvm/internal/sim"
)

// FaultSweep reruns the Table-2 speedup grid under fault injection: one
// sub-table per profile, every cell a full validated run. The lossy and
// hostile profiles exercise all four protocols; the crash profiles only
// the home-based ones (re-homing needs a home), with one replica per
// home so the mid-run crashes are survivable. The crash-mgr profile
// additionally kills the synchronization managers, exercising the
// lock/barrier-manager failover path. Faulted runs are not memoized —
// the plan is part of the cell.
//
// When jsonDir is non-empty every cell's statistics are written there as
// fault-<profile>-<app>-<proto>-p<procs>.json for machine consumption.
func (r *Runner) FaultSweep(out io.Writer, profiles []string, seed int64, jsonDir string) error {
	if jsonDir != "" {
		if err := os.MkdirAll(jsonDir, 0o755); err != nil {
			return err
		}
	}
	for i, profile := range profiles {
		if i > 0 {
			fmt.Fprintln(out)
		}
		if err := r.faultTable(out, profile, seed, jsonDir); err != nil {
			return err
		}
	}
	return nil
}

// faultProtocols returns the protocol columns for one profile.
func faultProtocols(profile string) []core.Protocol {
	if crashProfile(profile) {
		return []core.Protocol{core.ProtoHLRC, core.ProtoOHLRC}
	}
	return []core.Protocol{core.ProtoLRC, core.ProtoOLRC, core.ProtoHLRC, core.ProtoOHLRC}
}

// crashProfile reports whether profile kills nodes (and so requires the
// home-based protocols plus replication).
func crashProfile(profile string) bool {
	return profile == fault.ProfileCrash || profile == fault.ProfileCrashMgr
}

func (r *Runner) faultTable(out io.Writer, profile string, seed int64, jsonDir string) error {
	plan, err := fault.Profile(profile, seed)
	if err != nil {
		return err
	}
	protos := faultProtocols(profile)
	crash := crashProfile(profile)

	// Fan every cell of the grid out across workers, then render the
	// table and per-cell JSON sequentially in fixed grid order, so the
	// output is byte-identical at any parallelism level. The injector
	// only reads the plan, so one plan is safely shared across cells.
	type fcell struct {
		app   string
		proto core.Protocol
		procs int
	}
	var cells []fcell
	for _, app := range AppNames() {
		for _, procs := range r.Procs {
			for _, proto := range protos {
				cells = append(cells, fcell{app, proto, procs})
			}
		}
	}
	results := make([]*core.Result, len(cells))
	errs := make([]error, len(cells))
	r.forEach(len(cells)+len(AppNames()), func(i int) {
		if i < len(AppNames()) {
			r.Seq(AppNames()[i]) // warm the sequential baselines too
			return
		}
		c := cells[i-len(AppNames())]
		results[i-len(AppNames())], errs[i-len(AppNames())] = r.runFaulted(c.app, c.proto, c.procs, plan)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	next := 0 // cells[] index, advanced in the same nesting order as below

	fmt.Fprintf(out, "Speedups under fault profile %q (seed %d)\n", profile, seed)
	switch profile {
	case fault.ProfileCrash:
		fmt.Fprintln(out, "home-based protocols with Recovery.Replicas=1; node 1 crashes mid-run and its pages are re-homed")
	case fault.ProfileCrashMgr:
		fmt.Fprintln(out, "home-based protocols with Recovery.Replicas=1; the barrier manager (node 0) and a lock manager (node 1) crash in turn, their manager roles failing over to backups")
	}
	tw := tabwriter.NewWriter(out, 4, 8, 2, ' ', 0)
	fmt.Fprint(tw, "Application\tProcs")
	for _, proto := range protos {
		fmt.Fprintf(tw, "\t%s", proto)
	}
	if crash {
		fmt.Fprint(tw, "\trehomed\tdetect(ms)")
	}
	if profile == fault.ProfileCrashMgr {
		fmt.Fprint(tw, "\tmgrs\tlocks")
	}
	fmt.Fprintln(tw)

	for _, app := range AppNames() {
		seq := r.Seq(app).Stats.Elapsed
		for _, procs := range r.Procs {
			fmt.Fprintf(tw, "%s\t%d", app, procs)
			var rehomed, mgrs, locks int64
			var detect sim.Time
			for _, proto := range protos {
				res := results[next]
				next++
				res.Stats.SeqTime = seq
				fmt.Fprintf(tw, "\t%.2f", res.Stats.Speedup())
				for _, nd := range res.Stats.Nodes {
					rehomed += nd.Counts.PagesRehomed
					mgrs += nd.Counts.MgrsRehomed
					locks += nd.Counts.LocksReclaimed
					if nd.Detect > detect {
						detect = nd.Detect
					}
				}
				if jsonDir != "" {
					name := fmt.Sprintf("fault-%s-%s-%s-p%d.json", profile, app, proto, procs)
					if err := writeFile(filepath.Join(jsonDir, name), res.Stats.WriteJSON); err != nil {
						return err
					}
				}
			}
			if crash {
				fmt.Fprintf(tw, "\t%d\t%.2f", rehomed, detect.Micros()/1e3)
			}
			if profile == fault.ProfileCrashMgr {
				fmt.Fprintf(tw, "\t%d\t%d", mgrs, locks)
			}
			fmt.Fprintln(tw)
		}
	}
	return tw.Flush()
}

// runFaulted is Run with a fault plan (uncached) and, for crash plans,
// single-replica home-state recovery.
func (r *Runner) runFaulted(app string, proto core.Protocol, procs int, plan fault.Plan) (*core.Result, error) {
	a, err := apps.New(app, r.Size)
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
	res, err := core.Run(opts, a, false)
	r.release()
	if err != nil {
		return nil, fmt.Errorf("bench: %s/%s/p%d: %w", app, proto, procs, err)
	}
	r.progressf("# ran %s/%s/p%d (faulted): simulated %.1fs (%.2fs real)\n",
		app, proto, procs, res.Stats.Elapsed.Micros()/1e6, time.Since(start).Seconds())
	return res, nil
}
