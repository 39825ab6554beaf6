package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

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
	return eachProfile(out, profiles, func(profile string) error {
		return r.faultTable(out, profile, seed, jsonDir)
	})
}

// eachProfile renders one table per fault profile, a blank line between.
func eachProfile(out io.Writer, profiles []string, table func(profile string) error) error {
	for i, profile := range profiles {
		if i > 0 {
			fmt.Fprintln(out)
		}
		if err := table(profile); err != nil {
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

	// Every cell is a full validated run under the one shared plan (the
	// injector only reads it), given its application's memoized sequential
	// baseline so Speedup and the JSON carry it.
	cells := grid(AppNames(), r.Procs, protos)
	results, err := sweep(r, cells, func(c cell) (*core.Result, error) {
		res, err := r.execApp(c.app, r.faultOpts(c.proto, c.procs, plan), "faulted")
		if err == nil {
			res.Stats.SeqTime = r.Seq(c.app).Stats.Elapsed
		}
		return res, err
	})
	if err != nil {
		return err
	}

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

	// One row per (application, machine size), one speedup column per
	// protocol; the crash columns total over the row's protocols.
	var rehomed, mgrs, locks int64
	var detect sim.Time
	for i, c := range cells {
		res := results[i]
		if i%len(protos) == 0 {
			fmt.Fprintf(tw, "%s\t%d", c.app, c.procs)
			rehomed, mgrs, locks, detect = 0, 0, 0, 0
		}
		fmt.Fprintf(tw, "\t%.2f", res.Stats.Speedup())
		sum := res.Stats.Sum()
		rehomed += sum.Counts.PagesRehomed
		mgrs += sum.Counts.MgrsRehomed
		locks += sum.Counts.LocksReclaimed
		if sum.Detect > detect {
			detect = sum.Detect
		}
		name := fmt.Sprintf("fault-%s-%s-%s-p%d.json", profile, c.app, c.proto, c.procs)
		if err := writeCell(jsonDir, name, res.Stats.WriteJSON); err != nil {
			return err
		}
		if i%len(protos) < len(protos)-1 {
			continue
		}
		if crash {
			fmt.Fprintf(tw, "\t%d\t%.2f", rehomed, ms(detect))
		}
		if profile == fault.ProfileCrashMgr {
			fmt.Fprintf(tw, "\t%d\t%d", mgrs, locks)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}
