package bench

import (
	"fmt"
	"io"
	"math"
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
// kills the synchronization managers instead, whose requests wait out
// each restart. Faulted runs are not memoized —
// the plan is part of the cell.
//
// When jsonDir is non-empty every cell's statistics are written there as
// fault-<profile>-<app>-<proto>-p<procs>.json for machine consumption.
func (r *Runner) FaultSweep(out io.Writer, profiles []string, seed int64, jsonDir string) error {
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

	// Every cell is a full run under the one shared plan (the injector
	// only reads it), validated against its application's memoized
	// sequential baseline, whose time Speedup and the JSON carry.
	cells := grid(AppNames(), r.Procs, protos)
	results, err := sweep(r, cells, func(c cell) (*core.Result, error) {
		res, err := r.execApp(c.app, r.faultOpts(c.proto, c.procs, plan), "faulted")
		if err != nil {
			return nil, err
		}
		seq := r.Seq(c.app)
		if err := validateResult(seq.Data, res.Data, resultTol(c.app)); err != nil {
			return nil, fmt.Errorf("bench: %v (faulted) differs from the sequential run: %w", c, err)
		}
		res.Stats.SeqTime = seq.Stats.Elapsed
		return res, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "Speedups under fault profile %q (seed %d)\n", profile, seed)
	switch profile {
	case fault.ProfileCrash:
		fmt.Fprintln(out, "home-based protocols with Recovery.Replicas=1; node 1 crashes mid-run and its pages are re-homed")
	case fault.ProfileCrashMgr:
		fmt.Fprintln(out, "home-based protocols with Recovery.Replicas=1; the barrier manager (node 0) and a lock manager (node 1) crash in turn; their pages are re-homed and requests to them wait out each restart")
	}
	tw := tabwriter.NewWriter(out, 4, 8, 2, ' ', 0)
	fmt.Fprint(tw, "Application\tProcs")
	for _, proto := range protos {
		fmt.Fprintf(tw, "\t%s", proto)
	}
	if crash {
		fmt.Fprint(tw, "\trehomed\tdetect(ms)")
	}
	fmt.Fprintln(tw)

	// One row per (application, machine size), one speedup column per
	// protocol; the crash columns total over the row's protocols.
	var rehomed int64
	var detect sim.Time
	for i, c := range cells {
		res := results[i]
		if i%len(protos) == 0 {
			fmt.Fprintf(tw, "%s\t%d", c.app, c.procs)
			rehomed, detect = 0, 0
		}
		fmt.Fprintf(tw, "\t%.2f", res.Stats.Speedup())
		sum := res.Stats.Sum()
		rehomed += sum.Counts.PagesRehomed
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
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// resultTol is how far a parallel result may stray from the sequential
// one: faults perturb timing, never the answer, so the barrier-structured
// apps must match bitwise; the water codes reduce forces under locks
// whose acquisition order is timing-dependent, so they carry the tiny
// tolerance the apps tests use.
func resultTol(app string) float64 {
	if app == "water-nsq" || app == "water-sp" {
		return 1e-9
	}
	return 0
}

// validateResult compares a gathered result image against a reference,
// word for word when tol is zero, else within relative tolerance; a NaN
// word never passes.
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
		if rel := d / math.Max(1, math.Abs(want[i])); rel > tol || math.IsNaN(rel) {
			return fmt.Errorf("result word %d: want %v, got %v (rel %g)", i, want[i], got[i], rel)
		}
	}
	return nil
}
