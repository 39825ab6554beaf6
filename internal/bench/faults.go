package bench

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"gosvm/internal/core"
	"gosvm/internal/fault"
)

// FaultSweep reruns the Table-2 speedup grid under fault injection: one
// sub-table per profile, every cell a full validated run under all four
// protocols. The crash profile takes node 1 down mid-run and the crash-mgr
// profile the synchronization managers; a crashed node keeps its state,
// and requests to it wait out each restart. Faulted runs are not
// memoized — the plan is part of the cell.
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

func (r *Runner) faultTable(out io.Writer, profile string, seed int64, jsonDir string) error {
	plan, err := fault.Profile(profile, seed)
	if err != nil {
		return err
	}
	protos := core.Protocols

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
		fmt.Fprintln(out, "node 1 crashes mid-run; requests to it wait out its restart")
	case fault.ProfileCrashMgr:
		fmt.Fprintln(out, "the barrier manager (node 0) and a lock manager (node 1) crash in turn; requests to them wait out each restart")
	}
	tw := tabwriter.NewWriter(out, 4, 8, 2, ' ', 0)
	fmt.Fprint(tw, "Application\tProcs")
	for _, proto := range protos {
		fmt.Fprintf(tw, "\t%s", proto)
	}
	fmt.Fprintln(tw)

	// One row per (application, machine size), one speedup column per
	// protocol.
	for i, c := range cells {
		res := results[i]
		if i%len(protos) == 0 {
			fmt.Fprintf(tw, "%s\t%d", c.app, c.procs)
		}
		fmt.Fprintf(tw, "\t%.2f", res.Stats.Speedup())
		name := fmt.Sprintf("fault-%s-%s-%s-p%d.json", profile, c.app, c.proto, c.procs)
		if err := writeCell(jsonDir, name, res.Stats.WriteJSON); err != nil {
			return err
		}
		if i%len(protos) == len(protos)-1 {
			fmt.Fprintln(tw)
		}
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
