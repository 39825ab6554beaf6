// Command svmbench regenerates the paper's evaluation: every table and
// figure of "Performance Evaluation of Two Home-Based Lazy Release
// Consistency Protocols for Shared Virtual Memory Systems" (OSDI 1996).
//
// Usage:
//
//	svmbench -all -size paper          # the full reproduction (minutes)
//	svmbench -table 2 -size small      # one table, quickly
//	svmbench -fig 3
//	svmbench -sor0 -ablations
//	svmbench -scale                    # 64..1024-node scaling curves
//
// Runs are memoized, so -all shares the underlying sweep across tables.
package main

import (
	"flag"
	"fmt"
	"os"

	"gosvm/internal/apps"
	"gosvm/internal/bench"
	"gosvm/internal/cliflags"
	"gosvm/internal/paragon"
)

func main() {
	var (
		size       = flag.String("size", "small", "problem size: test, small, paper")
		table      = flag.Int("table", 0, "regenerate one table (1-6)")
		fig        = flag.Int("fig", 0, "regenerate one figure (3 or 4)")
		sor0       = flag.Bool("sor0", false, "run the §4.8 zero-initialized SOR experiment")
		ablations  = flag.Bool("ablations", false, "run the ablation suite")
		all        = flag.Bool("all", false, "regenerate everything")
		newRunner  = cliflags.AddRunner(flag.CommandLine, "8,32,64", 8192)
		scale      = flag.Bool("scale", false, "run the machine-size scaling sweep (fixed-size SOR, speedup/traffic/hot-spot skew vs node count)")
		scaleNodes = flag.String("scale-nodes", "", "node counts for -scale (default 64,128,256,512,1024)")
		scaleJSON  = flag.String("scale-json", "", "write the -scale grid to this JSON file")
		faults     = flag.String("faults", "", "comma-separated fault profiles to sweep (lossy, hostile, crash, crash-mgr)")
		seed       = flag.Int64("seed", 1, "seed for the -faults plans")
		jsonDir    = flag.String("json-dir", "", "write per-cell JSON statistics of the -faults sweep here")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	r, err := newRunner(apps.Size(*size))
	if err != nil {
		fail(err)
	}

	out := os.Stdout
	any := false
	section := func() {
		if any {
			fmt.Fprintln(out)
		}
		any = true
	}

	if *all || *table == 1 {
		section()
		r.Table1(out)
	}
	if *all || *table == 2 {
		section()
		r.Table2(out)
	}
	if *all || *table == 3 {
		section()
		c := r.Machine.Costs
		if c == (paragon.Costs{}) {
			c = paragon.DefaultCosts()
		}
		bench.Table3For(out, r.PageBytes, c)
	}
	if *all || *table == 4 {
		section()
		r.Table4(out)
	}
	if *all || *table == 5 {
		section()
		r.Table5(out)
	}
	if *all || *table == 6 {
		section()
		r.Table6(out)
	}
	if *all || *fig == 3 {
		section()
		r.Fig3(out)
	}
	if *all || *fig == 4 {
		section()
		r.Fig4(out)
	}
	if *all || *sor0 {
		section()
		r.SORZero(out)
	}
	if *all || *ablations {
		section()
		r.Ablations(out)
	}
	if *faults != "" {
		section()
		if err := r.FaultSweep(out, cliflags.Strings(*faults), *seed, *jsonDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *scale {
		section()
		var o bench.ScaleOpts
		o.GridFor(apps.Size(*size))
		if *scaleNodes != "" {
			nodes, err := cliflags.Ints(*scaleNodes)
			if err != nil {
				fail(err)
			}
			o.Nodes = nodes
		}
		if err := r.ScaleSweep(out, o, *scaleJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if !any {
		fmt.Fprintln(os.Stderr, "nothing selected; use -all, -table N, -fig N, -sor0, -ablations, -scale, or -faults")
		os.Exit(2)
	}
}
