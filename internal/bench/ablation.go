package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"gosvm/internal/core"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
)

// lrcVsHLRC is the protocol pair of the paper's LRC-against-HLRC
// comparisons (Tables 4-6, Figure 4, the two-protocol ablations).
var lrcVsHLRC = []core.Protocol{core.ProtoLRC, core.ProtoHLRC}

// versus runs the two arms of a control-against-treatment ablation side
// by side — the memoized cell as the control, the same cell with tweak
// applied to its Options as the uncached treatment — and returns their
// simulated times.
func (r *Runner) versus(app string, proto core.Protocol, procs int, note string, tweak func(*core.Options)) (control, treatment sim.Time) {
	opts := r.cellOpts(proto, procs)
	tweak(&opts)
	res := must(sweep(r, []bool{false, true}, func(treated bool) (*core.Result, error) {
		if treated {
			return r.execApp(app, opts, note)
		}
		return r.Run(app, proto, procs), nil
	}))
	return res[0].Stats.Elapsed, res[1].Stats.Elapsed
}

// AblationHomePlacement compares application-directed home placement with
// blind round-robin under HLRC.
func (r *Runner) AblationHomePlacement(w io.Writer, app string, procs int) (directed, roundRobin sim.Time) {
	directed, roundRobin = r.versus(app, core.ProtoHLRC, procs, "round-robin homes", func(o *core.Options) { o.HomeRoundRobin = true })
	fmt.Fprintf(w, "Ablation (home placement, HLRC, %s, %d nodes): app-directed %ss, round-robin %ss\n",
		app, procs, seconds(directed), seconds(roundRobin))
	return directed, roundRobin
}

// AblationInterruptCost measures the LRC-vs-HLRC gap as the receive
// interrupt cost shrinks towards modern-network values — the paper's §4.8
// discussion that faster interrupts narrow the gap.
func (r *Runner) AblationInterruptCost(w io.Writer, app string, procs int) {
	fmt.Fprintf(w, "Ablation (interrupt cost, %s, %d nodes):\n", app, procs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Interrupt (us)\tLRC (s)\tHLRC (s)\tHLRC advantage")
	type arm struct {
		intr  sim.Time // receive interrupt, microseconds
		proto core.Protocol
	}
	var arms []arm
	for _, intr := range []sim.Time{690, 100, 10} {
		for _, proto := range lrcVsHLRC {
			arms = append(arms, arm{intr, proto})
		}
	}
	ress := must(sweep(r, arms, func(a arm) (*core.Result, error) {
		opts := r.cellOpts(a.proto, procs)
		opts.Machine.Defaults() // resolve the cost profile before overriding one entry
		opts.Machine.Costs.ReceiveInterrupt = a.intr * sim.Microsecond
		return r.execApp(app, opts, fmt.Sprintf("%dus interrupt", a.intr))
	}))
	for i := 0; i < len(arms); i += 2 {
		l, h := ress[i].Stats.Elapsed, ress[i+1].Stats.Elapsed
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.1f%%\n",
			arms[i].intr, seconds(l), seconds(h), (float64(l)/float64(h)-1)*100)
	}
	tw.Flush()
}

// AblationPageSize compares 4KB and 8KB pages under HLRC and LRC.
func (r *Runner) AblationPageSize(w io.Writer, app string, procs int) {
	fmt.Fprintf(w, "Ablation (page size, %s, %d nodes):\n", app, procs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Page (B)\tLRC (s)\tHLRC (s)")
	type arm struct {
		page  int
		proto core.Protocol
	}
	var arms []arm
	for _, page := range []int{4096, 8192} {
		for _, proto := range lrcVsHLRC {
			arms = append(arms, arm{page, proto})
		}
	}
	ress := must(sweep(r, arms, func(a arm) (*core.Result, error) {
		opts := r.cellOpts(a.proto, procs)
		opts.PageBytes = a.page
		return r.execApp(app, opts, fmt.Sprintf("%d B pages", a.page))
	}))
	for i := 0; i < len(arms); i += 2 {
		fmt.Fprintf(tw, "%d\t%s\t%s\n", arms[i].page, seconds(ress[i].Stats.Elapsed), seconds(ress[i+1].Stats.Elapsed))
	}
	tw.Flush()
}

// AblationGCThreshold shows the LRC time/memory trade-off of the garbage
// collection trigger.
func (r *Runner) AblationGCThreshold(w io.Writer, app string, procs int) {
	fmt.Fprintf(w, "Ablation (GC threshold, LRC, %s, %d nodes):\n", app, procs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Threshold (MB)\tTime (s)\tGC time (s)\tPeak proto mem (MB)\tGCs")
	thrs := []int64{1 << 20, 8 << 20, 256 << 20}
	ress := must(sweep(r, thrs, func(thr int64) (*core.Result, error) {
		opts := r.cellOpts(core.ProtoLRC, procs)
		opts.GCThreshold = thr
		return r.execApp(app, opts, fmt.Sprintf("GC at %d MB", thr>>20))
	}))
	for i, thr := range thrs {
		st := ress[i].Stats
		fmt.Fprintf(tw, "%d\t%s\t%.2f\t%s\t%d\n",
			thr>>20, seconds(st.Elapsed), st.AvgNode().Time[stats.CatGC].Micros()/1e6,
			mb(st.PeakProtoMem()), st.Sum().Counts.GCs)
	}
	tw.Flush()
}

// AblationMesh compares the crossbar network model with the link-level
// 2-D wormhole mesh under HLRC.
func (r *Runner) AblationMesh(w io.Writer, app string, procs int) (crossbar, meshTime sim.Time) {
	crossbar, meshTime = r.versus(app, core.ProtoHLRC, procs, "mesh", func(o *core.Options) { o.Machine.Topology = core.TopoMesh })
	fmt.Fprintf(w, "Ablation (network model, HLRC, %s, %d nodes): crossbar %ss, 2-D mesh %ss\n",
		app, procs, seconds(crossbar), seconds(meshTime))
	return crossbar, meshTime
}

// Ablations runs the full ablation suite on a representative subset.
func (r *Runner) Ablations(w io.Writer) {
	procs := r.Procs[len(r.Procs)-1]
	r.AblationHomePlacement(w, "sor", procs)
	r.AblationInterruptCost(w, "water-nsq", procs)
	r.AblationPageSize(w, "water-nsq", procs)
	r.AblationGCThreshold(w, "water-nsq", procs)
	r.AblationMesh(w, "water-nsq", procs)
}
