package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"gosvm/internal/apps"
	"gosvm/internal/core"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
)

// runWith executes one uncached run with custom options.
func (r *Runner) runWith(app string, opts core.Options) *core.Result {
	a, err := apps.New(app, r.Size)
	if err != nil {
		panic(err)
	}
	r.acquire()
	defer r.release()
	res, err := core.Run(opts, a, false)
	if err != nil {
		panic(fmt.Sprintf("bench: ablation %s/%s: %v", app, opts.Protocol, err))
	}
	return res
}

// AblationEagerDiff compares lazy vs eager diff creation under LRC.
func (r *Runner) AblationEagerDiff(w io.Writer, app string, procs int) (lazy, eager sim.Time) {
	opts := r.cellOpts(core.ProtoLRC, procs)
	opts.EagerDiff = true
	r.inParallel(
		func() { lazy = r.Run(app, core.ProtoLRC, procs).Stats.Elapsed },
		func() { eager = r.runWith(app, opts).Stats.Elapsed },
	)
	fmt.Fprintf(w, "Ablation (eager diffs, LRC, %s, %d nodes): lazy %ss, eager %ss\n",
		app, procs, seconds(lazy), seconds(eager))
	return lazy, eager
}

// AblationHomePlacement compares application-directed home placement with
// blind round-robin under HLRC.
func (r *Runner) AblationHomePlacement(w io.Writer, app string, procs int) (directed, roundRobin sim.Time) {
	opts := r.cellOpts(core.ProtoHLRC, procs)
	opts.HomeRoundRobin = true
	r.inParallel(
		func() { directed = r.Run(app, core.ProtoHLRC, procs).Stats.Elapsed },
		func() { roundRobin = r.runWith(app, opts).Stats.Elapsed },
	)
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
	intrs := []sim.Time{690, 100, 10}
	ls := make([]sim.Time, len(intrs))
	hs := make([]sim.Time, len(intrs))
	r.forEach(2*len(intrs), func(i int) {
		proto, out := core.ProtoLRC, ls
		if i%2 == 1 {
			proto, out = core.ProtoHLRC, hs
		}
		opts := r.cellOpts(proto, procs)
		opts.Machine.Defaults() // resolve the cost profile before overriding one entry
		opts.Machine.Costs.ReceiveInterrupt = intrs[i/2] * sim.Microsecond
		out[i/2] = r.runWith(app, opts).Stats.Elapsed
	})
	for i, intr := range intrs {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.1f%%\n",
			intr, seconds(ls[i]), seconds(hs[i]), (float64(ls[i])/float64(hs[i])-1)*100)
	}
	tw.Flush()
}

// AblationPageSize compares 4KB and 8KB pages under HLRC and LRC.
func (r *Runner) AblationPageSize(w io.Writer, app string, procs int) {
	fmt.Fprintf(w, "Ablation (page size, %s, %d nodes):\n", app, procs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Page (B)\tLRC (s)\tHLRC (s)")
	pbs := []int{4096, 8192}
	times := make([]sim.Time, 2*len(pbs))
	r.forEach(len(times), func(i int) {
		proto := core.ProtoLRC
		if i%2 == 1 {
			proto = core.ProtoHLRC
		}
		opts := r.cellOpts(proto, procs)
		opts.PageBytes = pbs[i/2]
		times[i] = r.runWith(app, opts).Stats.Elapsed
	})
	for i, pb := range pbs {
		fmt.Fprintf(tw, "%d\t%s\t%s\n", pb, seconds(times[2*i]), seconds(times[2*i+1]))
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
	ress := make([]*core.Result, len(thrs))
	r.forEach(len(thrs), func(i int) {
		opts := r.cellOpts(core.ProtoLRC, procs)
		opts.GCThreshold = thrs[i]
		ress[i] = r.runWith(app, opts)
	})
	for i, thr := range thrs {
		res := ress[i]
		avg := res.Stats.AvgNode()
		var gcs int64
		for _, nd := range res.Stats.Nodes {
			gcs += nd.Counts.GCs
		}
		fmt.Fprintf(tw, "%d\t%s\t%.2f\t%s\t%d\n",
			thr>>20, seconds(res.Stats.Elapsed), avg.Time[stats.CatGC].Micros()/1e6,
			mb(res.Stats.PeakProtoMem()), gcs)
	}
	tw.Flush()
}

// AblationOverlapLocks measures the §4.3 extension: synchronization
// serviced by the co-processor under OHLRC.
func (r *Runner) AblationOverlapLocks(w io.Writer, app string, procs int) (base, overlapped sim.Time) {
	opts := r.cellOpts(core.ProtoOHLRC, procs)
	opts.OverlapLocks = true
	r.inParallel(
		func() { base = r.Run(app, core.ProtoOHLRC, procs).Stats.Elapsed },
		func() { overlapped = r.runWith(app, opts).Stats.Elapsed },
	)
	fmt.Fprintf(w, "Ablation (co-processor lock service, OHLRC, %s, %d nodes): compute-serviced %ss, coproc-serviced %ss\n",
		app, procs, seconds(base), seconds(overlapped))
	return base, overlapped
}

// AblationMesh compares the crossbar network model with the link-level
// 2-D wormhole mesh under HLRC.
func (r *Runner) AblationMesh(w io.Writer, app string, procs int) (crossbar, meshTime sim.Time) {
	opts := r.cellOpts(core.ProtoHLRC, procs)
	opts.Machine.Topology = core.TopoMesh
	r.inParallel(
		func() { crossbar = r.Run(app, core.ProtoHLRC, procs).Stats.Elapsed },
		func() { meshTime = r.runWith(app, opts).Stats.Elapsed },
	)
	fmt.Fprintf(w, "Ablation (network model, HLRC, %s, %d nodes): crossbar %ss, 2-D mesh %ss\n",
		app, procs, seconds(crossbar), seconds(meshTime))
	return crossbar, meshTime
}

// AblationAURC compares the AURC hardware emulation against HLRC and LRC:
// the comparison that motivated HLRC's design (AURC's update propagation
// is free but needs hardware; HLRC pays diffing costs in software).
func (r *Runner) AblationAURC(w io.Writer, app string, procs int) {
	fmt.Fprintf(w, "Ablation (AURC hardware emulation, %s, %d nodes):\n", app, procs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Protocol\tTime (s)\tUpdate traffic (MB)")
	protos := []core.Protocol{core.ProtoLRC, core.ProtoHLRC, core.ProtoAURC}
	ress := make([]*core.Result, len(protos))
	r.forEach(len(protos), func(i int) {
		if protos[i] == core.ProtoAURC {
			ress[i] = r.runWith(app, r.cellOpts(protos[i], procs))
		} else {
			ress[i] = r.Run(app, protos[i], procs)
		}
	})
	for i, proto := range protos {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", proto, seconds(ress[i].Stats.Elapsed),
			mb(ress[i].Stats.TotalBytes(stats.ClassData)))
	}
	tw.Flush()
}

// Ablations runs the full ablation suite on a representative subset.
func (r *Runner) Ablations(w io.Writer) {
	procs := r.Procs[len(r.Procs)-1]
	r.AblationEagerDiff(w, "water-nsq", procs)
	r.AblationHomePlacement(w, "sor", procs)
	r.AblationInterruptCost(w, "water-nsq", procs)
	r.AblationPageSize(w, "water-nsq", procs)
	r.AblationGCThreshold(w, "water-nsq", procs)
	r.AblationOverlapLocks(w, "water-nsq", procs)
	r.AblationAURC(w, "water-nsq", procs)
	r.AblationMesh(w, "water-nsq", procs)
}
