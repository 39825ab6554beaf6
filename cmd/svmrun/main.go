// Command svmrun executes one benchmark application under one SVM
// protocol and prints its statistics: simulated execution time, speedup
// over sequential, the per-node time breakdown, traffic, and memory use.
//
// Usage:
//
//	svmrun -app water-nsq -proto hlrc -procs 32 -size small
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"gosvm"
	"gosvm/internal/apps"
	"gosvm/internal/cliflags"
	"gosvm/internal/stats"
)

func main() {
	var (
		appName  = flag.String("app", "sor", "application: lu, sor, sor-zero, water-nsq, water-sp, raytrace")
		protoStr = flag.String("proto", gosvm.HLRC.String(), "protocol: lrc, olrc, hlrc, ohlrc")
		mf       = cliflags.AddMachine(flag.CommandLine, 8, 8192)
		ff       = cliflags.AddFault(flag.CommandLine, gosvm.FaultNone)
		size     = flag.String("size", "small", "problem size: test, small, paper")
		gcThr    = flag.Int64("gc-threshold", 8<<20, "homeless GC trigger, bytes of protocol memory per node")
		noSeq    = flag.Bool("noseq", false, "skip the sequential baseline run")
		jsonOut  = flag.Bool("json", false, "emit machine-readable JSON statistics instead of text")
	)
	flag.Parse()

	proto, err := gosvm.ParseProtocol(*protoStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	machine, err := mf.Machine()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	plan, err := ff.Plan()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	mk := func() gosvm.App {
		a, err := apps.New(*appName, apps.Size(*size))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return a
	}

	opts := gosvm.Options{
		Protocol:    proto,
		Machine:     machine,
		PageBytes:   mf.Page,
		GCThreshold: *gcThr,
		Fault:       plan,
	}

	// The sequential baseline is an independent simulation with its own
	// kernel: overlap it with the main run.
	var (
		seq    *gosvm.Result
		seqErr error
		seqCh  = make(chan struct{})
	)
	if !*noSeq {
		app := mk()
		go func() {
			defer close(seqCh)
			seq, seqErr = gosvm.Sequential(app, mf.Page)
		}()
	}

	res, err := gosvm.Run(opts, mk())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !*noSeq {
		<-seqCh
		if seqErr != nil {
			fmt.Fprintln(os.Stderr, seqErr)
			os.Exit(1)
		}
		res.Stats.SeqTime = seq.Stats.Elapsed
	}

	if *jsonOut {
		if err := res.Stats.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("%s / %s / %d nodes / %s problem\n", *appName, proto, machine.Nodes, *size)
	fmt.Printf("parallel time: %.2f s (simulated)\n", res.Stats.Elapsed.Micros()/1e6)
	if !*noSeq {
		fmt.Printf("sequential:    %.2f s (simulated)\n", res.Stats.SeqTime.Micros()/1e6)
		fmt.Printf("speedup:       %.2f\n", res.Stats.Speedup())
	}

	avg := res.Stats.AvgNode()
	fmt.Println("\naverage per-node time breakdown:")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		fmt.Fprintf(tw, "  %v\t%8.2f s\n", c, avg.Time[c].Micros()/1e6)
	}
	tw.Flush()

	fmt.Println("\nper-node operation counts (average):")
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  read misses\t%d\n", avg.Counts.ReadMisses)
	fmt.Fprintf(tw, "  pages fetched\t%d\n", avg.Counts.PagesFetched)
	fmt.Fprintf(tw, "  diffs created\t%d\n", avg.Counts.DiffsCreated)
	fmt.Fprintf(tw, "  diffs applied\t%d\n", avg.Counts.DiffsApplied)
	fmt.Fprintf(tw, "  lock acquires\t%d\n", avg.Counts.LockAcquires)
	fmt.Fprintf(tw, "  barriers\t%d\n", avg.Counts.Barriers)
	fmt.Fprintf(tw, "  garbage collections\t%d\n", avg.Counts.GCs)
	tw.Flush()

	fmt.Println("\ncommunication and memory:")
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  messages\t%d\n", res.Stats.TotalMsgs())
	fmt.Fprintf(tw, "  update traffic\t%.2f MB\n", float64(res.Stats.TotalBytes(stats.ClassData))/(1<<20))
	fmt.Fprintf(tw, "  protocol traffic\t%.2f MB\n", float64(res.Stats.TotalBytes(stats.ClassProtocol))/(1<<20))
	fmt.Fprintf(tw, "  peak protocol memory/node\t%.2f MB\n", float64(res.Stats.PeakProtoMem())/(1<<20))
	fmt.Fprintf(tw, "  application memory/node\t%.2f MB\n", float64(res.Stats.TotalAppMem())/float64(machine.Nodes)/(1<<20))
	tw.Flush()

	if ff.Profile != gosvm.FaultNone {
		fmt.Printf("\nfault injection (profile %s, seed %d; per-node average):\n", ff.Profile, ff.Seed)
		tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "  messages dropped\t%d\n", avg.Counts.MsgsDropped)
		fmt.Fprintf(tw, "  retransmissions\t%d\n", avg.Counts.Retries)
		fmt.Fprintf(tw, "  duplicates suppressed\t%d\n", avg.Counts.DupsSuppressed)
		fmt.Fprintf(tw, "  recovery time\t%.2f ms\n", avg.Recovery.Micros()/1e3)
		tw.Flush()
	}
}
