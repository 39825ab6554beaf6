// Command svmtrace runs a benchmark with protocol event tracing and
// prints the event stream: page faults, fetches, diff traffic, write
// notices, locks, barriers, and garbage collection, each stamped with
// simulated time and node.
//
// Usage:
//
//	svmtrace -app sor -proto hlrc -procs 4 -size test
//	svmtrace -app water-nsq -proto lrc -procs 8 -kind diff-apply -page 3
//	svmtrace -app sor -proto hlrc -summary
package main

import (
	"flag"
	"fmt"
	"os"

	"gosvm"
	"gosvm/internal/apps"
	"gosvm/internal/cliflags"
	"gosvm/internal/trace"
)

func main() {
	var (
		appName  = flag.String("app", "sor", "application: lu, sor, sor-zero, water-nsq, water-sp, raytrace")
		protoStr = flag.String("proto", gosvm.HLRC.String(), "protocol: lrc, olrc, hlrc, ohlrc")
		mf       = cliflags.AddMachine(flag.CommandLine, 4, 4096)
		size     = flag.String("size", "test", "problem size: test, small, paper")
		limit    = flag.Int("limit", 100000, "maximum events to retain")
		kindFlag = flag.String("kind", "", "only events of this kind")
		nodeFlag = flag.Int("node", -1, "only events of this node")
		pageFlag = flag.Int("fpage", -1, "only events touching this page")
		summary  = flag.Bool("summary", false, "print per-kind counts instead of events")
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
	app, err := apps.New(*appName, apps.Size(*size))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res, err := gosvm.Run(gosvm.Options{
		Protocol:   proto,
		Machine:    machine,
		PageBytes:  mf.Page,
		TraceLimit: *limit,
	}, app)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	log := res.Trace
	if *summary {
		counts := log.Counts()
		fmt.Printf("%d events over %.2f simulated seconds:\n", log.Len(), res.Stats.Elapsed.Micros()/1e6)
		for k := trace.Kind(0); k < trace.NumKinds; k++ {
			if counts[k] > 0 {
				fmt.Printf("  %-14s %8d\n", k, counts[k])
			}
		}
		return
	}

	events := log.Events()
	if *kindFlag != "" {
		k, err := trace.ParseKind(*kindFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		events = log.ByKind(k)
	}
	for _, e := range events {
		if *nodeFlag >= 0 && e.Node != *nodeFlag {
			continue
		}
		if *pageFlag >= 0 && e.Page != *pageFlag {
			continue
		}
		fmt.Println(e)
	}
}
