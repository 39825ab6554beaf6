// Command svmserve runs the open-loop request-serving workload: a
// key-value store sharded over SVM pages, with striped per-key locks and
// seqlock-validated lock-free reads, driven by seeded Poisson client
// populations, swept over offered load x protocol x machine size with
// p50/p99/p999 tail latency, throughput-vs-offered-load, seqlock reads
// and fallbacks, and saturation detection.
//
// Usage:
//
//	svmserve                                   # default sweep
//	svmserve -loads 500,1000,2000,4000 -procs 4,8
//	svmserve -faults crash -window-ms 60       # tail latency under a mid-run crash
//	svmserve -zipf 0.99 -mix 50,40,10
//	svmserve -json-dir out/serve               # per-cell JSON with full histograms
//
// Output is byte-identical at any -parallel level for a fixed seed.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"gosvm/internal/apps"
	"gosvm/internal/bench"
	"gosvm/internal/cliflags"
	"gosvm/internal/core"
	"gosvm/internal/serve"
	"gosvm/internal/sim"
)

func main() {
	var (
		newRunner = cliflags.AddRunner(flag.CommandLine, "4,8", 4096)
		protoFlag = flag.String("protocols", "", "protocol columns (default: lrc,olrc,hlrc,ohlrc)")
		loadsFlag = flag.String("loads", "500,1000,2000,4000", "offered loads to sweep, total req/s across the machine")
		windowMs  = flag.Float64("window-ms", 50, "arrival window in simulated milliseconds")
		keys      = flag.Int("keys", 4096, "key-space size")
		mix       = flag.String("mix", "80,15,5", "read,write,scan percentages")
		zipf      = flag.Float64("zipf", 0.9, "Zipfian key skew theta in [0,1); 0 = uniform")
		ff        = cliflags.AddFault(flag.CommandLine, "")
		jsonDir   = flag.String("json-dir", "", "write per-cell JSON statistics (with latency histograms) here")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		os.Exit(2)
	}

	r, err := newRunner(apps.SizeSmall)
	if err != nil {
		fail("%v", err)
	}

	loads, err := cliflags.Floats(*loadsFlag)
	if err != nil {
		fail("bad -loads: %v", err)
	}
	for _, l := range loads {
		if !(l > 0) || math.IsInf(l, 1) {
			fail("bad -loads entry %v: want a positive, finite rate", l)
		}
	}
	if math.IsNaN(*zipf) || math.IsInf(*zipf, 0) {
		fail("bad -zipf %v: want a finite theta in [0,1)", *zipf)
	}

	var protos []core.Protocol
	for _, s := range cliflags.Strings(*protoFlag) {
		p, err := core.ParseProtocol(s)
		if err != nil {
			fail("%v", err)
		}
		protos = append(protos, p)
	}

	pcts, err := cliflags.Ints(*mix)
	if err != nil || len(pcts) != 3 {
		fail("bad -mix %q: want read,write,scan percentages", *mix)
	}

	cfg := serve.Config{
		Keys:      *keys,
		Window:    sim.Time(*windowMs * float64(sim.Millisecond)),
		ReadPct:   pcts[0],
		WritePct:  pcts[1],
		ScanPct:   pcts[2],
		ZipfTheta: *zipf,
		Seed:      ff.Seed,
	}

	opts := bench.ServeSweepOpts{
		Base:    cfg,
		Loads:   loads,
		Protos:  protos,
		Profile: ff.Profile,
		Seed:    ff.Seed,
	}
	if err := r.ServeSweep(os.Stdout, opts, *jsonDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
