package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"gosvm/internal/core"
	"gosvm/internal/paragon"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
)

// seqCells are the sequential baselines, one per application.
func seqCells() []cell {
	return grid(AppNames(), []int{1}, []core.Protocol{core.ProtoSeq})
}

// Table1 reports problem sizes and sequential execution times.
func (r *Runner) Table1(w io.Writer) {
	r.warm(seqCells())
	fmt.Fprintln(w, "Table 1: benchmark applications and sequential execution times")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Application\tSequential time (s)")
	for _, app := range AppNames() {
		seq := r.Seq(app)
		fmt.Fprintf(tw, "%s\t%s\n", app, seconds(seq.Stats.Elapsed))
	}
	tw.Flush()
}

// Table2Row is one application's speedups.
type Table2Row struct {
	App      string
	Speedups map[int]map[core.Protocol]float64 // procs -> proto -> speedup
}

// Table2Data computes the speedup table. The full grid — sequential
// baselines plus every app × protocol × machine size — is warmed across
// host cores first; row assembly is then pure cache reads.
func (r *Runner) Table2Data() []Table2Row {
	r.warm(append(seqCells(), grid(AppNames(), r.Procs, core.Protocols)...))
	var rows []Table2Row
	for _, app := range AppNames() {
		row := Table2Row{App: app, Speedups: map[int]map[core.Protocol]float64{}}
		for _, p := range r.Procs {
			row.Speedups[p] = map[core.Protocol]float64{}
			for _, proto := range core.Protocols {
				row.Speedups[p][proto] = r.Speedup(app, proto, p)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Table2 reports speedups for the four protocols at each machine size.
func (r *Runner) Table2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: speedups (vs. sequential) with LRC, OLRC, HLRC, OHLRC")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "\t")
	for _, p := range r.Procs {
		fmt.Fprintf(tw, "%d nodes\t\t\t\t", p)
	}
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "Application\t")
	for range r.Procs {
		fmt.Fprint(tw, "LRC\tOLRC\tHLRC\tOHLRC\t")
	}
	fmt.Fprintln(tw)
	for _, row := range r.Table2Data() {
		fmt.Fprintf(tw, "%s\t", row.App)
		for _, p := range r.Procs {
			for _, proto := range core.Protocols {
				fmt.Fprintf(tw, "%.1f\t", row.Speedups[p][proto])
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Table3For reports cost profile c's basic operation costs and the derived
// round-trip latencies quoted in §4.3: Table 3 for paragon.DefaultCosts,
// or any other profile (e.g. paragon.ModernCosts).
func Table3For(w io.Writer, pageBytes int, c paragon.Costs) {
	fmt.Fprintln(w, "Table 3: timings for basic operations (model constants)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	us := func(t sim.Time) string { return fmt.Sprintf("%.0f", t.Micros()) }
	fmt.Fprintf(tw, "Message latency\t%s us\n", us(c.MsgLatency))
	fmt.Fprintf(tw, "Page transfer (%d B)\t%s us\n", pageBytes, us(c.Wire(pageBytes)-c.MsgLatency))
	fmt.Fprintf(tw, "Receive interrupt\t%s us\n", us(c.ReceiveInterrupt))
	fmt.Fprintf(tw, "Twin copy\t%s us\n", us(c.TwinCost(pageBytes)))
	fmt.Fprintf(tw, "Diff creation\t%s-%s us\n", us(c.DiffCreateBase), us(c.DiffCreateCost(pageBytes/8)))
	fmt.Fprintf(tw, "Diff application\t%s-%s us\n", us(c.DiffApplyBase), us(c.DiffApplyCost(pageBytes/8)))
	fmt.Fprintf(tw, "Page fault\t%s us\n", us(c.PageFault))
	fmt.Fprintf(tw, "Page invalidation\t%s us\n", us(c.PageInval))
	fmt.Fprintf(tw, "Page protection\t%s us\n", us(c.PageProtect))
	tw.Flush()
	fmt.Fprintln(w, "Derived minimum latencies (§4.3):")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	hlrcMiss := c.PageFault + c.Wire(4) + c.ReceiveInterrupt + c.Wire(pageBytes)
	ohlrcMiss := c.PageFault + c.Wire(4) + c.Wire(pageBytes)
	lrcMiss := c.PageFault + c.Wire(4) + c.ReceiveInterrupt + c.Wire(8) + c.DiffApplyCost(1)
	olrcMiss := c.PageFault + c.Wire(4) + c.Wire(8) + c.DiffApplyCost(1)
	acq := 2*c.Wire(4) + 2*c.ReceiveInterrupt + c.Wire(64) + c.LockHandling
	acqCoproc := 2*c.Wire(4) + c.Wire(64) + c.LockHandling
	fmt.Fprintf(tw, "HLRC page miss\t%s us\n", us(hlrcMiss))
	fmt.Fprintf(tw, "OHLRC page miss\t%s us\n", us(ohlrcMiss))
	fmt.Fprintf(tw, "LRC page miss (1-word diff)\t%s us\n", us(lrcMiss))
	fmt.Fprintf(tw, "OLRC page miss (1-word diff)\t%s us\n", us(olrcMiss))
	fmt.Fprintf(tw, "Remote lock acquire\t%s us\n", us(acq))
	fmt.Fprintf(tw, "Remote lock acquire (co-processor)\t%s us\n", us(acqCoproc))
	tw.Flush()
}

// Table4Row is the per-node operation counts of one app/protocol/size.
type Table4Row struct {
	App    string
	Procs  int
	Proto  core.Protocol
	Counts stats.Counters
}

// Table4Data gathers LRC vs HLRC operation counts at the smallest and
// largest machine size.
func (r *Runner) Table4Data() []Table4Row {
	cells := grid(AppNames(), []int{r.Procs[0], r.Procs[len(r.Procs)-1]}, lrcVsHLRC)
	var rows []Table4Row
	for i, res := range r.warm(cells) {
		c := cells[i]
		rows = append(rows, Table4Row{App: c.app, Procs: c.procs, Proto: c.proto, Counts: res.Stats.AvgNode().Counts})
	}
	return rows
}

// Table4 reports average per-node read misses, diffs, and synchronization
// operations for LRC vs HLRC.
func (r *Runner) Table4(w io.Writer) {
	fmt.Fprintln(w, "Table 4: average number of operations per node (LRC vs HLRC)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "App\tNodes\tReadMiss LRC\tReadMiss HLRC\tDiffsCreated LRC\tDiffsCreated HLRC\tDiffsApplied LRC\tDiffsApplied HLRC\tLockAcq\tBarriers")
	rows := r.Table4Data()
	for i := 0; i < len(rows); i += 2 {
		lrc, hlrc := rows[i], rows[i+1]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			lrc.App, lrc.Procs,
			lrc.Counts.ReadMisses, hlrc.Counts.ReadMisses,
			lrc.Counts.DiffsCreated, hlrc.Counts.DiffsCreated,
			lrc.Counts.DiffsApplied, hlrc.Counts.DiffsApplied,
			hlrc.Counts.LockAcquires, hlrc.Counts.Barriers)
	}
	tw.Flush()
}

// Table5Row is one app's communication traffic under one protocol.
type Table5Row struct {
	App     string
	Proto   core.Protocol
	Msgs    int64
	DataMB  float64
	ProtoMB float64
}

// Table5Data gathers traffic for LRC vs HLRC at the largest size.
func (r *Runner) Table5Data(procs int) []Table5Row {
	cells := grid(AppNames(), []int{procs}, lrcVsHLRC)
	var rows []Table5Row
	for i, res := range r.warm(cells) {
		rows = append(rows, Table5Row{
			App:     cells[i].app,
			Proto:   cells[i].proto,
			Msgs:    res.Stats.TotalMsgs(),
			DataMB:  float64(res.Stats.TotalBytes(stats.ClassData)) / (1 << 20),
			ProtoMB: float64(res.Stats.TotalBytes(stats.ClassProtocol)) / (1 << 20),
		})
	}
	return rows
}

// Table5 reports message counts and update/protocol traffic.
func (r *Runner) Table5(w io.Writer) {
	procs := r.Procs[len(r.Procs)-1]
	fmt.Fprintf(w, "Table 5: communication traffic, %d nodes (LRC vs HLRC)\n", procs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "App\tProtocol\tMessages\tUpdate traffic (MB)\tProtocol traffic (MB)")
	for _, row := range r.Table5Data(procs) {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%.2f\n", row.App, row.Proto, row.Msgs, row.DataMB, row.ProtoMB)
	}
	tw.Flush()
}

// Table6Row is one app's memory requirement under one protocol.
type Table6Row struct {
	App          string
	Proto        core.Protocol
	Procs        int
	AppMB        float64 // application shared memory per node
	ProtoPeakMB  float64 // peak protocol memory per node (max over nodes)
	RatioPercent float64 // protocol / application, percent
}

// Table6Data gathers memory requirements for LRC vs HLRC.
func (r *Runner) Table6Data() []Table6Row {
	cells := grid(AppNames(), r.Procs, lrcVsHLRC)
	var rows []Table6Row
	for i, res := range r.warm(cells) {
		c := cells[i]
		appMB := float64(res.Stats.TotalAppMem()) / float64(c.procs) / (1 << 20)
		protoMB := float64(res.Stats.PeakProtoMem()) / (1 << 20)
		rows = append(rows, Table6Row{
			App: c.app, Proto: c.proto, Procs: c.procs,
			AppMB: appMB, ProtoPeakMB: protoMB,
			RatioPercent: protoMB / appMB * 100,
		})
	}
	return rows
}

// Table6 reports protocol memory vs application memory.
func (r *Runner) Table6(w io.Writer) {
	fmt.Fprintln(w, "Table 6: memory requirements per node (peak protocol memory vs application memory)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "App\tNodes\tApp MB/node\tLRC proto MB\tLRC %\tHLRC proto MB\tHLRC %")
	rows := r.Table6Data()
	for i := 0; i < len(rows); i += 2 {
		lrc, hlrc := rows[i], rows[i+1]
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.0f%%\t%.2f\t%.0f%%\n",
			lrc.App, lrc.Procs, lrc.AppMB,
			lrc.ProtoPeakMB, lrc.RatioPercent,
			hlrc.ProtoPeakMB, hlrc.RatioPercent)
	}
	tw.Flush()
}
