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

// BreakdownRow is the average per-node execution time breakdown of one
// configuration — one stacked bar of the paper's Figure 3.
type BreakdownRow struct {
	App   string
	Proto core.Protocol
	Procs int
	// Seconds per category, averaged over nodes.
	Compute, Data, GC, Lock, Barrier, Protocol float64
	Total                                      float64
}

func breakdownOf(res *core.Result, app string, proto core.Protocol, procs int) BreakdownRow {
	avg := res.Stats.AvgNode()
	s := func(c stats.Category) float64 { return avg.Time[c].Micros() / 1e6 }
	row := BreakdownRow{
		App: app, Proto: proto, Procs: procs,
		Compute:  s(stats.CatCompute),
		Data:     s(stats.CatData),
		GC:       s(stats.CatGC),
		Lock:     s(stats.CatLock),
		Barrier:  s(stats.CatBarrier),
		Protocol: s(stats.CatProtocol),
	}
	row.Total = row.Compute + row.Data + row.GC + row.Lock + row.Barrier + row.Protocol
	return row
}

// Fig3Data computes the time breakdowns for every app and protocol at the
// smallest and largest machine size, as in the paper's Figure 3.
func (r *Runner) Fig3Data() []BreakdownRow {
	cells := grid(AppNames(), []int{r.Procs[0], r.Procs[len(r.Procs)-1]}, core.Protocols)
	var rows []BreakdownRow
	for i, res := range r.warm(cells) {
		rows = append(rows, breakdownOf(res, cells[i].app, cells[i].proto, cells[i].procs))
	}
	return rows
}

// Fig3 prints the execution time breakdowns.
func (r *Runner) Fig3(w io.Writer) {
	fmt.Fprintln(w, "Figure 3: average execution time breakdowns per node (seconds)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "App\tNodes\tProtocol\tCompute\tData\tGC\tLock\tBarrier\tProtocol ovh\tTotal")
	for _, row := range r.Fig3Data() {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			row.App, row.Procs, row.Proto, row.Compute, row.Data, row.GC,
			row.Lock, row.Barrier, row.Protocol, row.Total)
	}
	tw.Flush()
}

// Fig4Row is one processor's time breakdown between two barriers.
type Fig4Row struct {
	Proto core.Protocol
	Procs int
	Node  int
	// Seconds per category within the phase.
	Compute, Data, Lock, Protocol float64
}

// Fig4Data reproduces the paper's Figure 4: per-processor breakdowns for
// Water-Nsquared between two consecutive barriers under LRC and HLRC on 8
// and 32 nodes. The paper instruments barriers 9-10, a force-computation
// phase; we select the inter-barrier phase with the most lock and data
// activity, which is the same phase of the computation.
func (r *Runner) Fig4Data() []Fig4Row {
	// The four phase-captured runs are uncached and independent; compute
	// them concurrently, then assemble rows in fixed configuration order.
	cells := grid([]string{"water-nsq"}, []int{8, 32}, lrcVsHLRC)
	results := must(sweep(r, cells, func(c cell) (*core.Result, error) {
		a, err := apps.New(c.app, r.Size)
		if err != nil {
			return nil, err
		}
		return r.exec(c.String()+" (phases)", r.cellOpts(c.proto, c.procs), a, true)
	}))
	var rows []Fig4Row
	for i, c := range cells {
		res := results[i]
		var phase *stats.Phase
		var best sim.Time
		for i := range res.Phases {
			var activity sim.Time
			for _, nd := range res.Phases[i].PerNode {
				activity += nd.Time[stats.CatLock] + nd.Time[stats.CatData]
			}
			if phase == nil || activity > best {
				phase = &res.Phases[i]
				best = activity
			}
		}
		if phase == nil {
			continue
		}
		for n, nd := range phase.PerNode {
			s := func(cat stats.Category) float64 { return nd.Time[cat].Micros() / 1e6 }
			rows = append(rows, Fig4Row{
				Proto: c.proto, Procs: c.procs, Node: n,
				Compute:  s(stats.CatCompute),
				Data:     s(stats.CatData),
				Lock:     s(stats.CatLock),
				Protocol: s(stats.CatProtocol),
			})
		}
	}
	return rows
}

// Fig4 prints the per-processor inter-barrier breakdowns.
func (r *Runner) Fig4(w io.Writer) {
	fmt.Fprintln(w, "Figure 4: Water-Nsquared per-processor breakdowns between barriers 9 and 10 (seconds)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Protocol\tNodes\tProc\tCompute\tData\tLock\tProtocol ovh")
	for _, row := range r.Fig4Data() {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\t%.3f\t%.3f\t%.3f\n",
			row.Proto, row.Procs, row.Node, row.Compute, row.Data, row.Lock, row.Protocol)
	}
	tw.Flush()
}

// SORZeroData runs the §4.8 experiment: SOR with a zero-initialized
// interior, the case most favorable to the homeless protocol. Returns
// LRC and HLRC execution times and the HLRC advantage.
func (r *Runner) SORZeroData(procs int) (lrc, hlrc sim.Time, advantage float64) {
	l := r.Run("sor-zero", core.ProtoLRC, procs).Stats.Elapsed
	h := r.Run("sor-zero", core.ProtoHLRC, procs).Stats.Elapsed
	return l, h, float64(l)/float64(h) - 1
}

// SORZero prints the §4.8 experiment.
func (r *Runner) SORZero(w io.Writer) {
	procs := r.Procs[len(r.Procs)-1]
	lrc, hlrc, adv := r.SORZeroData(procs)
	fmt.Fprintf(w, "§4.8: SOR with zero-initialized interior, %d nodes\n", procs)
	fmt.Fprintf(w, "LRC:  %s s\nHLRC: %s s\nHLRC is %.1f%% faster (paper: ~10%%)\n",
		seconds(lrc), seconds(hlrc), adv*100)
}
