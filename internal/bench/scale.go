package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"text/tabwriter"

	"gosvm/internal/apps"
	"gosvm/internal/core"
	"gosvm/internal/stats"
)

// ScaleOpts configures the machine-size scaling sweep: a fixed-size SOR
// grid (strong scaling) swept across node counts and protocols.
type ScaleOpts struct {
	// Nodes is the machine-size axis; nil means 64..1024 in powers of
	// two, clipped to machines whose every node owns >= 1 grid row.
	Nodes []int
	// Protos are the protocol rows; nil means the paper's four.
	Protos []core.Protocol
	// H, W, Iters fix the SOR grid; zero values default to a 2048x1024
	// grid for 4 iterations (the paper's grid, shortened so the 1024-node
	// cells stay minutes, not hours, of host time).
	H, W, Iters int
}

func (o *ScaleOpts) defaults() {
	if o.Protos == nil {
		o.Protos = core.Protocols
	}
	if o.H == 0 {
		o.H, o.W = 2048, 1024
	}
	if o.Iters == 0 {
		o.Iters = 4
	}
	if o.Nodes == nil {
		// Powers of two from 64 up to 1024, clipped so every node still
		// owns at least one grid row on shrunken (-size test/small) grids.
		for n := 64; n <= 1024 && n <= o.H; n *= 2 {
			o.Nodes = append(o.Nodes, n)
		}
	}
}

// GridFor shrinks the sweep's fixed SOR grid to a problem size, so CI
// and quick checks can run the sweep end-to-end in seconds; SizePaper
// (and unknown sizes) keep the default paper grid. Node counts must
// still leave every node at least one grid row.
func (o *ScaleOpts) GridFor(size apps.Size) {
	switch size {
	case apps.SizeTest:
		o.H, o.W, o.Iters = 64, 32, 2
	case apps.SizeSmall:
		o.H, o.W, o.Iters = 512, 256, 4
	}
}

// ScaleCell is one (protocol, machine size) point of the scaling sweep.
type ScaleCell struct {
	Protocol string  `json:"protocol"`
	Nodes    int     `json:"nodes"`
	Seconds  float64 `json:"sim_seconds"`
	Speedup  float64 `json:"speedup"`
	// Msgs is total messages sent; ProtoMB/DataMB split the traffic as
	// the paper's Table 5 does.
	Msgs    int64   `json:"msgs"`
	DataMB  float64 `json:"data_mb"`
	ProtoMB float64 `json:"proto_mb"`
	// Skew is the home hot-spot metric: the most-loaded node's count of
	// dispatcher-serviced unsolicited messages over the mean. 1.0 is a
	// perfectly balanced machine.
	Skew float64 `json:"hotspot_skew"`
	// PeakProtoMB is the per-node protocol memory high-water mark.
	PeakProtoMB float64 `json:"peak_proto_mb"`
}

// ScaleEntry is the JSON document one ScaleSweep writes: the grid shape
// plus every cell.
type ScaleEntry struct {
	Kind       string      `json:"kind"` // "scale"
	H          int         `json:"h"`
	W          int         `json:"w"`
	Iters      int         `json:"iters"`
	SeqSeconds float64     `json:"seq_seconds"`
	Cells      []ScaleCell `json:"cells"`
}

// ScaleSweep charts protocol behavior against machine size: a fixed-size
// SOR grid run on 64 to 1024+ nodes under every protocol, reporting
// speedup over the sequential baseline, message traffic, home hot-spot
// skew (max/mean unsolicited messages serviced per node), and peak
// protocol memory. Cells fan out across host cores like every other
// sweep, and each cell's result must be the sequential run's, bit for
// bit; rendering reads completed cells in fixed grid order. When
// jsonPath is non-empty the full grid is written there as one ScaleEntry.
func (r *Runner) ScaleSweep(out io.Writer, o ScaleOpts, jsonPath string) error {
	o.defaults()
	for _, n := range o.Nodes {
		if n < 2 {
			return fmt.Errorf("bench: scale sweep node count %d < 2", n)
		}
		if n > o.H {
			return fmt.Errorf("bench: scale sweep needs >= 1 grid row per node (H=%d, nodes=%d)", o.H, n)
		}
	}

	// The sequential baseline first, then the grid, fanned out together.
	cells := []cell{{"sor", core.ProtoSeq, 1}}
	for _, proto := range o.Protos {
		for _, n := range o.Nodes {
			cells = append(cells, cell{"sor", proto, n})
		}
	}
	results, err := sweep(r, cells, func(c cell) (*core.Result, error) {
		sor := &apps.SOR{H: o.H, W: o.W, Iters: o.Iters, ElemNs: 9700}
		return r.exec("scale "+c.String(), r.cellOpts(c.proto, c.procs), sor, false)
	})
	if err != nil {
		return err
	}
	seq := results[0].Stats.Elapsed

	entry := ScaleEntry{
		Kind:       "scale",
		H:          o.H,
		W:          o.W,
		Iters:      o.Iters,
		SeqSeconds: seq.Micros() / 1e6,
	}
	for i, c := range cells[1:] {
		if err := validateResult(results[0].Data, results[1+i].Data, resultTol(c.app)); err != nil {
			return fmt.Errorf("bench: scale %v differs from the sequential run: %w", c, err)
		}
		st := results[1+i].Stats
		entry.Cells = append(entry.Cells, ScaleCell{
			Protocol:    string(c.proto),
			Nodes:       c.procs,
			Seconds:     st.Elapsed.Micros() / 1e6,
			Speedup:     float64(seq) / float64(st.Elapsed),
			Msgs:        st.TotalMsgs(),
			DataMB:      float64(st.TotalBytes(stats.ClassData)) / (1 << 20),
			ProtoMB:     float64(st.TotalBytes(stats.ClassProtocol)) / (1 << 20),
			Skew:        st.MsgsInSkew(),
			PeakProtoMB: float64(st.PeakProtoMem()) / (1 << 20),
		})
	}

	fmt.Fprintf(out, "Scaling sweep: SOR %dx%d, %d iterations, sequential %.1fs\n",
		o.H, o.W, o.Iters, entry.SeqSeconds)
	fmt.Fprintln(out, "skew = max/mean unsolicited messages serviced per node (home hot spots)")
	tw := tabwriter.NewWriter(out, 4, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "Protocol\tNodes\tTime(s)\tSpeedup\tMsgs\tData(MB)\tProto(MB)\tSkew\tPeakMem(MB)")
	for _, c := range entry.Cells {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.1f\t%d\t%.2f\t%.2f\t%.2f\t%.2f\n",
			c.Protocol, c.Nodes, c.Seconds, c.Speedup, c.Msgs, c.DataMB, c.ProtoMB, c.Skew, c.PeakProtoMB)
	}
	tw.Flush()

	if jsonPath == "" {
		return nil
	}
	return writeCell(filepath.Dir(jsonPath), filepath.Base(jsonPath), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(entry)
	})
}
