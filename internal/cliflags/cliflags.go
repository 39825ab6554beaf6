// Package cliflags factors the cmd/* binaries' shared flag surface —
// machine shape, fault injection, execution control, and list parsing —
// so a configuration means the same thing in every tool: -procs,
// -topology, -costs, -faults, and -seed are spelled and interpreted
// identically in svmrun, svmbench, svmserve, and svmtrace.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gosvm/internal/apps"
	"gosvm/internal/bench"
	"gosvm/internal/core"
	"gosvm/internal/fault"
	"gosvm/internal/paragon"
)

// MachineFlags is the machine-shape flag group. Register it with
// AddMachine (single-size tools) or AddMachineList (sweep tools whose
// -procs is a comma-separated axis), then read the parsed configuration
// with Machine or Shape/ProcsList after flag.Parse.
type MachineFlags struct {
	Procs     int    // single machine size (AddMachine)
	ProcsCSV  string // machine-size axis (AddMachineList)
	Topology  string
	CostsName string
	Page      int
}

// AddMachine registers the single-machine flag group on fs: -procs,
// -page, and the shape flags (-topology, -costs).
func AddMachine(fs *flag.FlagSet, defProcs, defPage int) *MachineFlags {
	m := &MachineFlags{}
	fs.IntVar(&m.Procs, "procs", defProcs, "number of nodes")
	m.addShape(fs, defPage)
	return m
}

// AddMachineList registers the sweep variant: -procs is a
// comma-separated list of machine sizes; the shape flags apply to every
// size.
func AddMachineList(fs *flag.FlagSet, defProcs string, defPage int) *MachineFlags {
	m := &MachineFlags{}
	fs.StringVar(&m.ProcsCSV, "procs", defProcs, "machine sizes to sweep (comma-separated)")
	m.addShape(fs, defPage)
	return m
}

func (m *MachineFlags) addShape(fs *flag.FlagSet, defPage int) {
	fs.StringVar(&m.Topology, "topology", "",
		`network model: "crossbar" (default) or "mesh" (2-D wormhole, XY routing, per-link contention)`)
	fs.StringVar(&m.CostsName, "costs", "",
		`cost profile: "paragon" (default; the paper's Table 3) or "modern" (us-scale kernel-bypass messaging)`)
	fs.IntVar(&m.Page, "page", defPage, "page size in bytes")
}

// Shape returns the size-independent machine configuration (topology,
// cost profile) after checking -page, which must be a positive multiple
// of 8 (whole words). Nodes is left zero so sweep tools can stamp it per
// cell.
func (m *MachineFlags) Shape() (core.Machine, error) {
	var mc core.Machine
	if m.Page <= 0 || m.Page%8 != 0 {
		return mc, fmt.Errorf("bad -page %d: want a positive multiple of 8 bytes", m.Page)
	}
	if m.Topology != "" {
		t, err := core.ParseTopology(m.Topology)
		if err != nil {
			return mc, err
		}
		mc.Topology = t
	}
	if m.CostsName != "" {
		costs, err := paragon.CostProfile(m.CostsName)
		if err != nil {
			return mc, err
		}
		mc.Costs = costs
	}
	return mc, nil
}

// Machine returns the full configuration of a single-size tool: Shape
// plus -procs.
func (m *MachineFlags) Machine() (core.Machine, error) {
	mc, err := m.Shape()
	if err != nil {
		return mc, err
	}
	if m.Procs < 1 {
		return mc, fmt.Errorf("bad -procs %d: want at least 1 node", m.Procs)
	}
	mc.Nodes = m.Procs
	return mc, nil
}

// ProcsList parses the sweep tools' -procs axis.
func (m *MachineFlags) ProcsList() ([]int, error) {
	procs, err := Ints(m.ProcsCSV)
	if err != nil {
		return nil, fmt.Errorf("bad -procs: %w", err)
	}
	for _, p := range procs {
		if p < 1 {
			return nil, fmt.Errorf("bad -procs entry %d", p)
		}
	}
	return procs, nil
}

// FaultFlags is the fault-injection flag group.
type FaultFlags struct {
	Profile string
	Seed    int64
}

// AddFault registers -faults and -seed.
func AddFault(fs *flag.FlagSet, defProfile string) *FaultFlags {
	f := &FaultFlags{}
	fs.StringVar(&f.Profile, "faults", defProfile, "fault profile: "+strings.Join(fault.Profiles, ", "))
	fs.Int64Var(&f.Seed, "seed", 1,
		"seed for the fault plan and any seeded workload (apps initialize deterministically), so runs reproduce by construction")
	return f
}

// Plan builds the fault plan the flags name.
func (f *FaultFlags) Plan() (fault.Plan, error) {
	return fault.Profile(f.Profile, f.Seed)
}

// AddRunWorkers registers -run-workers, the number of host threads
// driving each single simulation (conservative-window parallel kernel).
func AddRunWorkers(fs *flag.FlagSet) *int {
	return fs.Int("run-workers", 1,
		"host threads per simulation run: >= 2 partitions the kernel into per-node "+
			"logical processes under a conservative lookahead window; results are "+
			"byte-identical at any value (1 = classic sequential event loop)")
}

// AddParallel registers the host-parallelism cap shared by the sweep
// tools.
func AddParallel(fs *flag.FlagSet) *int {
	return fs.Int("parallel", 0,
		"max concurrent simulations (0 = GOMAXPROCS, 1 = sequential); results are identical at any setting")
}

// AddRunner registers the sweep tools' shared flags on fs — the -procs
// machine-size axis with the machine shape and -page (AddMachineList),
// -parallel, -run-workers and -q — and returns the constructor to call
// after fs.Parse: a bench.Runner at the given problem size configured
// from them, with progress lines on stderr unless -q.
func AddRunner(fs *flag.FlagSet, defProcs string, defPage int) func(apps.Size) (*bench.Runner, error) {
	mf := AddMachineList(fs, defProcs, defPage)
	parallel := AddParallel(fs)
	runWkrs := AddRunWorkers(fs)
	quiet := fs.Bool("q", false, "suppress per-run progress")
	return func(size apps.Size) (*bench.Runner, error) {
		r := bench.NewRunner(size)
		r.PageBytes = mf.Page
		r.Parallel = *parallel
		r.RunWorkers = *runWkrs
		if !*quiet {
			r.Progress = os.Stderr
		}
		var err error
		if r.Machine, err = mf.Shape(); err != nil {
			return nil, err
		}
		if r.Procs, err = mf.ProcsList(); err != nil {
			return nil, err
		}
		return r, nil
	}
}

// Strings splits a comma-separated list, trimming blanks and dropping
// empty entries.
func Strings(csv string) []string {
	var out []string
	for _, s := range strings.Split(csv, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// Ints parses a comma-separated integer list.
func Ints(csv string) ([]int, error) {
	var out []int
	for _, s := range Strings(csv) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("bad list entry %q", s)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// Floats parses a comma-separated float list.
func Floats(csv string) ([]float64, error) {
	var out []float64
	for _, s := range Strings(csv) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("bad list entry %q", s)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
