package cliflags

import (
	"flag"
	"strings"
	"testing"

	"gosvm/internal/core"
	"gosvm/internal/paragon"
)

// parse registers the single-machine flag group on a fresh flag set and
// parses args into it.
func parse(t *testing.T, args ...string) *MachineFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	mf := AddMachine(fs, 8, 8192)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return mf
}

// A machine of no nodes, or a page that is not a whole number of words, is
// a usage error naming the flag; the defaults and the smallest valid values
// are not.
func TestMachineRejectsBadProcsAndPage(t *testing.T) {
	for _, c := range []struct {
		args []string
		bad  string // the flag the error names; "" for a valid configuration
	}{
		{nil, ""},
		{[]string{"-procs", "1", "-page", "8"}, ""},
		{[]string{"-procs", "0"}, "-procs"},
		{[]string{"-procs", "-3"}, "-procs"},
		{[]string{"-page", "100"}, "-page"},
		{[]string{"-page", "0"}, "-page"},
		{[]string{"-page", "-8"}, "-page"},
	} {
		mc, err := parse(t, c.args...).Machine()
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%v: %v", c.args, err)
		case c.bad == "" && mc.Nodes < 1:
			t.Errorf("%v: machine of %d nodes", c.args, mc.Nodes)
		case c.bad != "" && (err == nil || !strings.Contains(err.Error(), c.bad)):
			t.Errorf("%v: error %v, want one naming %s", c.args, err, c.bad)
		}
	}
}

// The sweep tools' Shape checks -page too.
func TestShapeRejectsBadPage(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	mf := AddMachineList(fs, "4", 4096)
	if err := fs.Parse([]string{"-page", "12"}); err != nil {
		t.Fatal(err)
	}
	if _, err := mf.Shape(); err == nil || !strings.Contains(err.Error(), "-page 12") {
		t.Errorf("Shape with -page 12: error %v, want one naming -page 12", err)
	}
}

// -topology and -costs name the machine's network and cost model; a name
// neither knows is an error that quotes it.
func TestMachineParsesTopologyAndCosts(t *testing.T) {
	for _, c := range []struct {
		topology, costs string
		want            core.Machine
	}{
		{"mesh", "modern", core.Machine{Topology: core.TopoMesh, Costs: paragon.ModernCosts()}},
		{"crossbar", "paragon", core.Machine{Topology: core.TopoCrossbar, Costs: paragon.DefaultCosts()}},
	} {
		mc, err := parse(t, "-topology", c.topology, "-costs", c.costs).Machine()
		if err != nil {
			t.Fatal(err)
		}
		if mc.Topology != c.want.Topology || mc.Costs != c.want.Costs {
			t.Errorf("-topology %s -costs %s: topology %q, costs %+v; want %q and the %s profile",
				c.topology, c.costs, mc.Topology, mc.Costs, c.want.Topology, c.costs)
		}
	}
	for _, args := range [][]string{{"-topology", "torus"}, {"-costs", "cray"}} {
		if _, err := parse(t, args...).Machine(); err == nil || !strings.Contains(err.Error(), `"`+args[1]+`"`) {
			t.Errorf("%v: error %v, want one naming %q", args, err, args[1])
		}
	}
}
