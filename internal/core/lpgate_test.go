package core

import (
	"testing"

	"gosvm/internal/fault"
)

// TestLPParallelGate pins the eligibility predicate: the partitioned
// kernel engages exactly for plain multi-node runs, and every
// configuration with globally ordered machinery falls back to the
// sequential kernel (where worker-count identity is trivial).
func TestLPParallelGate(t *testing.T) {
	base := func() Options {
		o := Options{Protocol: ProtoHLRC, Machine: Machine{Nodes: 4}, RunWorkers: 4}
		o.Defaults()
		return o
	}
	if o := base(); !lpParallel(&o, false) {
		t.Fatal("plain 4-node HLRC run at 4 workers should partition")
	}
	deny := map[string]func(*Options) bool{
		"workers=1":  func(o *Options) bool { o.RunWorkers = 1; return lpParallel(o, false) },
		"one node":   func(o *Options) bool { o.Machine.Nodes = 1; return lpParallel(o, false) },
		"seq proto":  func(o *Options) bool { o.Protocol = ProtoSeq; return lpParallel(o, false) },
		"mesh":       func(o *Options) bool { o.Machine.Topology = TopoMesh; return lpParallel(o, false) },
		"faults":     func(o *Options) bool { p, _ := fault.Profile("lossy", 1); o.Fault = p; return lpParallel(o, false) },
		"recovery":   func(o *Options) bool { o.Recovery.Replicas = 1; return lpParallel(o, false) },
		"tracing":    func(o *Options) bool { o.TraceLimit = 100; return lpParallel(o, false) },
		"phase caps": func(o *Options) bool { return lpParallel(o, true) },
	}
	for name, mut := range deny {
		o := base()
		if mut(&o) {
			t.Errorf("%s should fall back to the sequential kernel", name)
		}
	}
}
