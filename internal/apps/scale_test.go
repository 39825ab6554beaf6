package apps

import (
	"testing"

	"gosvm/internal/core"
)

// scaleSOR is a small fixed-size grid the large-machine tests share:
// big enough that every node of a 1024-node machine owns at least one
// row, small enough to keep host time in seconds.
func scaleSOR() *SOR {
	return &SOR{H: 1024, W: 128, Iters: 2, ElemNs: 9700}
}

func runScaleSOR(t *testing.T, proto core.Protocol, nodes int) *core.Result {
	t.Helper()
	opts := core.Options{
		Protocol:  proto,
		PageBytes: 4096,
		// At 1024 nodes LRC's protocol memory passes 4 MB, not the default
		// 8 MB: this threshold keeps a collection in that run.
		GCThreshold: 4 << 20,
		Machine:     core.Machine{Nodes: nodes},
	}
	res, err := core.Run(opts, scaleSOR(), false)
	if err != nil {
		t.Fatalf("sor/%s/p%d: %v", proto, nodes, err)
	}
	return res
}

// TestScaleSmoke256 is the CI scale-smoke entry point (run under
// -race): a 256-node machine — tree barrier, sparse clocks, lazy state
// — must produce results bitwise identical to the sequential baseline
// under every protocol.
func TestScaleSmoke256(t *testing.T) {
	seq := runScaleSOR(t, core.ProtoSeq, 1)
	for _, proto := range core.Protocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			res := runScaleSOR(t, proto, 256)
			if len(res.Data) != len(seq.Data) {
				t.Fatalf("result length %d, want %d", len(res.Data), len(seq.Data))
			}
			for i := range res.Data {
				if res.Data[i] != seq.Data[i] {
					t.Fatalf("word %d = %v, want %v", i, res.Data[i], seq.Data[i])
				}
			}
		})
	}
}

// TestSOR1024Nodes is the headline scale acceptance check: a 1024-node
// SOR run completes and matches the sequential result exactly, for a
// homeless and a home-based protocol.
func TestSOR1024Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node run in -short mode")
	}
	seq := runScaleSOR(t, core.ProtoSeq, 1)
	for _, proto := range []core.Protocol{core.ProtoLRC, core.ProtoHLRC} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			res := runScaleSOR(t, proto, 1024)
			for i := range res.Data {
				if res.Data[i] != seq.Data[i] {
					t.Fatalf("word %d = %v, want %v", i, res.Data[i], seq.Data[i])
				}
			}
			if res.Stats.Elapsed <= 0 {
				t.Fatalf("no simulated time elapsed")
			}
		})
	}
}
