package gosvm_test

import (
	"errors"
	"testing"

	"gosvm"
)

// counter is a minimal App for exercising the public API surface.
type counter struct {
	addr gosvm.Addr
}

func (c *counter) Name() string         { return "counter" }
func (c *counter) Setup(s *gosvm.Setup) { c.addr = s.Alloc(1) }
func (c *counter) Init(w *gosvm.Init)   { w.Store(c.addr, 0) }
func (c *counter) Gather(ctx *gosvm.Ctx) []float64 {
	return []float64{ctx.Load(c.addr)}
}
func (c *counter) Worker(ctx *gosvm.Ctx, id int) {
	for i := 0; i < 3; i++ {
		ctx.Compute(50 * gosvm.Microsecond)
		ctx.Lock(0)
		ctx.Store(c.addr, ctx.Load(c.addr)+1)
		ctx.Unlock(0)
	}
	ctx.Barrier(0)
}

func TestParseProtocol(t *testing.T) {
	for _, p := range gosvm.Protocols {
		got, err := gosvm.ParseProtocol(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseProtocol(%q) = %v, %v", p.String(), got, err)
		}
	}
	if got, err := gosvm.ParseProtocol("seq"); err != nil || got != gosvm.Seq {
		t.Fatalf("ParseProtocol(seq) = %v, %v", got, err)
	}
	for _, name := range []string{"mesi", "aurc"} {
		if _, err := gosvm.ParseProtocol(name); err == nil {
			t.Fatalf("unknown protocol name %q accepted", name)
		}
	}
	if _, err := gosvm.ParseProtocol(""); err == nil {
		t.Fatal("empty protocol name accepted")
	}
}

// A run configured by an Options literal must work end to end, crash
// recovery included.
func TestRunWithOptionsAndCrash(t *testing.T) {
	plan := gosvm.FaultPlan{
		Seed: 1,
		Crashes: []gosvm.Crash{
			{Node: 1, At: 200 * gosvm.Microsecond, RestartAt: 3 * gosvm.Millisecond},
		},
	}
	res, err := gosvm.Run(gosvm.Options{
		Protocol:  gosvm.OHLRC,
		Machine:   gosvm.Machine{Nodes: 4},
		PageBytes: 512,
		Fault:     plan,
		Recovery:  gosvm.Recovery{Replicas: 1},
	}, &counter{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Data[0] != 12 {
		t.Fatalf("counter = %v, want 12", res.Data[0])
	}
}

// The exported error types must surface through errors.As on a failed
// run: a crash of a home with no replicas yields a NodeDeadError.
func TestStructuredErrorsExported(t *testing.T) {
	plan := gosvm.FaultPlan{
		Seed: 1,
		// Node 0 homes the counter's page and nothing replicates it: its
		// home copy is gone when it restarts.
		Crashes: []gosvm.Crash{{Node: 0, At: 200 * gosvm.Microsecond, RestartAt: 50 * gosvm.Millisecond}},
	}
	_, err := gosvm.Run(gosvm.Options{
		Protocol:  gosvm.HLRC,
		Machine:   gosvm.Machine{Nodes: 4},
		PageBytes: 512,
		Fault:     plan,
	}, &counter{})
	if err == nil {
		t.Fatal("unreplicated crash of a home succeeded")
	}
	var nde *gosvm.NodeDeadError
	if !errors.As(err, &nde) {
		t.Fatalf("error is not a NodeDeadError: %v", err)
	}
	if nde.Node != 0 || nde.Role != "home" {
		t.Fatalf("NodeDeadError blames node %d role %q, want node 0 role \"home\"", nde.Node, nde.Role)
	}
}

// Speedup measures its sequential baseline under the same cost model as
// the parallel run (regression: it used to drop the cost model). The
// baseline is pure computation, so a slower network must lower the
// speedup through the parallel side only — and the reported ratio must
// be exactly the two elapsed times' quotient.
func TestSpeedupCostModelContract(t *testing.T) {
	mk := func() gosvm.App { return &counter{} }
	opts := gosvm.Options{Protocol: gosvm.HLRC, Machine: gosvm.Machine{Nodes: 2}, PageBytes: 512}
	s0, seq0, par0, err := gosvm.Speedup(opts, mk)
	if err != nil {
		t.Fatal(err)
	}
	slow := gosvm.DefaultCosts()
	slow.MsgLatency *= 10
	slow.ReceiveInterrupt *= 10
	opts.Machine.Costs = slow
	s1, seq1, par1, err := gosvm.Speedup(opts, mk)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		s        float64
		seq, par *gosvm.Result
	}{{s0, seq0, par0}, {s1, seq1, par1}} {
		if want := float64(c.seq.Stats.Elapsed) / float64(c.par.Stats.Elapsed); c.s != want {
			t.Fatalf("speedup %v is not seq/par = %v", c.s, want)
		}
	}
	if par1.Stats.Elapsed <= par0.Stats.Elapsed {
		t.Fatalf("parallel run ignored the cost model: %v vs %v", par1.Stats.Elapsed, par0.Stats.Elapsed)
	}
	if seq1.Stats.Elapsed != seq0.Stats.Elapsed {
		t.Fatalf("compute-only sequential baseline changed with the network model: %v vs %v",
			seq1.Stats.Elapsed, seq0.Stats.Elapsed)
	}
	if s1 >= s0 {
		t.Fatalf("slower network did not lower the speedup: %v vs %v", s1, s0)
	}
}
