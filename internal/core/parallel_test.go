package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"gosvm/internal/apps"
	"gosvm/internal/core"
	"gosvm/internal/fault"
	"gosvm/internal/mem"
	"gosvm/internal/serve"
	"gosvm/internal/sim"
)

// runJSON executes app under opts and returns the full WriteJSON stats
// plus the gathered data image, the two surfaces the determinism matrix
// compares byte-for-byte.
func runJSON(t *testing.T, opts core.Options, app core.App) (string, []float64) {
	t.Helper()
	res, err := core.Run(opts, app, false)
	if err != nil {
		t.Fatalf("run %s/%s workers=%d: %v", app.Name(), opts.Protocol, opts.RunWorkers, err)
	}
	var buf bytes.Buffer
	if err := res.Stats.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.String(), res.Data
}

func matrixOpts(proto core.Protocol, procs int, profile string, workers int) core.Options {
	opts := core.Options{Protocol: proto, Machine: core.Machine{Nodes: procs}, RunWorkers: workers}
	opts.Defaults()
	if profile != "none" {
		plan, err := fault.Profile(profile, 1)
		if err != nil {
			panic(err)
		}
		opts.Fault = plan
	}
	if crashProfile(profile) {
		opts.Recovery = core.Recovery{Replicas: 1}
	}
	return opts
}

// protoFor filters the matrix: the crash profiles need the home-based
// recovery machinery, which only the HLRC family implements.
func crashCompatible(proto core.Protocol) bool {
	return proto == core.ProtoHLRC || proto == core.ProtoOHLRC
}

// crashProfile reports whether the fault profile schedules node crashes
// (and so needs Recovery replicas): "crash" kills an ordinary node,
// "crash-mgr" kills the barrier-manager node and then a lock manager.
func crashProfile(profile string) bool {
	return profile == "crash" || profile == "crash-mgr"
}

// TestDeterminismMatrix is the bitwise-determinism matrix of the parallel
// kernel: SOR and LU under all four protocols x fault profiles x
// run-workers in {1, 2, 8}, asserting byte-identical WriteJSON output
// and result images. Fault profiles exercise the sequential-fallback
// path, where identity across worker counts must hold trivially.
func TestDeterminismMatrix(t *testing.T) {
	core.CheckFrames(t)
	profiles := []string{"none", "lossy", "hostile", "crash", "crash-mgr"}
	mkApps := map[string]func() core.App{
		"sor": func() core.App { return &apps.SOR{H: 48, W: 16, Iters: 2} },
		"lu":  func() core.App { return &apps.LU{N: 64, B: 8} },
	}
	for _, proto := range core.Protocols {
		for _, profile := range profiles {
			if crashProfile(profile) && !crashCompatible(proto) {
				continue
			}
			for name, mk := range mkApps {
				t.Run(fmt.Sprintf("%s/%s/%s", name, proto, profile), func(t *testing.T) {
					t.Parallel()
					refJSON, refData := runJSON(t, matrixOpts(proto, 4, profile, 1), mk())
					for _, w := range []int{2, 8} {
						gotJSON, gotData := runJSON(t, matrixOpts(proto, 4, profile, w), mk())
						if gotJSON != refJSON {
							t.Fatalf("workers=%d stats diverge from workers=1:\n--- w=1 ---\n%s\n--- w=%d ---\n%s",
								w, refJSON, w, gotJSON)
						}
						if len(gotData) != len(refData) {
							t.Fatalf("workers=%d data length %d != %d", w, len(gotData), len(refData))
						}
						for i := range gotData {
							if gotData[i] != refData[i] {
								t.Fatalf("workers=%d data[%d] = %v != %v", w, i, gotData[i], refData[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestDeterminismMatrixServe covers the open-loop serving workload: the
// same byte-identity bar across protocols, fault profiles, and worker
// counts, on the serve stats report.
func TestDeterminismMatrixServe(t *testing.T) {
	core.CheckFrames(t)
	profiles := []string{"none", "lossy", "hostile", "crash", "crash-mgr"}
	for _, proto := range core.Protocols {
		for _, profile := range profiles {
			if crashProfile(profile) && !crashCompatible(proto) {
				continue
			}
			proto, profile := proto, profile
			t.Run(fmt.Sprintf("serve/%s/%s", proto, profile), func(t *testing.T) {
				t.Parallel()
				run := func(workers int) string {
					opts := matrixOpts(proto, 4, profile, workers)
					kv, err := serve.New(serve.Config{
						Keys: 64, OfferedLoad: 2000, Window: 30 * sim.Millisecond, Seed: 7,
					}, 4)
					if err != nil {
						t.Fatalf("serve.New: %v", err)
					}
					res, err := serve.Run(opts, kv)
					if err != nil {
						t.Fatalf("serve workers=%d: %v", workers, err)
					}
					var buf bytes.Buffer
					if err := res.Stats.WriteJSON(&buf); err != nil {
						t.Fatalf("WriteJSON: %v", err)
					}
					return buf.String()
				}
				ref := run(1)
				for _, w := range []int{2, 8} {
					if got := run(w); got != ref {
						t.Fatalf("serve workers=%d diverges:\n--- w=1 ---\n%s\n--- w=%d ---\n%s", w, ref, w, got)
					}
				}
			})
		}
	}
}

// TestDeterminismMatrixFastpath holds the serving fast path to the same
// bar: seqlock lock-free reads over striped locks are simulated
// application behavior, so their stats must stay byte-identical across
// run-worker counts under every protocol and fault profile.
func TestDeterminismMatrixFastpath(t *testing.T) {
	core.CheckFrames(t)
	const mode = serve.ModeSeqlock
	profiles := []string{"none", "lossy", "crash", "crash-mgr"}
	for _, proto := range core.Protocols {
		for _, profile := range profiles {
			if crashProfile(profile) && !crashCompatible(proto) {
				continue
			}
			proto, profile := proto, profile
			t.Run(fmt.Sprintf("%s/%s/%s", mode, proto, profile), func(t *testing.T) {
				t.Parallel()
				run := func(workers int) string {
					opts := matrixOpts(proto, 4, profile, workers)
					cfg := serve.Config{
						Keys: 64, OfferedLoad: 4000, Window: 30 * sim.Millisecond,
						ZipfTheta: 0.9, Seed: 7,
					}
					if err := serve.ApplyFastpath(&cfg, mode); err != nil {
						t.Fatal(err)
					}
					kv, err := serve.New(cfg, 4)
					if err != nil {
						t.Fatalf("serve.New: %v", err)
					}
					res, err := serve.Run(opts, kv)
					if err != nil {
						t.Fatalf("fastpath %s workers=%d: %v", mode, workers, err)
					}
					var buf bytes.Buffer
					if err := res.Stats.WriteJSON(&buf); err != nil {
						t.Fatalf("WriteJSON: %v", err)
					}
					return buf.String()
				}
				ref := run(1)
				if got := run(8); got != ref {
					t.Fatalf("fastpath %s workers=8 diverges:\n--- w=1 ---\n%s\n--- w=8 ---\n%s", mode, ref, got)
				}
			})
		}
	}
}

// crossLaneApp has node 0 home one page, the last node write it once a round
// and every node between read it after the round's barrier: all readers
// fetch the same version, on lanes of their own.
type crossLaneApp struct {
	rounds int
	addr   mem.Addr
	// held[r][id] is the frame reader id held in round r; lists[id] its
	// frame list before the closing barrier. Each slot has one writer.
	held  [][]*mem.Frame
	lists []core.FrameList
}

func (a *crossLaneApp) Name() string        { return "cross-lane" }
func (a *crossLaneApp) Setup(s *core.Setup) { a.addr = s.Alloc(s.Space.PageWords) }
func (a *crossLaneApp) Init(w *core.Init)   { w.SetHome(a.addr, 1, 0) }
func (a *crossLaneApp) Worker(c *core.Ctx, id int) {
	for r := 1; r <= a.rounds; r++ {
		if id == c.Nodes()-1 {
			c.Store(a.addr, float64(r))
		}
		c.Barrier(2 * r)
		if id > 0 && id < c.Nodes()-1 {
			if got := c.Load(a.addr); got != float64(r) {
				panic(fmt.Sprintf("cross-lane: node %d read %v in round %d", id, got, r))
			}
			a.held[r][id] = c.HeldFrame(a.addr)
		}
		c.Barrier(2*r + 1) // the next store must not race with these reads
	}
	a.lists[id] = c.OwnFrameList()
	c.Barrier(0)
}
func (a *crossLaneApp) Gather(c *core.Ctx) []float64 { return []float64{c.Load(a.addr)} }

// TestSharedFrameCrossesLanes runs the partitioned kernel with the frame
// check on (under -race in CI, at GOMAXPROCS 1, 2 and NumCPU): each round
// four readers on four lanes hold the one frame the home's lane published,
// and since the home drops its reference when the next diff arrives, the
// last release of every frame — checksum, then recycling — happens on a
// reader's lane: some reader must end with the words on its free list.
func TestSharedFrameCrossesLanes(t *testing.T) {
	core.CheckFrames(t)
	const nodes, rounds = 6, 12
	for _, proto := range []core.Protocol{core.ProtoHLRC, core.ProtoOHLRC} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			app := &crossLaneApp{rounds: rounds, lists: make([]core.FrameList, nodes)}
			for r := 0; r <= rounds; r++ {
				app.held = append(app.held, make([]*mem.Frame, nodes))
			}
			opts := core.Options{Protocol: proto, Machine: core.Machine{Nodes: nodes}, PageBytes: 512, RunWorkers: 2}
			res, err := core.Run(opts, app, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Data[0] != rounds {
				t.Errorf("page ends at %v, want %d", res.Data[0], rounds)
			}
			for r := 1; r <= rounds; r++ {
				for id := 1; id < nodes-1; id++ {
					if f := app.held[r][id]; f == nil || f != app.held[r][1] || f == app.held[r-1][1] {
						t.Fatalf("round %d: readers hold %v (round before: %v); want one frame for all four, new each round",
							r, app.held[r][1:nodes-1], app.held[r-1][1:nodes-1])
					}
				}
			}
			recycled := 0
			for _, l := range app.lists[1 : nodes-1] {
				recycled += l.Free
			}
			if recycled == 0 || app.lists[0].Free != 0 {
				t.Errorf("frame lists %+v: want the released frames on the readers' lists, none on the home's", app.lists)
			}
		})
	}
}
