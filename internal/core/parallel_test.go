package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"gosvm/internal/apps"
	"gosvm/internal/core"
	"gosvm/internal/fault"
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
