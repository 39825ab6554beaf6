package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"gosvm/internal/mem"
	"gosvm/internal/sim"
)

// leakApp is a one-page app whose worker body is the test's.
func leakApp(worker func(c *Ctx, id int)) *testApp {
	var addr mem.Addr
	return &testApp{
		name:   "leak",
		setup:  func(s *Setup) { addr = s.Alloc(1) },
		init:   func(w *Init) { w.Store(addr, 0) },
		worker: worker,
		gather: func(c *Ctx) []float64 { return []float64{c.Load(addr)} },
	}
}

// Run must not leave a goroutine behind however it exits: every proc
// still parked when the kernel stops — on a deadlock, a set-up error, or
// a panic out of application code — is unwound on the way out.
func TestRunLeaksNoGoroutines(t *testing.T) {
	const nodes, runs = 8, 10
	cases := []struct {
		name string
		app  *testApp
		// check judges one run: the error Run returned, or the value it
		// panicked with.
		check func(err error, panicked any) bool
	}{
		{
			name:  "clean",
			app:   leakApp(func(c *Ctx, id int) { c.Barrier(0) }),
			check: func(err error, panicked any) bool { return err == nil && panicked == nil },
		},
		{
			name: "deadlock",
			app: leakApp(func(c *Ctx, id int) {
				if id != 3 {
					c.Barrier(0) // node 3 never arrives
				}
			}),
			check: func(err error, panicked any) bool {
				var de *sim.DeadlockError
				return errors.As(err, &de)
			},
		},
		{
			name: "set-up error",
			app:  &testApp{name: "empty", setup: func(s *Setup) {}},
			check: func(err error, panicked any) bool {
				return err != nil && strings.Contains(err.Error(), "allocated no shared memory")
			},
		},
		{
			name: "app panic",
			app: leakApp(func(c *Ctx, id int) {
				if id == 3 {
					c.Compute(sim.Millisecond) // let the others park in the barrier
					panic("worker 3 gave up")
				}
				c.Barrier(0)
			}),
			check: func(err error, panicked any) bool {
				s, _ := panicked.(string)
				return strings.Contains(s, "worker 3 gave up")
			},
		},
	}
	for _, workers := range []int{1, 2} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/workers%d", tc.name, workers), func(t *testing.T) {
				opts := testOpts(ProtoHLRC, nodes)
				opts.RunWorkers = workers
				runOnce := func() (err error, panicked any) {
					defer func() { panicked = recover() }()
					_, err = Run(opts, tc.app, false)
					return err, nil
				}
				base := runtime.NumGoroutine()
				for i := 0; i < runs; i++ {
					if err, panicked := runOnce(); !tc.check(err, panicked) {
						t.Fatalf("run %d: err = %v, panic = %v", i, err, panicked)
					}
				}
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond) // an exiting goroutine is uncounted a moment later
				}
				// >, not !=: base may include a window worker of an earlier
				// test that was still on its way out.
				if got := runtime.NumGoroutine(); got > base {
					t.Errorf("%d goroutines left behind by %d runs", got-base, runs)
				}
			})
		}
	}
}

// The application workers are the only procs: set-up on an n-node machine
// starts exactly n goroutines (the dispatchers are event callbacks).
func TestRunSpawnsOneProcPerNode(t *testing.T) {
	const nodes = 8
	// Let window workers of earlier tests finish exiting, so the baseline
	// is not one too high.
	base := runtime.NumGoroutine()
	for settled := false; !settled; {
		time.Sleep(time.Millisecond)
		n := runtime.NumGoroutine()
		settled, base = n >= base, n
	}
	live := 0
	runOrFail(t, testOpts(ProtoOHLRC, nodes), leakApp(func(c *Ctx, id int) {
		if id == 0 {
			live = runtime.NumGoroutine() // every proc exists before the first one runs
		}
		c.Barrier(0)
	}))
	if live-base != nodes {
		t.Fatalf("%d goroutines during an %d-node run, want one per node", live-base, nodes)
	}
}
