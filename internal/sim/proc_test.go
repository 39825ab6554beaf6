package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines waits for the goroutine count to fall back to want (an
// exiting goroutine is uncounted a moment after its last statement) and
// returns the last count seen. Callers compare with >, not !=: the
// baseline may itself include a window worker of an earlier test that was
// still on its way out.
func waitGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// Shutdown must unwind a proc in each state it can be left in — finished,
// parked, sleeping, never started — and leave no goroutine behind; a second
// Shutdown is a no-op.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	for _, workers := range []int{0, 1, 2} { // 0: unpartitioned
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := NewKernel()
			if workers > 0 {
				k.Partition(4, 50, workers)
			}
			unwound := 0
			finished := k.SpawnOn(0, "finished", 0, func(p *Proc) { p.Sleep(10) })
			parked := k.SpawnOn(1, "parked", 0, func(p *Proc) {
				defer func() { unwound++ }()
				p.Park("never")
			})
			asleep := k.SpawnOn(2, "asleep", 0, func(p *Proc) {
				defer func() { unwound++ }()
				p.Sleep(1 << 40)
			})
			late := k.SpawnOn(3, "late", 1<<40, func(p *Proc) { t.Error("late proc body ran") })
			k.Post(0, 0, 100, k.Stop)
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if !finished.Done() || parked.Done() || asleep.Done() || late.Done() {
				t.Fatalf("before Shutdown: done = %v %v %v %v, want only the first",
					finished.Done(), parked.Done(), asleep.Done(), late.Done())
			}
			k.Shutdown()
			if got := waitGoroutines(base); got > base {
				t.Errorf("%d goroutines after Shutdown, want %d", got, base)
			}
			if unwound != 2 {
				t.Errorf("deferred cleanups ran = %d, want 2", unwound)
			}
			for _, p := range []*Proc{finished, parked, asleep, late} {
				if !p.Done() {
					t.Errorf("proc %s not done after Shutdown", p.Name())
				}
			}
			k.Shutdown()
		})
	}
}

//go:noinline
func explode(msg string) { panic(msg) }

// A proc panic on the partitioned kernel surfaces from Run on the caller's
// goroutine as "proc <name> panicked: ..." with the proc's own stack, and
// when several lanes panic in one window the lowest lane wins at any
// worker count.
func TestProcPanicPartitioned(t *testing.T) {
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := NewKernel()
			k.Partition(4, 50, workers)
			k.SpawnOn(0, "bystander", 0, func(p *Proc) { p.Park("never") })
			for _, lane := range []int{3, 1} {
				name := fmt.Sprintf("boom%d", lane)
				k.SpawnOn(lane, name, 0, func(p *Proc) {
					p.Sleep(5)
					explode("kaboom from " + name)
				})
			}
			func() {
				defer func() {
					s, _ := recover().(string)
					if !strings.HasPrefix(s, "proc boom1 panicked: kaboom from boom1\n") {
						t.Errorf("recovered %q, want lane 1's wrapped panic", s)
					}
					if !strings.Contains(s, "sim.explode") {
						t.Errorf("panic text lost the proc's own stack:\n%s", s)
					}
				}()
				_ = k.Run()
				t.Error("Run returned instead of panicking")
			}()
			k.Shutdown()
			if got := waitGoroutines(base); got > base {
				t.Errorf("%d goroutines after Shutdown, want %d", got, base)
			}
		})
	}
}

// Every lane's proc is resumed in well over 100 windows, by whichever
// window worker picks its lane up, and shares lane state with events the
// other lanes post to it. The coroutine hand-off must order all of that
// for the race detector (run with -race) at any GOMAXPROCS, and the
// result must match the unpartitioned kernel's.
func TestProcsMigrateAcrossWindowWorkers(t *testing.T) {
	const lanes, rounds, lookahead = 8, 150, Time(50)
	type result struct{ sum, resumes [lanes]int }
	run := func(workers int) (res result) { // 0: unpartitioned
		k := NewKernel()
		if workers > 0 {
			k.Partition(lanes, lookahead, workers)
		}
		var inbox [lanes]int
		for i := 0; i < lanes; i++ {
			i, next := i, (i+1)%lanes
			k.SpawnOn(i, fmt.Sprintf("p%d", i), 0, func(p *Proc) {
				for r := 1; r <= rounds; r++ {
					k.Post(i, next, p.Now()+lookahead, func() { inbox[next] += r })
					p.Sleep(lookahead) // wakes in a later window
					res.resumes[i]++
					res.sum[i] += inbox[i]
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
		return res
	}
	want := run(0)
	for i, n := range want.resumes {
		if n != rounds {
			t.Fatalf("lane %d resumed %d times, want %d", i, n, rounds)
		}
	}
	for _, g := range []struct {
		name  string
		procs int
	}{{"gomaxprocs1", 1}, {"gomaxprocs2", 2}, {"numcpu", runtime.NumCPU()}} {
		t.Run(g.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(g.procs))
			if got := run(4); got != want {
				t.Errorf("4 workers: %+v\nunpartitioned: %+v", got, want)
			}
		})
	}
}

// A queue that never quite drains must not grow with the number of values
// that have passed through it.
func TestFifoBoundedWhenNeverDrained(t *testing.T) {
	var q Queue[int]
	q.Push(0)
	q.Push(1)
	for i := 2; i < 10000; i++ {
		q.Push(i)
		if got, _ := q.TryPop(); got != i-2 {
			t.Fatalf("pop = %d, want %d", got, i-2)
		}
	}
	if q.Len() != 2 || cap(q.buf) > 16 {
		t.Fatalf("len %d, cap %d after 10000 values with a backlog of 2", q.Len(), cap(q.buf))
	}
}
