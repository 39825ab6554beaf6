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
// baseline may itself include a goroutine of an earlier test that was
// still on its way out.
func waitGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// Shutdown must unwind every proc the kernel stopped with — finished,
// parked, sleeping, never started — and leave no goroutine behind; a second
// Shutdown is a no-op. It holds with and without a call to the deprecated
// Partition, which the benchmark still makes and which must stay inert.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	for _, workers := range []int{0, 1, 2} { // 0: Partition not called
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := NewKernel()
			if workers > 0 {
				k.Partition(4, 50, workers)
			}
			unwound := 0
			finished := k.Spawn("finished", 0, func(p *Proc) { p.Sleep(10) })
			parked := k.Spawn("parked", 0, func(p *Proc) {
				defer func() { unwound++ }()
				p.Park("never")
			})
			asleep := k.Spawn("asleep", 0, func(p *Proc) {
				defer func() { unwound++ }()
				p.Sleep(1 << 40)
			})
			late := k.Spawn("late", 1<<40, func(p *Proc) { t.Error("late proc body ran") })
			runUntil(t, k, 100)
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

// A proc panic surfaces from Run on the caller's goroutine as "proc <name>
// panicked: ..." with the proc's own stack; when two procs would panic at
// the same instant, the one whose wake-up was scheduled first does, and
// Shutdown still unwinds the rest. Each subtest first calls the deprecated
// Partition with the worker counts this test once drove the partitioned
// kernel with: the call must change none of that.
func TestProcPanicPartitioned(t *testing.T) {
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := NewKernel()
			k.Partition(4, 50, workers)
			k.Spawn("bystander", 0, func(p *Proc) { p.Park("never") })
			for _, name := range []string{"boom3", "boom1"} {
				k.Spawn(name, 0, func(p *Proc) {
					p.Sleep(5)
					explode("kaboom from " + name)
				})
			}
			func() {
				defer func() {
					s, _ := recover().(string)
					if !strings.HasPrefix(s, "proc boom3 panicked: kaboom from boom3\n") {
						t.Errorf("recovered %q, want the first-spawned proc's wrapped panic", s)
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
