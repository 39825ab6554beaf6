package sim

import "testing"

// The kernel's hot paths — sleeping, event scheduling, park/unpark — must
// not allocate per operation: event storage is value-based and block
// reasons are stored unformatted. These tests run thousands of operations
// inside one AllocsPerRun body and bound the total, so per-op allocation
// regressions (a closure, a Sprintf, event boxing) fail loudly while
// one-time setup (coroutine, queue and heap growth) stays within budget.

const allocIters = 10000

// allocBudget is the allowance for a whole kernel run: Spawn's fixed
// allocations plus event-heap growth, far below one alloc per iteration.
const allocBudget = 100.0

func TestSleepAllocFree(t *testing.T) {
	allocs := testing.AllocsPerRun(1, func() {
		k := NewKernel()
		k.Spawn("sleeper", 0, func(p *Proc) {
			for i := 0; i < allocIters; i++ {
				p.Sleep(1)
			}
		})
		if err := k.Run(); err != nil {
			t.Error(err)
		}
	})
	if allocs > allocBudget {
		t.Errorf("%d Sleeps cost %.0f allocs, want < %.0f total (0 per op)",
			allocIters, allocs, allocBudget)
	}
}

// ticker is a prebuilt Task that schedules itself again until it has
// fired allocIters times.
type ticker struct {
	k *Kernel
	n int
}

func (tk *ticker) Fire() {
	if tk.n++; tk.n < allocIters {
		tk.k.At(tk.k.Now()+1, tk)
	}
}

func TestEventSchedulingAllocFree(t *testing.T) {
	t.Run("After", func(t *testing.T) {
		allocs := testing.AllocsPerRun(1, func() {
			k := NewKernel()
			n := 0
			var tick func()
			tick = func() {
				n++
				if n < allocIters {
					k.After(1, tick)
				}
			}
			k.After(1, tick)
			if err := k.Run(); err != nil {
				t.Error(err)
			}
		})
		if allocs > allocBudget {
			t.Errorf("%d events cost %.0f allocs, want < %.0f total (0 per op)",
				allocIters, allocs, allocBudget)
		}
	})
	t.Run("Task", func(t *testing.T) {
		allocs := testing.AllocsPerRun(1, func() {
			k := NewKernel()
			tk := &ticker{k: k}
			k.At(1, tk)
			if err := k.Run(); err != nil {
				t.Error(err)
			}
			if tk.n != allocIters {
				t.Errorf("task fired %d times, want %d", tk.n, allocIters)
			}
		})
		if allocs > allocBudget {
			t.Errorf("%d schedulings of one Task cost %.0f allocs, want < %.0f total (0 per op)",
				allocIters, allocs, allocBudget)
		}
	})
}

func TestParkUnparkAllocFree(t *testing.T) {
	allocs := testing.AllocsPerRun(1, func() {
		k := NewKernel()
		var pa, pb *Proc
		pa = k.Spawn("a", 0, func(p *Proc) {
			for i := 0; i < allocIters; i++ {
				pb.Unpark()
				p.ParkArg("ping", int64(i))
			}
		})
		pb = k.Spawn("b", 0, func(p *Proc) {
			for i := 0; i < allocIters; i++ {
				p.Park("pong")
				pa.Unpark()
			}
		})
		if err := k.Run(); err != nil {
			t.Error(err)
		}
	})
	if allocs > allocBudget {
		t.Errorf("%d park/unpark handshakes cost %.0f allocs, want < %.0f total (0 per op)",
			allocIters, allocs, allocBudget)
	}
}

// A Queue in its steady state — pushed to, popped from, drained — keeps
// its backing array: it may not reallocate once per value.
func TestQueuePushPopAllocFree(t *testing.T) {
	allocs := testing.AllocsPerRun(1, func() {
		var q Queue[[4]int64]
		for i := 0; i < allocIters; i++ {
			q.Push([4]int64{int64(i)})
			q.Push([4]int64{int64(i) + 1})
			for q.Len() > 0 {
				q.TryPop()
			}
		}
	})
	if allocs > allocBudget {
		t.Errorf("%d Push/TryPop rounds cost %.0f allocs, want < %.0f total (0 per op)",
			allocIters, allocs, allocBudget)
	}
}
