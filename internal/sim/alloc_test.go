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

func TestEventSchedulingAllocFree(t *testing.T) {
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

// A Chan in its steady state — pushed to, received from, drained — keeps
// its backing arrays: neither the value queue nor the waiter list may
// reallocate once per message.
func TestChanPushRecvAllocFree(t *testing.T) {
	allocs := testing.AllocsPerRun(1, func() {
		k := NewKernel()
		c := NewChan[[4]int64]("c")
		k.Spawn("recv", 0, func(p *Proc) {
			for i := 0; i < allocIters; i++ {
				c.Recv(p)
			}
		})
		k.Spawn("send", 0, func(p *Proc) {
			for i := 0; i < allocIters; i++ {
				c.Push([4]int64{int64(i)})
				p.Sleep(1) // the receiver drains the queue and blocks again
			}
		})
		if err := k.Run(); err != nil {
			t.Error(err)
		}
	})
	if allocs > allocBudget {
		t.Errorf("%d Push/Recv pairs cost %.0f allocs, want < %.0f total (0 per op)",
			allocIters, allocs, allocBudget)
	}
}
