package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("final time = %v, want 30", k.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-timestamp events out of insertion order at %d: %v", i, got[i])
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(50, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// At takes a Task or a func(); anything else is a programming error.
func TestAtRejectsOtherTypes(t *testing.T) {
	defer func() {
		if s, _ := recover().(string); !strings.Contains(s, "sim: At of int") {
			t.Errorf("recovered %q, want a panic naming the type", s)
		}
	}()
	NewKernel().At(1, 42)
}

func TestProcSleep(t *testing.T) {
	k := NewKernel()
	var times []Time
	k.Spawn("a", 0, func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			times = append(times, p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 20, 30}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel()
	var trace []string
	mk := func(name string, period Time) {
		k.Spawn(name, 0, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(period)
				trace = append(trace, fmt.Sprintf("%s@%d", name, p.Now()))
			}
		})
	}
	mk("a", 10)
	mk("b", 15)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// At t=30 both procs are runnable; b's wake event was scheduled first
	// (at t=15 vs t=20), so equal-time FIFO runs b first.
	want := []string{"a@10", "b@15", "a@20", "b@30", "a@30", "b@45"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestParkUnpark(t *testing.T) {
	k := NewKernel()
	var a *Proc
	var wokeAt Time
	a = k.Spawn("a", 0, func(p *Proc) {
		p.Park("waiting for b")
		wokeAt = p.Now()
	})
	k.Spawn("b", 0, func(p *Proc) {
		p.Sleep(42)
		a.Unpark()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 42 {
		t.Fatalf("woke at %v, want 42", wokeAt)
	}
}

func TestUnparkBeforePark(t *testing.T) {
	k := NewKernel()
	var ran bool
	p := k.Spawn("a", 10, func(p *Proc) {
		p.Park("pre-permitted")
		ran = true
	})
	k.At(0, func() { p.Unpark() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("proc with pending permit did not run past Park")
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	k.Spawn("stuck", 0, func(p *Proc) {
		p.Park("forever")
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked = %v, want 1 proc", de.Blocked)
	}
	k.Shutdown()
}

// runUntil runs k until an event at time at panics, which ends Run with
// events still pending, as a panic in protocol code ends core.Run.
func runUntil(t *testing.T, k *Kernel, at Time) {
	type stop struct{}
	k.At(at, func() { panic(stop{}) })
	defer func() {
		if r := recover(); r != (stop{}) {
			t.Fatalf("Run ended with %v, want the panic at %v", r, at)
		}
	}()
	k.Run()
}

func TestShutdownUnwindsProcs(t *testing.T) {
	k := NewKernel()
	cleaned := 0
	for i := 0; i < 5; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), 0, func(p *Proc) {
			defer func() { cleaned++ }()
			p.Park("never")
		})
	}
	// One proc that never even starts before the kernel stops.
	k.Spawn("late", 1<<40, func(p *Proc) { t.Error("late proc body ran") })
	runUntil(t, k, 100)
	k.Shutdown()
	if cleaned != 5 {
		t.Fatalf("deferred cleanups ran = %d, want 5", cleaned)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Spawn("boom", 0, func(p *Proc) {
		p.Sleep(5)
		panic("kaboom")
	})
	defer func() {
		r := recover()
		s, ok := r.(string)
		if !ok || !strings.Contains(s, "kaboom") || !strings.Contains(s, "proc boom") {
			t.Fatalf("recover = %v, want wrapped kaboom panic", r)
		}
	}()
	_ = k.Run()
	t.Fatal("Run returned instead of panicking")
}

func TestQueueFIFO(t *testing.T) {
	var q Queue[int]
	var got []int
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	for i := 0; i < 2; i++ {
		v, _ := q.TryPop()
		got = append(got, v)
	}
	for i := 5; i < 10; i++ {
		q.Push(i)
	}
	for q.Len() > 0 {
		v, _ := q.TryPop()
		got = append(got, v)
	}
	if len(got) != 10 {
		t.Fatalf("got = %v, want 0..9", got)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("got = %v, want in-order 0..9", got)
		}
	}
}

func TestQueueTryPop(t *testing.T) {
	var q Queue[string]
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on an empty queue succeeded")
	}
	q.Push("x")
	v, ok := q.TryPop()
	if !ok || v != "x" {
		t.Fatalf("TryPop = %q, %v", v, ok)
	}
	if _, ok := q.TryPop(); ok || q.Len() != 0 {
		t.Fatalf("TryPop on a drained queue succeeded (len %d)", q.Len())
	}
}

// Property: for any set of event delays, the kernel fires them in
// nondecreasing time order and ends at the max delay.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		k := NewKernel()
		var fired []Time
		var max Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			k.At(d, func() { fired = append(fired, k.Now()) })
		}
		if err := k.Run(); err != nil {
			return false
		}
		if k.Now() != max {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved sleeping procs always observe their own cumulative
// sleep as local time, regardless of how many other procs run.
func TestSleepAccumulationProperty(t *testing.T) {
	f := func(seed int64, nprocs uint8) bool {
		n := int(nprocs%8) + 1
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		ok := true
		for i := 0; i < n; i++ {
			steps := rng.Intn(10) + 1
			durs := make([]Time, steps)
			var total Time
			for j := range durs {
				durs[j] = Time(rng.Intn(1000))
				total += durs[j]
			}
			k.Spawn(fmt.Sprintf("p%d", i), 0, func(p *Proc) {
				for _, d := range durs {
					p.Sleep(d)
				}
				if p.Now() != total {
					ok = false
				}
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() []string {
		k := NewKernel()
		var trace []string
		var q Queue[int]
		var r *Proc
		for i := 0; i < 4; i++ {
			i := i
			k.Spawn(fmt.Sprintf("w%d", i), 0, func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(Time(3 + i))
					q.Push(i*10 + j)
					r.Unpark()
				}
			})
		}
		r = k.Spawn("r", 0, func(p *Proc) {
			for j := 0; j < 20; j++ {
				v, ok := q.TryPop()
				for !ok {
					p.Park("recv")
					v, ok = q.TryPop()
				}
				trace = append(trace, fmt.Sprintf("%d@%d", v, p.Now()))
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatal("nondeterministic trace length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// SplitMix draws the reference splitmix64 stream: the fault schedules and
// client traces of every recorded result depend on it.
func TestSplitMixStream(t *testing.T) {
	var r SplitMix
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := r.Next(); got != want {
			t.Fatalf("draw %d from seed 0 = %#x, want %#x", i, got, want)
		}
	}
	if f := r.Float(); f < 0 || f >= 1 {
		t.Fatalf("Float = %v, outside [0, 1)", f)
	}
}
