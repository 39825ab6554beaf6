// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// A Kernel owns a virtual clock and an event queue. Simulated processes
// (Proc) are coroutines that run one at a time under the kernel's control:
// a process runs until it blocks on a kernel primitive (Sleep or Park), at
// which point control returns to the scheduler. All events sit on one
// heap keyed by (time, creation number): events with equal timestamps
// fire in the order they were scheduled, so a given program produces a
// byte-identical execution every run.
package sim

import (
	"fmt"
	"strings"
)

// Time is simulated time in nanoseconds since the start of the run.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

func (t Time) String() string {
	return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
}

// Micros reports t in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Task is what an event does when it fires. An implementation that is a
// pointer (or a func value, through funcTask) fits in the interface
// without boxing, so an event posted for an object that already exists —
// a proc to resume, a message in flight — allocates nothing.
type Task interface{ Fire() }

// funcTask runs a plain callback as a Task.
type funcTask func()

func (f funcTask) Fire() { f() }

// runTask resumes the proc it converts from; unparkTask resumes it only if
// its Unpark permit is still set.
type (
	runTask    Proc
	unparkTask Proc
)

func (t *runTask) Fire() { (*Proc)(t).run() }

func (t *unparkTask) Fire() {
	if p := (*Proc)(t); p.permit {
		p.permit = false
		p.run()
	}
}

type event struct {
	at   Time
	seq  int64 // creation order: the tie-break among events at one instant
	task Task
}

// before orders events by time, then by creation: events at the same
// instant fire in the order they were scheduled.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Kernel is a discrete-event scheduler. The zero value is an empty kernel
// at time zero.
type Kernel struct {
	now    Time
	events []event // binary min-heap, value-based (no per-event boxing)
	seq    int64   // events created so far
	// current is the proc whose code is executing, nil while a plain
	// event runs.
	current *Proc
	procs   []*Proc
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// push inserts ev into the event heap (sift-up on value storage).
func (k *Kernel) push(ev event) {
	h := append(k.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	k.events = h
}

// pop removes and returns the earliest event.
func (k *Kernel) pop() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the task
	h = h[:n]
	// Sift down.
	i := 0
	for {
		lc, rc := 2*i+1, 2*i+2
		if lc >= n {
			break
		}
		c := lc
		if rc < n && h[rc].before(&h[lc]) {
			c = rc
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	k.events = h
	return top
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// schedule enqueues task at absolute time t. Scheduling in the past
// panics: it is always a logic error in a DES.
func (k *Kernel) schedule(t Time, task Task) {
	if t < k.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %v < %v", t, k.now))
	}
	k.push(event{at: t, seq: k.seq, task: task})
	k.seq++
}

// At schedules task to fire at absolute time t. task is a Task or a plain
// func(), which runs as one; neither form allocates beyond what the caller
// built. Anything else is a programming error and panics.
func (k *Kernel) At(t Time, task any) {
	switch x := task.(type) {
	case func():
		k.schedule(t, funcTask(x))
	case Task:
		k.schedule(t, x)
	default:
		panic(fmt.Sprintf("sim: At of %T, want a Task or a func()", task))
	}
}

// After schedules fn to run d from now.
func (k *Kernel) After(d Time, fn func()) { k.schedule(k.now+d, funcTask(fn)) }

// Partition does nothing: the kernel has one event heap.
//
// Deprecated: it remains only because the repository benchmark still
// calls it; delete it once it stops.
func (k *Kernel) Partition(n int, lookahead Time, workers int) {}

// LaneNow returns Now.
//
// Deprecated: it remains only because the repository benchmark still
// calls it; use Now.
func (k *Kernel) LaneNow(i int) Time { return k.now }

// Post is At: src and dst are ignored.
//
// Deprecated: it remains only because the repository benchmark still
// calls it; use At.
func (k *Kernel) Post(src, dst int, t Time, task any) { k.At(t, task) }

// atRun schedules proc resumption at t.
func (k *Kernel) atRun(t Time, p *Proc) { k.schedule(t, (*runTask)(p)) }

// atUnpark schedules the permit-guarded resume behind Unpark.
func (k *Kernel) atUnpark(t Time, p *Proc) { k.schedule(t, (*unparkTask)(p)) }

// DeadlockError reports that runnable work was exhausted while processes
// were still blocked. Blocked holds one description per blocked proc,
// ordered by proc id (spawn order).
type DeadlockError struct {
	Time    Time
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d blocked procs: %s",
		e.Time, len(e.Blocked), strings.Join(e.Blocked, "; "))
}

// Run executes events until the queue is empty. It
// returns a *DeadlockError if processes remain blocked when the event
// queue drains, and propagates any panic raised inside process code.
func (k *Kernel) Run() error {
	for len(k.events) > 0 {
		ev := k.pop()
		k.now = ev.at
		ev.task.Fire()
	}
	return k.drainCheck()
}

// drainCheck builds the deadlock report after the event supply is
// exhausted. Blocked procs are listed in proc-id order: k.procs is
// append-only in spawn order, which is the id order by construction.
func (k *Kernel) drainCheck() error {
	var blocked []string
	for _, p := range k.procs {
		if !p.done && p.started {
			blocked = append(blocked, fmt.Sprintf("%s (%s)", p.name, p.blockedDesc()))
		}
	}
	if len(blocked) > 0 {
		return &DeadlockError{Time: k.now, Blocked: blocked}
	}
	return nil
}
