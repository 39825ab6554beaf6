// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// A Kernel owns a virtual clock and an event queue. Simulated processes
// (Proc) are coroutines that run one at a time under the kernel's control:
// a process runs until it blocks on a kernel primitive (Sleep or Park), at
// which point control returns to the scheduler. Events with equal
// timestamps fire in the order they were scheduled, so a given program
// produces a byte-identical execution every run.
//
// A kernel can additionally be partitioned into lanes — per-node logical
// processes with independent clocks and event queues — and run under a
// conservative-window parallel scheduler (see Partition and parallel.go).
// Event ordering is genealogical: an event's key is (time, creator's
// execution rank, index among the creator's creations), which for
// same-time events is exactly "creation order" — the classic sequential
// rule. The windowed scheduler reconstructs creator ranks at window
// boundaries, so a partitioned run replays the sequential event order
// exactly and results are byte-identical at any worker count, including
// against the unpartitioned kernel.
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

// pendRank encodes a not-yet-assigned creator rank during a window:
// pendRank+i refers to the i-th event the creating lane executed in the
// current window. Pending ranks order after every assigned rank (this
// window's events rank after all earlier ones) and, among themselves, by
// lane execution index — and they are only ever compared within their own
// lane, where that index IS the eventual rank order. The window boundary
// resolves them to real ranks (see parallel.go).
const pendRank = int64(1) << 62

type event struct {
	at    Time
	prank int64 // creator's global execution rank (or pendRank+idx)
	cidx  int64 // index among the creator's scheduled events
	task  Task
}

// before orders events genealogically: by time, then by the creator's
// execution rank, then by creation index within the creator. For events
// at the same time this is precisely the order they were created in a
// sequential execution — creators execute in rank order and each creates
// in cidx order — i.e. the classic (time, schedule order) rule, now in a
// form every lane can compute locally.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.prank != o.prank {
		return e.prank < o.prank
	}
	return e.cidx < o.cidx
}

// handoff is a cross-lane event in flight: created by one lane during a
// window, merged into dst's queue at the next window boundary.
type handoff struct {
	dst int32
	ev  event
}

// execRec is the key of an event a lane executed during the current
// window, logged so the boundary rank pass can replay the global order.
type execRec struct {
	at    Time
	prank int64
	cidx  int64
}

// lane is one logical process: an independently clocked event queue plus
// the procs bound to it. An unpartitioned kernel has exactly one lane
// owning everything.
type lane struct {
	id     int32
	now    Time
	events []event // binary min-heap, value-based (no per-event boxing)
	// current is the proc whose code is executing on this lane, nil when
	// the lane is running a plain event or scheduling.
	current *Proc
	// curPrank/curCidx are the scheduling context of the event currently
	// executing on this lane: children get key (at, curPrank, curCidx++).
	// -1 until the first event runs (setup-created events rank before all
	// runtime-created ones, as they always have).
	curPrank int64
	curCidx  int64
	// outbox collects cross-lane events scheduled while this lane
	// executes a window; the coordinator drains it at the barrier.
	outbox []handoff
	// panicked stores a panic raised by this lane's window execution so
	// the coordinator can re-raise it deterministically.
	panicked any
	// Window-boundary rank bookkeeping (windowed scheduler only).
	execLog  []execRec // keys of events executed this window, in lane order
	ranks    []int64   // global rank assigned to execLog[i] at the boundary
	mergeCur int       // cursor into execLog during the boundary merge
}

// push inserts ev into the lane's event heap (sift-up on value storage).
func (l *lane) push(ev event) {
	h := append(l.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	l.events = h
}

// pop removes and returns the earliest event.
func (l *lane) pop() event {
	h := l.events
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
	l.events = h
	return top
}

// Kernel is a discrete-event scheduler. The zero value is not usable; call
// NewKernel.
type Kernel struct {
	lanes   []*lane
	procs   []*Proc
	stopped bool
	started bool  // Run has begun; schedule stamps creator context
	rank    int64 // next global execution rank
	setup   int64 // creation counter for events scheduled before Run

	// Parallel-run state (see Partition / parallel.go).
	lookahead Time
	workers   int
	running   bool // inside a windowed parallel run
	windowEnd Time // current window horizon, read-only while workers run
	runnable  []*lane
	merging   []*lane // boundary rank-merge scratch
}

// NewKernel returns an empty kernel at time zero with a single lane.
func NewKernel() *Kernel {
	return &Kernel{lanes: []*lane{{curPrank: -1}}}
}

// Partition splits the kernel into n independently clocked lanes
// (logical processes) executed by the given number of worker goroutines
// under a conservative window of the given lookahead: cross-lane events
// must always be scheduled at least lookahead past their creation time.
// It must be called on a fresh kernel, before anything is spawned or
// scheduled. The windowed scheduler replays the sequential event order
// exactly, so results are byte-identical at any worker count.
func (k *Kernel) Partition(n int, lookahead Time, workers int) {
	if len(k.procs) > 0 || len(k.lanes) != 1 || len(k.lanes[0].events) > 0 {
		panic("sim: Partition on a kernel that is already in use")
	}
	if n < 2 {
		panic("sim: Partition needs at least 2 lanes")
	}
	if lookahead <= 0 {
		panic("sim: Partition needs a positive lookahead")
	}
	if workers < 1 {
		workers = 1
	}
	k.lanes = make([]*lane, n)
	for i := range k.lanes {
		k.lanes[i] = &lane{id: int32(i), curPrank: -1}
	}
	k.lookahead = lookahead
	k.workers = workers
}

// laneFor maps a caller-supplied lane index to a lane. Unpartitioned
// kernels own everything on lane 0, so any index is accepted there.
func (k *Kernel) laneFor(i int) *lane {
	if len(k.lanes) == 1 {
		return k.lanes[0]
	}
	return k.lanes[i]
}

// Now returns the current simulated time of lane 0. On a partitioned
// kernel prefer LaneNow: lanes advance independently, and lane 0's clock
// is only meaningful to code running on lane 0.
func (k *Kernel) Now() Time { return k.lanes[0].now }

// LaneNow returns the current simulated time of the given lane (always
// lane 0 on an unpartitioned kernel). Callers must only consult clocks of
// the lane they are executing on.
func (k *Kernel) LaneNow(i int) Time { return k.laneFor(i).now }

// schedule enqueues an event created by lane src, owned (executed) by
// lane dst, at absolute time t. Scheduling in the creator's past panics:
// it is always a logic error in a DES. Cross-lane events created during
// a parallel run become handoffs and must respect the lookahead window.
func (k *Kernel) schedule(src, dst *lane, t Time, task Task) {
	if t < src.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %v < %v", t, src.now))
	}
	var ev event
	if !k.started {
		// Setup runs single-threaded before the clock moves: creation
		// order across the whole kernel, ranked before every runtime event.
		ev = event{at: t, prank: -1, cidx: k.setup, task: task}
		k.setup++
	} else {
		ev = event{at: t, prank: src.curPrank, cidx: src.curCidx, task: task}
		src.curCidx++
	}
	if src == dst || !k.running {
		dst.push(ev)
		return
	}
	if t < k.windowEnd {
		panic(fmt.Sprintf("sim: lookahead violation: cross-lane event at %v inside window ending %v (lane %d -> %d)",
			t, k.windowEnd, src.id, dst.id))
	}
	src.outbox = append(src.outbox, handoff{dst: dst.id, ev: ev})
}

// At schedules fn to run at absolute time t on lane 0. On a partitioned
// kernel this is only legal during setup; mid-run cross-lane work must go
// through Post so the creator lane is explicit.
func (k *Kernel) At(t Time, fn func()) {
	if k.running {
		panic("sim: At during a partitioned run; use Post")
	}
	l := k.lanes[0]
	k.schedule(l, l, t, funcTask(fn))
}

// After schedules fn to run d from lane 0's now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.lanes[0].now+d, fn) }

// Post schedules task at absolute time t on lane dst, created by (and
// timed against) lane src. It is the cross-lane communication primitive:
// message deliveries are posted from the sending node's lane to the
// receiving node's lane. On an unpartitioned kernel src and dst collapse
// to lane 0 and Post is equivalent to At.
//
// task is a Task or a plain func(), which runs as one; neither form
// allocates beyond what the caller built. Anything else is a programming
// error and panics.
func (k *Kernel) Post(src, dst int, t Time, task any) {
	var tk Task
	switch x := task.(type) {
	case func():
		tk = funcTask(x)
	case Task:
		tk = x
	default:
		panic(fmt.Sprintf("sim: Post of %T, want a Task or a func()", task))
	}
	k.schedule(k.laneFor(src), k.laneFor(dst), t, tk)
}

// atRun schedules proc resumption at t.
func (k *Kernel) atRun(t Time, p *Proc) { k.schedule(p.ln, p.ln, t, (*runTask)(p)) }

// atUnpark schedules the permit-guarded resume behind Unpark.
func (k *Kernel) atUnpark(t Time, p *Proc) { k.schedule(p.ln, p.ln, t, (*unparkTask)(p)) }

// Stop makes Run return. Pending events are discarded; on a parallel run
// the current window completes first (deterministically) before the
// scheduler halts.
func (k *Kernel) Stop() { k.stopped = true }

// DeadlockError reports that runnable work was exhausted while processes
// were still blocked. Blocked holds one description per blocked proc,
// ordered by proc id (spawn order), so the report is stable no matter
// which lane's drain detected the stall.
type DeadlockError struct {
	Time    Time
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d blocked procs: %s",
		e.Time, len(e.Blocked), strings.Join(e.Blocked, "; "))
}

// Run executes events until the queue is empty or Stop is called. It
// returns a *DeadlockError if processes remain blocked when the event
// queue drains, and propagates any panic raised inside process code. On
// a partitioned kernel Run executes the conservative-window parallel
// scheduler instead (see parallel.go); results are byte-identical.
func (k *Kernel) Run() error {
	k.started = true
	if len(k.lanes) > 1 {
		return k.runWindowed()
	}
	l := k.lanes[0]
	for len(l.events) > 0 && !k.stopped {
		ev := l.pop()
		l.now = ev.at
		l.curPrank = k.rank
		k.rank++
		l.curCidx = 0
		ev.task.Fire()
	}
	return k.drainCheck(l.now)
}

// drainCheck builds the deadlock report after the event supply is
// exhausted. Blocked procs are listed in proc-id order: k.procs is
// append-only in spawn order, which is the id order by construction.
func (k *Kernel) drainCheck(at Time) error {
	var blocked []string
	for _, p := range k.procs {
		if !p.done && p.started {
			blocked = append(blocked, fmt.Sprintf("%s (%s)", p.name, p.blockedDesc()))
		}
	}
	if len(blocked) > 0 && !k.stopped {
		return &DeadlockError{Time: at, Blocked: blocked}
	}
	return nil
}
