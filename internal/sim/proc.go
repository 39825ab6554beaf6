//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// procKilled is the sentinel panic used by Kernel.Shutdown to unwind
// blocked processes.
type procKilled struct{}

// noArg marks a block reason with no numeric argument.
const noArg int64 = -1 << 63

// sleepReason is the reserved block kind for Sleep; its argument is the
// duration and is rendered as "sleep(<duration>)" in deadlock reports.
const sleepReason = "sleep"

// Proc is a simulated process: a coroutine whose execution is interleaved
// with other processes under kernel control. Exactly one proc (or event
// callback) executes at a time, so proc code needs no locking and the
// whole simulation is deterministic.
//
// The coroutine is an iter.Pull: resuming and parking a proc hands the OS
// thread straight from one goroutine to the other (runtime.coroswitch) —
// no run queue, no idle-thread wake-up — and carries the race detector's
// happens-before edge. iter.Pull is why this file needs Go 1.23 (the build
// tag raises its language version; go.mod stays at the line benchmark/
// shares).
//
// All Proc methods must be called from the proc's own goroutine, except
// Unpark, which is called from another proc or an event callback.
type Proc struct {
	k    *Kernel
	id   int // spawn index, stable across runs; orders deadlock reports
	name string

	next func() (struct{}, bool) // scheduler -> proc: run until it parks or returns
	park func(struct{}) bool     // proc -> scheduler: parked; false means Shutdown
	stop func()                  // unwinds a parked proc, discards an unstarted one

	started bool
	done    bool
	permit  bool // an Unpark arrived while the proc was runnable

	// Block reasons are stored unformatted — a static kind string plus an
	// optional numeric argument — and rendered only when a deadlock report
	// is actually built, so blocking allocates nothing on the hot path.
	blockedOn  string
	blockedArg int64

	panicked any // panic value from the proc body, re-raised by run
}

// Spawn creates a process executing fn, starting at time at. The name is
// used in deadlock reports.
func (k *Kernel) Spawn(name string, at Time, fn func(p *Proc)) *Proc {
	p := &Proc{
		k:          k,
		id:         len(k.procs),
		name:       name,
		blockedArg: noArg,
	}
	k.procs = append(k.procs, p)
	p.next, p.stop = iter.Pull(func(park func(struct{}) bool) {
		p.park = park
		defer func() {
			if r := recover(); r != nil {
				if _, killed := r.(procKilled); !killed {
					// Preserve the original stack: the panic is re-raised
					// on the scheduler goroutine, which would lose it.
					p.panicked = fmt.Sprintf("proc %s panicked: %v\n%s", p.name, r, debug.Stack())
				}
			}
			p.done = true
		}()
		fn(p)
	})
	k.atRun(at, p)
	return p
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Done reports whether the proc body has returned.
func (p *Proc) Done() bool { return p.done }

// blockedDesc formats the block reason for a deadlock report.
func (p *Proc) blockedDesc() string {
	switch {
	case p.blockedArg == noArg:
		return p.blockedOn
	case p.blockedOn == sleepReason:
		return fmt.Sprintf("sleep(%v)", Time(p.blockedArg))
	default:
		return fmt.Sprintf("%s %d", p.blockedOn, p.blockedArg)
	}
}

// run transfers control to the proc until it yields. Called only from the
// scheduler context (an event callback).
func (p *Proc) run() {
	if p.done {
		return
	}
	p.started = true
	p.k.current = p
	p.next()
	p.k.current = nil
	if p.panicked != nil {
		r := p.panicked
		p.panicked = nil
		panic(r)
	}
}

// yield returns control to the scheduler and blocks until resumed. The
// (reason, arg) pair is stored unformatted; see blockedDesc.
func (p *Proc) yield(reason string, arg int64) {
	p.blockedOn = reason
	p.blockedArg = arg
	if !p.park(struct{}{}) {
		panic(procKilled{})
	}
	p.blockedOn = ""
	p.blockedArg = noArg
}

// Sleep advances the proc's virtual time by d. Other events run meanwhile.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %d", d))
	}
	p.k.atRun(p.k.now+d, p)
	p.yield(sleepReason, int64(d))
}

// Park blocks the proc until another proc or event calls Unpark. If an
// Unpark permit is already pending, Park consumes it and returns
// immediately. The reason string appears in deadlock reports.
func (p *Proc) Park(reason string) {
	if p.permit {
		p.permit = false
		return
	}
	p.yield(reason, noArg)
}

// ParkArg is Park with a numeric argument appended to the reason in
// deadlock reports ("barrier 3"). Unlike formatting at the call site, the
// argument is only rendered if a report is built, so hot blocking paths
// stay allocation-free.
func (p *Proc) ParkArg(reason string, arg int64) {
	if p.permit {
		p.permit = false
		return
	}
	p.yield(reason, arg)
}

// Unpark makes p runnable at the current simulated time. If p is not
// parked, the permit is remembered and consumed by the next Park. Unpark
// must not be called from p itself.
func (p *Proc) Unpark() {
	if p.k.current == p {
		panic("sim: proc unparked itself")
	}
	if p.permit {
		return // already has a pending permit
	}
	p.permit = true
	p.k.atUnpark(p.k.now, p)
}

// Shutdown unwinds every live process so their goroutines exit. Call after
// Run returns (normally, with a deadlock, or by panicking) when the kernel
// is no longer needed; the kernel must not be used afterwards. Calling it
// again is a no-op.
func (k *Kernel) Shutdown() {
	for _, p := range k.procs {
		if !p.done {
			p.stop()
			p.done = true // the body of a never-started proc never ran
		}
	}
}
