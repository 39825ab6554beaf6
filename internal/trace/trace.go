// Package trace captures protocol event streams from SVM runs: page
// faults, fetches, diff traffic, write notices, synchronization, and
// garbage collection, each stamped with simulated time and node. Traces
// are the debugging view the statistics aggregate away: they show *which*
// page ping-pongs, *which* lock serializes, and in what order the
// protocol moved data.
package trace

import (
	"fmt"

	"gosvm/internal/sim"
)

// Kind identifies a protocol event type.
type Kind uint8

const (
	// ReadMiss: a read access faulted on an invalid page.
	ReadMiss Kind = iota
	// WriteFault: a write access faulted for write detection (twin).
	WriteFault
	// PageFetch: a full page copy arrived; Peer is the supplier.
	PageFetch
	// DiffCreate: a diff was computed; Arg is its wire size in bytes.
	DiffCreate
	// DiffApply: a diff was applied to a local copy; Arg is word count.
	DiffApply
	// DiffFlush: a diff was sent to a home; Peer is the home.
	DiffFlush
	// Invalidate: a write notice invalidated the local copy; Peer is the
	// writer.
	Invalidate
	// LockAcquire: a remote lock acquire began; Arg is the lock id.
	LockAcquire
	// LockGrant: the lock arrived; Arg is the lock id.
	LockGrant
	// BarrierEnter / BarrierExit bracket barrier episodes; Arg is the id.
	BarrierEnter
	BarrierExit
	// GCStart / GCEnd bracket homeless-protocol garbage collection.
	GCStart
	GCEnd

	// NumKinds is the number of event kinds; every Kind below it is named.
	NumKinds
)

var kindNames = [NumKinds]string{
	"read-miss", "write-fault", "page-fetch", "diff-create", "diff-apply",
	"diff-flush", "invalidate", "lock-acquire", "lock-grant",
	"barrier-enter", "barrier-exit", "gc-start", "gc-end",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind returns the Kind named s.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", s)
}

// Event is one protocol action.
type Event struct {
	T    sim.Time
	Node int
	Kind Kind
	Page int   // -1 when not page-related
	Peer int   // -1 when not peer-related
	Arg  int64 // kind-specific payload (lock id, bytes, words, barrier id)
}

func (e Event) String() string {
	s := fmt.Sprintf("%12.3fms n%-3d %-13s", e.T.Micros()/1e3, e.Node, e.Kind)
	if e.Page >= 0 {
		s += fmt.Sprintf(" page=%-5d", e.Page)
	}
	if e.Peer >= 0 {
		s += fmt.Sprintf(" peer=%-3d", e.Peer)
	}
	switch e.Kind {
	case LockAcquire, LockGrant:
		s += fmt.Sprintf(" lock=%d", e.Arg)
	case BarrierEnter, BarrierExit:
		s += fmt.Sprintf(" barrier=%d", e.Arg)
	case DiffCreate, DiffFlush:
		s += fmt.Sprintf(" bytes=%d", e.Arg)
	case DiffApply:
		s += fmt.Sprintf(" words=%d", e.Arg)
	}
	return s
}

// Log accumulates events. A nil *Log is a valid no-op sink, so emission
// sites need no guards beyond the method call.
type Log struct {
	events []Event
	limit  int
}

// NewLog returns a log retaining at most limit events (0 = unlimited).
func NewLog(limit int) *Log { return &Log{limit: limit} }

// Emit appends an event. Safe on a nil receiver.
func (l *Log) Emit(e Event) {
	if l == nil {
		return
	}
	if l.limit > 0 && len(l.events) >= l.limit {
		return
	}
	l.events = append(l.events, e)
}

// Events returns the captured events in emission (time) order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	return l.events
}

// Len reports the number of captured events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.events)
}

// ByKind returns the events of one kind.
func (l *Log) ByKind(k Kind) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Counts summarizes events per kind.
func (l *Log) Counts() map[Kind]int {
	m := map[Kind]int{}
	for _, e := range l.Events() {
		m[e.Kind]++
	}
	return m
}
