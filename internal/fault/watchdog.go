package fault

import (
	"fmt"
	"strings"

	"gosvm/internal/sim"
)

// Loss records a message the network lost for good: one the transport
// gave up on after exhausting its retransmission budget.
type Loss struct {
	At       sim.Time
	From, To int
	Kind     int
	Reply    bool
	Attempts int
}

// RecordLoss notes a permanently lost message for later diagnosis.
func (in *Injector) RecordLoss(l Loss) { in.losses = append(in.losses, l) }

// HangError wraps a run failure (typically a *sim.DeadlockError) with
// the watchdog's diagnosis: the messages whose loss explains the hang.
// Unwrap exposes the underlying error, so errors.As still finds the
// DeadlockError inside.
type HangError struct {
	Err  error
	Lost []Loss

	name func(kind int) string
}

// NodeDeadError reports a run that could not complete because a crashed
// node took needed state down with it: no replica existed to re-home
// its pages. Unwrap exposes the underlying failure (typically a
// *sim.DeadlockError), if any.
type NodeDeadError struct {
	Node int
	At   sim.Time // when the node crashed
	// Role names the unrecoverable role the node held, when known:
	// "home", the only role that moves to a survivor.
	Role   string
	Reason string
	Err    error
}

func (e *NodeDeadError) Unwrap() error { return e.Err }

func (e *NodeDeadError) Error() string {
	who := fmt.Sprintf("node %d", e.Node)
	if e.Role != "" {
		who += " (" + e.Role + ")"
	}
	s := fmt.Sprintf("%s crashed at %v and its state is unrecoverable", who, e.At)
	if e.Reason != "" {
		s += ": " + e.Reason
	}
	if e.Err != nil {
		s += " (" + e.Err.Error() + ")"
	}
	return s
}

// Diagnose annotates a run failure with any permanently lost messages.
func (in *Injector) Diagnose(err error) error {
	if err != nil && len(in.losses) > 0 {
		err = &HangError{Err: err, Lost: in.losses, name: in.KindName}
	}
	return err
}

func (e *HangError) Unwrap() error { return e.Err }

func (e *HangError) Error() string {
	var b strings.Builder
	b.WriteString(e.Err.Error())
	fmt.Fprintf(&b, "; fault watchdog: %d message(s) lost for good:", len(e.Lost))
	for _, l := range e.Lost {
		b.WriteString("\n  " + e.describe(l))
	}
	return b.String()
}

func (e *HangError) describe(l Loss) string {
	kind := fmt.Sprintf("kind %d", l.Kind)
	if e.name != nil {
		kind = e.name(l.Kind)
	}
	if l.Reply {
		kind += " reply"
	}
	return fmt.Sprintf("%s n%d->n%d given up at %v after %d attempts", kind, l.From, l.To, l.At, l.Attempts)
}
