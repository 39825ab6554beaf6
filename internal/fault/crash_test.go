package fault

import (
	"errors"
	"strings"
	"testing"

	"gosvm/internal/sim"
)

func TestCrashDownWindows(t *testing.T) {
	in := NewInjector(Plan{Crashes: []Crash{
		{Node: 1, At: 100, RestartAt: 200},
		{Node: 1, At: 400, RestartAt: 500},
	}})
	cases := []struct {
		node int
		t    sim.Time
		down bool
	}{
		{0, 150, false}, // uncrashed node
		{1, 99, false},  // before the outage
		{1, 100, true},  // crash instant
		{1, 199, true},  // inside
		{1, 200, false}, // restart instant is up again
		{1, 450, true},  // second outage
		{1, 600, false}, // after both
	}
	for _, c := range cases {
		if got := in.Down(c.node, c.t); got != c.down {
			t.Fatalf("Down(%d, %v) = %v, want %v", c.node, c.t, got, c.down)
		}
	}
}

func TestCrashStallStretchesCompute(t *testing.T) {
	in := NewInjector(Plan{Crashes: []Crash{
		{Node: 1, At: 100, RestartAt: 200},
	}})
	if d := in.Stall(0, 50, 100); d != 100 {
		t.Fatalf("uncrashed node stalled: %v", d)
	}
	if d := in.Stall(1, 250, 100); d != 100 {
		t.Fatalf("compute after restart stalled: %v", d)
	}
	if d := in.Stall(1, 0, 50); d != 50 {
		t.Fatalf("compute ending before the crash stalled: %v", d)
	}
	// Work starts at 50, the outage [100, 200) freezes it, the last 50
	// units finish at 250: total duration 200.
	if d := in.Stall(1, 50, 100); d != 200 {
		t.Fatalf("overlapping compute: %v, want 200", d)
	}
}

func TestCrashProfile(t *testing.T) {
	p, err := Profile(ProfileCrash, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Active() {
		t.Fatal("crash profile reported inert")
	}
	if len(p.Crashes) == 0 {
		t.Fatal("crash profile schedules no crash")
	}
	c := p.Crashes[0]
	if c.RestartAt <= c.At {
		t.Fatalf("restart %v not after crash %v", c.RestartAt, c.At)
	}
}

func TestNodeDeadErrorReport(t *testing.T) {
	base := errors.New("deadlock: everyone waits")
	err := error(&NodeDeadError{
		Node:   3,
		At:     5 * sim.Millisecond,
		Reason: "no replica holds its home pages",
		Err:    base,
	})
	msg := err.Error()
	for _, want := range []string{"node 3", "unrecoverable", "no replica holds its home pages", "deadlock: everyone waits"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("report missing %q: %v", want, msg)
		}
	}
	if !errors.Is(err, base) {
		t.Fatal("NodeDeadError does not unwrap to the underlying error")
	}
}
