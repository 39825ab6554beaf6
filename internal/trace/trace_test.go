package trace

import (
	"strings"
	"testing"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Emit(Event{Kind: ReadMiss})
	if l.Len() != 0 || l.Events() != nil {
		t.Fatal("nil log not inert")
	}
	if got := l.ByKind(ReadMiss); got != nil {
		t.Fatal("nil log filter not empty")
	}
}

func TestLimit(t *testing.T) {
	l := NewLog(3)
	for i := 0; i < 10; i++ {
		l.Emit(Event{T: 0, Kind: ReadMiss, Page: i})
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	if l.Events()[2].Page != 2 {
		t.Fatal("limit dropped the wrong events")
	}
}

func TestFilters(t *testing.T) {
	l := NewLog(0)
	l.Emit(Event{Node: 0, Kind: ReadMiss, Page: 7, Peer: -1})
	l.Emit(Event{Node: 1, Kind: DiffApply, Page: 7, Peer: 0, Arg: 12})
	l.Emit(Event{Node: 1, Kind: LockAcquire, Page: -1, Peer: -1, Arg: 3})
	if got := l.ByKind(DiffApply); len(got) != 1 || got[0].Arg != 12 {
		t.Fatalf("ByKind(DiffApply) = %v", got)
	}
	if got := l.ByKind(GCStart); got != nil {
		t.Fatalf("ByKind of an absent kind = %v", got)
	}
	c := l.Counts()
	if c[ReadMiss] != 1 || c[DiffApply] != 1 || c[LockAcquire] != 1 {
		t.Fatalf("counts = %v", c)
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: %v, %v", k, got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind accepted junk")
	}
}

func TestEventString(t *testing.T) {
	out := Event{T: 1500000, Node: 2, Kind: LockAcquire, Page: -1, Peer: -1, Arg: 9}.String() + "\n" +
		Event{T: 2500000, Node: 3, Kind: DiffFlush, Page: 4, Peer: 1, Arg: 128}.String()
	for _, want := range []string{"lock-acquire", "lock=9", "diff-flush", "page=4", "peer=1", "bytes=128"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
