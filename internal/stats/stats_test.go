package stats

import (
	"reflect"
	"testing"
	"testing/quick"

	"gosvm/internal/sim"
)

func TestAddAndTotal(t *testing.T) {
	var n Node
	n.Add(CatCompute, 100)
	n.Add(CatData, 50)
	n.Add(CatCompute, 25)
	if n.Time[CatCompute] != 125 || n.Time[CatData] != 50 {
		t.Fatalf("times = %v", n.Time)
	}
	if n.Total() != 175 {
		t.Fatalf("total = %v", n.Total())
	}
}

func TestSentAccounting(t *testing.T) {
	var n Node
	n.Sent(ClassData, 100)
	n.Sent(ClassData, 200)
	n.Sent(ClassProtocol, 10)
	if n.MsgsOut[ClassData] != 2 || n.Bytes[ClassData] != 300 {
		t.Fatalf("data traffic = %d msgs %d bytes", n.MsgsOut[ClassData], n.Bytes[ClassData])
	}
	if n.MsgsOut[ClassProtocol] != 1 || n.Bytes[ClassProtocol] != 10 {
		t.Fatalf("protocol traffic wrong")
	}
}

func TestMemPeakTracking(t *testing.T) {
	var n Node
	n.MemAlloc(100)
	n.MemAlloc(200)
	n.MemFree(250)
	n.MemAlloc(10)
	if n.ProtoMem != 60 {
		t.Fatalf("current = %d", n.ProtoMem)
	}
	if n.ProtoMemPeak != 300 {
		t.Fatalf("peak = %d", n.ProtoMemPeak)
	}
}

func TestMemNegativePanics(t *testing.T) {
	var n Node
	n.MemAlloc(10)
	defer func() {
		if recover() == nil {
			t.Fatal("negative protocol memory did not panic")
		}
	}()
	n.MemFree(11)
}

func TestSnapshotSub(t *testing.T) {
	var n Node
	n.Add(CatLock, 100)
	n.Counts.ReadMisses = 5
	n.Sent(ClassData, 64)
	snap := n.Snapshot()
	n.Add(CatLock, 40)
	n.Counts.ReadMisses = 9
	n.Sent(ClassData, 36)
	d := n.Snapshot().Sub(snap)
	if d.Time[CatLock] != 40 {
		t.Fatalf("delta lock = %v", d.Time[CatLock])
	}
	if d.Counts.ReadMisses != 4 {
		t.Fatalf("delta misses = %d", d.Counts.ReadMisses)
	}
	if d.Bytes[ClassData] != 36 || d.MsgsOut[ClassData] != 1 {
		t.Fatalf("delta traffic wrong: %+v", d)
	}
}

func TestRunAggregates(t *testing.T) {
	a := &Node{}
	a.Add(CatCompute, 100)
	a.Counts.DiffsCreated = 4
	a.Sent(ClassData, 1000)
	a.MemAlloc(500)
	b := &Node{}
	b.Add(CatCompute, 300)
	b.Counts.DiffsCreated = 8
	b.Sent(ClassProtocol, 200)
	b.MemAlloc(700)
	b.MemFree(100)
	a.MsgsIn, b.MsgsIn = 30, 10
	a.Detect, b.Detect = 5, 9
	r := &Run{Nodes: []*Node{a, b}, Elapsed: 400, SeqTime: 800}

	if got := r.Speedup(); got != 2 {
		t.Fatalf("speedup = %v", got)
	}
	avg := r.AvgNode()
	if avg.Time[CatCompute] != 200 {
		t.Fatalf("avg compute = %v", avg.Time[CatCompute])
	}
	if avg.Counts.DiffsCreated != 6 {
		t.Fatalf("avg diffs = %d", avg.Counts.DiffsCreated)
	}
	sum := r.Sum()
	if sum.Time[CatCompute] != 400 || sum.Counts.DiffsCreated != 12 || sum.MsgsIn != 40 {
		t.Fatalf("sum = %+v", sum)
	}
	if sum.Detect != 9 || avg.Detect != 9 {
		t.Fatalf("detect: sum %v, avg %v, want the maximum 9", sum.Detect, avg.Detect)
	}
	if got := r.MsgsInSkew(); got != 1.5 {
		t.Fatalf("msgs-in skew = %v, want 30 / mean 20", got)
	}
	if got := (&Run{Nodes: []*Node{{}, {}}}).MsgsInSkew(); got != 0 {
		t.Fatalf("msgs-in skew of an idle machine = %v", got)
	}
	if r.TotalMsgs() != 2 {
		t.Fatalf("msgs = %d", r.TotalMsgs())
	}
	if r.TotalBytes(ClassData) != 1000 || r.TotalBytes(ClassProtocol) != 200 {
		t.Fatal("byte totals wrong")
	}
	if r.PeakProtoMem() != 700 {
		t.Fatalf("peak = %d", r.PeakProtoMem())
	}
}

// TestCounterFieldsCoverCounters holds the field table to the struct: one
// entry per Counters field, in declaration order, each reaching its own
// field — Sum, AvgNode, Sub and the JSON encoding all trust it.
func TestCounterFieldsCoverCounters(t *testing.T) {
	typ := reflect.TypeOf(Counters{})
	if typ.NumField() != len(counterFields) {
		t.Fatalf("Counters has %d fields, counterFields names %d", typ.NumField(), len(counterFields))
	}
	keys := map[string]bool{}
	for i, f := range counterFields {
		var c Counters
		*f.at(&c) = 7
		if got := reflect.ValueOf(c).Field(i).Int(); got != 7 {
			t.Errorf("counterFields[%d] (%s) does not reach field %s", i, f.key, typ.Field(i).Name)
		}
		if keys[f.key] {
			t.Errorf("JSON key %q appears twice", f.key)
		}
		keys[f.key] = true
	}
}

func TestSpeedupZeroSafe(t *testing.T) {
	r := &Run{}
	if r.Speedup() != 0 {
		t.Fatal("speedup on empty run should be 0")
	}
}

func TestCategoryStrings(t *testing.T) {
	seen := map[string]bool{}
	for c := Category(0); c < NumCategories; c++ {
		s := c.String()
		if s == "" || seen[s] {
			t.Fatalf("category %d has bad name %q", c, s)
		}
		seen[s] = true
	}
	if ClassData.String() == ClassProtocol.String() {
		t.Fatal("class names collide")
	}
}

// Property: Sub is the inverse of accumulating more time.
func TestSubInverseProperty(t *testing.T) {
	f := func(base, extra [int(NumCategories)]uint16) bool {
		var n Node
		for c := 0; c < int(NumCategories); c++ {
			n.Add(Category(c), sim.Time(base[c]))
		}
		snap := n.Snapshot()
		for c := 0; c < int(NumCategories); c++ {
			n.Add(Category(c), sim.Time(extra[c]))
		}
		d := n.Snapshot().Sub(snap)
		for c := 0; c < int(NumCategories); c++ {
			if d.Time[c] != sim.Time(extra[c]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
