package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// mix is the splitmix64 finalizer over an event's identity. Deriving each
// hop's destination and delay from (trial, origin lane, hop) rather than
// from a shared generator keeps the workload a pure function of the
// events themselves: lanes run concurrently, so draw order would not be.
func mix(trial, origin, hop int) uint64 {
	z := uint64(trial)<<32 ^ uint64(origin)<<16 ^ uint64(hop)
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// TestWindowMergeOrder is the property test for the windowed scheduler's
// merge step: for random workloads of cross-lane posts, every lane
// executes its events in nondecreasing time order and in the same
// (time, creator rank, creation index) merge order no matter how the
// handoffs interleave across windows — the per-lane execution log is
// identical at 1 worker and many.
func TestWindowMergeOrder(t *testing.T) {
	const lanes = 5
	const hops = 12
	const lookahead = Time(40)
	// step is one executed event: which chain it belongs to, how far
	// along, and when its lane ran it.
	type step struct {
		origin, hop int
		at          Time
	}
	for trial := 0; trial < 20; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			exec := func(workers int) [][]step {
				// One log per lane: a lane's events run on one worker at a
				// time, so each slice has a single writer.
				logs := make([][]step, lanes)
				k := NewKernel()
				k.Partition(lanes, lookahead, workers)
				// Each lane starts a chain of events that hop pseudo-randomly
				// to other lanes, always >= lookahead ahead in time.
				var chain func(origin, self, hop int) func()
				chain = func(origin, self, hop int) func() {
					return func() {
						now := k.LaneNow(self)
						logs[self] = append(logs[self], step{origin, hop, now})
						if hop == hops {
							return
						}
						r := mix(trial, origin, hop)
						dst := int(r % lanes)
						delay := lookahead + Time(r>>8%60)
						k.Post(self, dst, now+delay, chain(origin, dst, hop+1))
					}
				}
				for i := 0; i < lanes; i++ {
					// Setup-style seeding: rank -1 creators with kernel-wide
					// creation indices, exactly what schedule stamps pre-Run.
					k.lanes[i].push(event{at: Time(mix(trial, i, hops+1) % 30), prank: -1,
						cidx: int64(i), task: funcTask(chain(i, i, 0))})
				}
				if err := k.Run(); err != nil {
					t.Fatalf("run: %v", err)
				}
				return logs
			}
			seq, par := exec(1), exec(4)
			// Workers only change host-thread placement: each lane's own
			// execution sequence must be identical.
			for l := 0; l < lanes; l++ {
				a, b := seq[l], par[l]
				if len(a) != len(b) {
					t.Fatalf("lane %d: %d events at 1 worker, %d at 4", l, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("lane %d event %d: %+v at 1 worker, %+v at 4", l, i, a[i], b[i])
					}
					if i > 0 && b[i].at < b[i-1].at {
						t.Errorf("lane %d time went backwards: %d after %d", l, b[i].at, b[i-1].at)
					}
				}
			}
		})
	}
}

// TestMergeHeapOrderInsensitive checks the heap key totally orders
// events regardless of insertion order: pushing the same event set in
// random permutations always pops the same sequence. This is what makes
// the window-boundary outbox merge deterministic.
func TestMergeHeapOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var evs []event
	for i := 0; i < 200; i++ {
		evs = append(evs, event{
			at:    Time(rng.Intn(20)),
			prank: int64(rng.Intn(10)) - 1,
			cidx:  int64(i), // unique: no two events share a full key
		})
	}
	popAll := func(perm []int) []event {
		var l lane
		for _, i := range perm {
			l.push(evs[i])
		}
		out := make([]event, 0, len(evs))
		for len(l.events) > 0 {
			out = append(out, l.pop())
		}
		return out
	}
	key := func(e *event) [3]int64 {
		return [3]int64{int64(e.at), e.prank, e.cidx}
	}
	ref := popAll(rng.Perm(len(evs)))
	for trial := 0; trial < 10; trial++ {
		got := popAll(rng.Perm(len(evs)))
		for i := range ref {
			if key(&got[i]) != key(&ref[i]) {
				t.Fatalf("trial %d: pop %d = %+v, want %+v", trial, i, got[i], ref[i])
			}
		}
	}
	// And the popped sequence is sorted by the full key.
	for i := 1; i < len(ref); i++ {
		if ref[i].before(&ref[i-1]) {
			t.Fatalf("pop %d out of order: %+v before %+v", i, ref[i], ref[i-1])
		}
	}
}

// TestLookaheadViolationPanics pins the safety check: a cross-lane post
// inside the current window is a bug and must fail loudly.
func TestLookaheadViolationPanics(t *testing.T) {
	k := NewKernel()
	k.Partition(2, 100, 1)
	k.Post(0, 0, 0, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected lookahead-violation panic")
			}
			k.Stop()
		}()
		k.Post(0, 1, k.LaneNow(0)+1, func() {}) // < lookahead ahead: must panic
	})
	defer func() { recover() }() // the lane re-raises; swallow
	_ = k.Run()
}
