package core_test

import (
	"testing"

	"gosvm/internal/apps"
	"gosvm/internal/core"
	"gosvm/internal/sim"
)

// TestDeprecatedShimsInert pins the four deprecated shims as inert:
// Options.RunWorkers changes no byte of a run's stats, and Partition, Post
// and LaneNow, called in the shape of the benchmark's lane probe (chains
// of events hopping between lanes one lookahead apart), schedule onto the
// one heap, where events at the same instant fire in creation order.
func TestDeprecatedShimsInert(t *testing.T) {
	sor := func() core.App { return &apps.SOR{H: 48, W: 16, Iters: 2} }
	opts := matrixOpts(core.ProtoHLRC, 4, "none")
	ref, _ := runJSON(t, opts, sor())
	opts.RunWorkers = 8
	if got, _ := runJSON(t, opts, sor()); got != ref {
		t.Fatalf("RunWorkers 8 changes the stats:\n--- 0 ---\n%s\n--- 8 ---\n%s", ref, got)
	}

	const lanes, hops, lookahead = 4, 6, 50 * sim.Microsecond
	type firing struct {
		at         sim.Time
		lane, left int
	}
	k := sim.NewKernel()
	k.Partition(lanes, lookahead, 2)
	var got []firing
	var step func(lane, left int) func()
	step = func(lane, left int) func() {
		return func() {
			if now := k.LaneNow(lane); now != k.Now() {
				t.Errorf("LaneNow(%d) = %v, Now = %v", lane, now, k.Now())
			}
			got = append(got, firing{k.Now(), lane, left})
			if left == 0 {
				return
			}
			dst := lane
			if left%2 == 0 {
				dst = (lane + 1) % lanes
			}
			k.Post(lane, dst, k.LaneNow(lane)+lookahead, step(dst, left-1))
		}
	}
	for i := 0; i < lanes; i++ {
		k.Post(i, i, 0, step(i, hops))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Each hop of chain i is created by the one before it, and the chains'
	// hops at one instant were created in chain order: every instant
	// fires chain 0's hop first and chain lanes-1's last.
	var want []firing
	lane := [lanes]int{0, 1, 2, 3}
	for left := hops; left >= 0; left-- {
		for i := range lane {
			want = append(want, firing{sim.Time(hops-left) * lookahead, lane[i], left})
			if left%2 == 0 {
				lane[i] = (lane[i] + 1) % lanes
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d firings, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
