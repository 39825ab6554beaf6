package core_test

import (
	"testing"

	"gosvm/internal/apps"
	"gosvm/internal/core"
)

// frameTap wraps an application to read the machine's frame lists at
// gather time, when every worker is past its last barrier.
type frameTap struct {
	core.App
	lists []core.FrameList
}

func (a *frameTap) Gather(c *core.Ctx) []float64 {
	a.lists = c.FrameLists()
	return a.App.Gather(c)
}

// TestPoolsHoldPageFramesOnly: water-sp diffs a few words of many pages,
// the case where a page-capacity diff backing wastes the most. The
// protocols compute exact-size diffs now, so after a run no node's pool
// holds a diff backing (under HLRC the parent left one per diff on the
// homes' lists, never drawn again), and its frames stay under the cap.
func TestPoolsHoldPageFramesOnly(t *testing.T) {
	for _, proto := range core.Protocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			tap := &frameTap{App: apps.NewWaterSp(apps.SizeTest)}
			res, err := core.Run(core.Options{Protocol: proto, Machine: core.Machine{Nodes: 8}, PageBytes: 1024}, tap, false)
			if err != nil {
				t.Fatal(err)
			}
			diffs := int64(0)
			for _, nd := range res.Stats.Nodes {
				diffs += nd.Counts.DiffsCreated
			}
			if diffs == 0 {
				t.Fatal("the run created no diffs")
			}
			for i, l := range tap.lists {
				if l.Backings != 0 || l.Free > l.Resident {
					t.Errorf("node %d: %d diff backings and %d frames free, %d copies resident; want no backing, frames within copies",
						i, l.Backings, l.Free, l.Resident)
				}
			}
		})
	}
}
