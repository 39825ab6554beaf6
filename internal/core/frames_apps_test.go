package core_test

import (
	"testing"

	"gosvm/internal/apps"
	"gosvm/internal/core"
)

// frameTap wraps an application to read the simulation's frame list at
// gather time, when every worker is past its last barrier.
type frameTap struct {
	core.App
	list core.FrameList
}

func (a *frameTap) Gather(c *core.Ctx) []float64 {
	a.list = c.FrameList()
	return a.App.Gather(c)
}

// TestPoolsHoldPageFramesOnly: water-sp diffs a few words of many pages,
// the case where a page-capacity diff backing wastes the most. The
// protocols compute exact-size diffs, so after a run the pool holds no diff
// backing, and no more free frames than the nodes hold copies.
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
			if l := tap.list; l.Backings != 0 || l.Free > l.Resident {
				t.Errorf("%d diff backings and %d frames free, %d copies resident; want no backing, frames within copies",
					l.Backings, l.Free, l.Resident)
			}
		})
	}
}
