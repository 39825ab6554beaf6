package core

import "gosvm/internal/mem"

// FrameList is one node's page-frame state: the lengths of its pool's two
// free lists, the page copies its table holds, and the count of them the
// free-list cap works from.
type FrameList struct{ Free, Backings, Resident, Counted int }

// FrameLists reports every node's FrameList. For tests outside the package
// (a wrapped App's Gather); sequential kernel only, since it reads every
// lane's state from the caller's.
func (c *Ctx) FrameLists() []FrameList {
	lists := make([]FrameList, len(c.sys.Engines))
	for i, e := range c.sys.Engines {
		l := &lists[i]
		l.Free, l.Backings = baseOf(e).pool().Free()
		l.Counted = baseOf(e).copies
		c.sys.Tables[i].Each(func(_ int, p *mem.Page) {
			if p.Data != nil {
				l.Resident++
			}
		})
	}
	return lists
}
