package core

import (
	"testing"

	"gosvm/internal/mem"
)

// CheckFrames switches the object-lifetime checks (mem.CheckFrames) on
// until t and its subtests finish: every frame is checksummed as it is
// published and verified at its last release and at Finish, so a write
// through a shared frame panics in the run that made it; every server that
// writes its answer into a requester's body first verifies that the
// requester still waits in the Call the body belongs to (base.claimBody);
// and a home refuses a diff record that is on its free list (homeApply).
// Off — the default — each check is one untaken branch, and nothing on the
// access path (TestFrameCheckIsOffTheAccessPath).
func CheckFrames(t testing.TB) {
	mem.CheckFrames = true
	t.Cleanup(func() { mem.CheckFrames = false })
}

// FrameList is one node's page-frame state: the lengths of its pool's two
// free lists, the page copies its table holds, and the count of them the
// free-list cap works from.
type FrameList struct{ Free, Backings, Resident, Counted int }

// FrameLists reports every node's FrameList. For tests outside the package
// (a wrapped App's Gather); sequential kernel only, since it reads every
// lane's state from the caller's.
func (c *Ctx) FrameLists() []FrameList {
	lists := make([]FrameList, len(c.sys.Engines))
	for i := range lists {
		lists[i] = c.sys.frameList(i)
	}
	return lists
}

// OwnFrameList is the calling node's FrameList: its own lane's state, so it
// is safe on the partitioned kernel too.
func (c *Ctx) OwnFrameList() FrameList { return c.sys.frameList(c.id) }

func (s *System) frameList(i int) (l FrameList) {
	b := baseOf(s.Engines[i])
	l.Free, l.Backings = b.pool().Free()
	l.Counted = b.copies
	s.Tables[i].Each(func(_ int, p *mem.Page) {
		if p.Data != nil {
			l.Resident++
		}
	})
	return l
}

// HeldFrame is the shared frame the calling node's copy of a's page
// aliases, nil if the copy is private.
func (c *Ctx) HeldFrame(a mem.Addr) *mem.Frame {
	f, _ := c.pt.Page(c.sys.Space.PageOf(a)).Shared()
	return f
}
