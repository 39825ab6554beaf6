package core

import (
	"testing"

	"gosvm/internal/mem"
)

// CheckFrames switches the object-lifetime checks (mem.CheckFrames) on
// until t and its subtests finish: every frame is checksummed as it is
// published and verified at its last release and at Finish, so a write
// through a shared frame panics in the run that made it; every answer
// verifies, before it leaves, that the requester still waits in the Call
// whose body the server wrote it into (base.respond, claimBody);
// a home refuses a diff record that is on the free list (homeApply); and a
// homeless node refuses to apply a page's diffs out of happens-before order
// (lrcEngine.checkApplyOrder).
// Off — the default — each check is one untaken branch, and nothing on the
// access path (TestFrameCheckIsOffTheAccessPath).
func CheckFrames(t testing.TB) {
	mem.CheckFrames = true
	t.Cleanup(func() { mem.CheckFrames = false })
}

// FrameList is the simulation's page-frame state: the lengths of its one
// pool's two free lists and the page copies every node's table holds.
type FrameList struct{ Free, Backings, Resident int }

// FrameList reports the simulation's FrameList. For tests outside the
// package (a wrapped App's Gather).
func (c *Ctx) FrameList() (l FrameList) {
	l.Free, l.Backings = c.sys.pool.Free()
	for _, t := range c.sys.Tables {
		t.Each(func(_ int, p *mem.Page) {
			if p.Data != nil {
				l.Resident++
			}
		})
	}
	return l
}

// HeldFrame is the shared frame the calling node's copy of a's page
// aliases, nil if the copy is private.
func (c *Ctx) HeldFrame(a mem.Addr) *mem.Frame {
	f, _ := c.pt.Page(c.sys.Space.PageOf(a)).Shared()
	return f
}
