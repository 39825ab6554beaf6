package core

import (
	"fmt"
	"strings"
	"testing"

	"gosvm/internal/mem"
	"gosvm/internal/paragon"
	"gosvm/internal/vc"
)

// TestInvariantPanicsNameTheNode drives each of base's invariant checks that
// no run reaches into its panic, on a bare node 3 of a 4-node machine: a
// second waiter on a lock, a second delivery of a one-off frame, a barrier
// report carrying a record past its own clock, a write notice for a page
// in the middle of its interval, and a node finishing with a dirty page, a
// held lock or a request still waiting. Each panic must name node 3.
func TestInvariantPanicsNameTheNode(t *testing.T) {
	const self, nodes = 3, 4
	bare := func() *base {
		space := mem.NewSpace(512)
		space.Alloc(space.PageWords)
		return &base{
			sys:   &System{Space: space, pool: mem.NewPool(space.PageWords)},
			self:  self,
			clock: vc.New(nodes),
			pt:    mem.NewTable(space),
			locks: map[int]*lockState{},
		}
	}
	waiting := func(requester int) paragon.Msg {
		return paragon.Msg{Body: &lockReq{Lock: 5, Requester: requester}}
	}
	noInflight := func(func(int, *inflightDiff)) {}
	cases := []struct {
		name, want string
		fire       func(b *base)
	}{
		{"waitFor with a second waiter", "node 3 got node 2's acquire of lock 5 while node 1's waits", func(b *base) {
			b.waitFor(&lockState{waiter: waiting(1)}, waiting(2))
		}},
		{"adopt with a second delivery", "node 3 adopting a 0-word page frame", func(b *base) {
			p, frame := &mem.Page{}, make([]float64, b.sys.Space.PageWords)
			b.adopt(p, &frame)
			b.adopt(p, &frame)
		}},
		{"mergeReports with a record past its clock", "node 3 merging node 2's report, which carries interval 2 of node 2 past its clock's 1", func(b *base) {
			rep := &barrierReport{Node: 2, VC: vc.VC{0, 0, 1, 0}, Recs: []*IntervalRec{{Proc: 2, Interval: 2}}}
			b.mergeReports([]arrival{{rep: rep}})
		}},
		{"invalidate on a ReadWrite page", "node 3 noticed page 0 mid-interval", func(b *base) {
			b.pt.Page(0).State = mem.ReadWrite
			b.invalidate(&IntervalRec{Proc: 1, Interval: 1}, 0)
		}},
		{"finish with a dirty page", "node 3 finished with 1 dirty pages", func(b *base) {
			b.markDirty(0)
			b.finish(noInflight)
		}},
		{"finish with a held lock", "node 3 finished holding lock 5", func(b *base) {
			b.locks[5] = &lockState{owner: true, held: true}
			b.finish(noInflight)
		}},
		{"finish with a waiting request", "node 3 finished with node 1's request waiting on lock 5", func(b *base) {
			b.locks[5] = &lockState{waiter: waiting(1)}
			b.finish(noInflight)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				got := fmt.Sprint(recover())
				if !strings.Contains(got, tc.want) {
					t.Errorf("panic %q, want one containing %q", got, tc.want)
				}
			}()
			tc.fire(bare())
		})
	}
}
