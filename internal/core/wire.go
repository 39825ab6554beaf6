package core

import (
	"fmt"

	"gosvm/internal/mem"
	"gosvm/internal/paragon"
	"gosvm/internal/stats"
)

// Message kinds.
const (
	kLockAcq    = iota + 1 // requester -> lock manager
	kLockFwd               // manager -> current owner
	kBarrier               // node -> its parent in the barrier tree
	kGCDone                // node -> its parent in the barrier tree (homeless GC rendezvous)
	kFetchDiffs            // faulting node -> writer (LRC/OLRC)
	kFetchPage             // faulting node -> copy holder / home
	kDiffFlush             // writer -> home (HLRC), or coproc-to-home (OHLRC)
	kMakeDiff              // compute -> own coproc (overlapped protocols)

	numKinds = kMakeDiff + 1
)

// wireKind is one message kind's row of the wire table: its name in
// watchdog reports, the traffic class of its request and of the answer to
// it (Table 5's split), and whether OLRC and OHLRC serve its requests on
// the co-processor instead of the compute processor.
type wireKind struct {
	name        string
	req, answer stats.Class
	coproc      bool
}

// wireKinds is the wire table, indexed by kind. Synchronization is
// protocol traffic both ways; a fetch asks in protocol traffic and is
// answered in data; a diff flush is one-way data. kMakeDiff is a post to
// the node's own co-processor that crosses no wire (base.postDiff).
var wireKinds = [numKinds]wireKind{
	kLockAcq:    {"lock-acquire", stats.ClassProtocol, stats.ClassProtocol, false},
	kLockFwd:    {"lock-forward", stats.ClassProtocol, stats.ClassProtocol, false},
	kBarrier:    {"barrier", stats.ClassProtocol, stats.ClassProtocol, false},
	kGCDone:     {"gc-done", stats.ClassProtocol, stats.ClassProtocol, false},
	kFetchDiffs: {"fetch-diffs", stats.ClassProtocol, stats.ClassData, true},
	kFetchPage:  {"fetch-page", stats.ClassProtocol, stats.ClassData, true},
	kDiffFlush:  {"diff-flush", stats.ClassData, stats.ClassData, true},
	kMakeDiff:   {name: "make-diff"},
}

// msgKindName renders protocol message kinds for fault watchdog reports.
func msgKindName(kind int) string {
	if kind > 0 && kind < numKinds {
		return wireKinds[kind].name
	}
	return fmt.Sprintf("kind-%d", kind)
}

// request builds a request, or a one-way message, of kind carrying body:
// its size from the body (wireSize), its class and processor from the
// kind's row.
func (b *base) request(kind int, body any) paragon.Msg {
	w := &wireKinds[kind]
	m := paragon.Msg{Kind: kind, Size: b.wireSize(body, false), Class: w.req, Body: body}
	if w.coproc && b.overlapped {
		m.Target = paragon.ToCoproc
	}
	return m
}

// call sends a request of kind carrying body to node to and blocks the
// application proc until its answer.
func (b *base) call(to, kind int, body any) paragon.Msg {
	return b.node.Call(b.app(), to, b.request(kind, body))
}

// respond answers req with body, under req's kind: the lock grant answers
// a kLockFwd, and targeted faults match an answer on its kind and
// direction. Every answer is checked first (claimBody).
func (b *base) respond(req paragon.Msg, body any) {
	b.claimBody(req)
	b.node.Respond(req, paragon.Msg{
		Kind:  req.Kind,
		Size:  b.wireSize(body, true),
		Class: wireKinds[req.Kind].answer,
		Body:  body,
	})
}

// claimBody checks an answer to req before it leaves. The server has
// written it into the requester's one body of its kind, which is sound
// only while the requester's Call waits. It relies on the transport
// delivering each request exactly once (DESIGN §7): a request serviced
// again after its answer would overwrite the body of the requester's next
// exchange, and the reply port's generation check drops only the stale
// answer, not the write. Under mem.CheckFrames an answer to a Call that no
// longer waits panics.
func (b *base) claimBody(req paragon.Msg) {
	if mem.CheckFrames && !req.Waiting() {
		panic(fmt.Sprintf("core: node %d answering into the body of a %s request whose Call no longer waits (serviced twice?)",
			b.self, msgKindName(req.Kind)))
	}
}

// wireSize is the payload in bytes of a message carrying body: a request
// or one-way message, or with answer an answer written into the
// requester's body. A dense vector (vc.VC) is 4 bytes per node, a sparse
// one (vc.Sparse) the cheaper of that and a counted pair list, an absent
// one 4; a page is PageBytes.
func (b *base) wireSize(body any, answer bool) int {
	switch body := body.(type) {
	case nil: // the GC rendezvous: an arrival, and its release
		if answer {
			return 4
		}
		return 8
	case *lockReq:
		return 8 + body.ReqVC.WireSize()
	case *barrierReport:
		sz := 8 + body.VC.WireSize() + b.recsWireSize(body.Recs)
		if body.MinVC != nil {
			sz += 8 + body.MinVC.WireSize()
		}
		return sz
	case *grantInfo: // a lock grant or a barrier release
		return body.VC.WireSize() + b.recsWireSize(body.Intervals)
	case *fetchPageReq:
		if answer {
			return b.sys.Space.PageBytes() + body.Flush.WireSize()
		}
		// The requester's dense clock, whatever Need holds.
		return 8 + b.clock.WireSize()
	case *diffFlush:
		return body.Diff.WireSize() + body.Dep.WireSize()
	case *fetchDiffsReq:
		if !answer {
			return 12 + 8*len(body.Recs)
		}
		size := 0
		for _, d := range body.Diffs {
			if d != nil {
				size += d.WireSize()
			}
		}
		return size
	case *lrcFetchPageReq:
		if answer {
			return b.sys.Space.PageBytes() + vecOrNil(&body.AppliedVC).WireSize()
		}
		return 8
	}
	panic(fmt.Sprintf("core: no wire format for a %T body", body))
}

// recsWireSize is a list of interval records on the wire: a count, then
// each record's writer and interval, its pages and, under the homeless
// protocols, its vector timestamp (wireVC).
func (b *base) recsWireSize(recs []*IntervalRec) int {
	sz := 4
	for _, r := range recs {
		sz += 8 + 4*len(r.Pages)
		if b.wireVC() {
			sz += r.VC.WireSize()
		}
	}
	return sz
}
