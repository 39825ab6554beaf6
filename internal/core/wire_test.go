package core

import (
	"fmt"
	"testing"

	"gosvm/internal/mem"
	"gosvm/internal/paragon"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
	"gosvm/internal/vc"
)

// wireCase is one exchange of TestWireFormat: the request of kind carrying
// req and, if ans is set, the answer carrying ansBody. coproc is whether
// OLRC and OHLRC serve the request on the co-processor.
type wireCase struct {
	name     string
	kind     int
	req      any
	reqBytes int
	reqClass stats.Class
	coproc   bool
	ans      bool
	ansBody  any
	ansBytes int
	ansClass stats.Class
}

// TestWireFormat holds every body's request and answer to the sizes,
// classes and processors the wire format is defined by, at 8 and 96 nodes
// (the vectors' dense and pair-list encodings trade places in between),
// homeless and home-based, overlapped and not, each in a real exchange
// between two nodes (exchange).
func TestWireFormat(t *testing.T) {
	const pageBytes = 4096
	for _, n := range []int{8, 96} {
		dense := 4 * n
		pairs := func(nnz int) int { return min(4*n, 4+8*nnz) }
		vec := func(nnz int) *vc.Sparse {
			v := new(vc.Sparse).Init(n)
			for p := 0; p < nnz; p++ {
				v.Set(p, int32(p+1))
			}
			return v
		}
		rec := &IntervalRec{Proc: 1, Interval: 3, VC: vec(4), Pages: []int32{1, 4, 7}}
		recBytes := func(withVC bool) int {
			if withVC {
				return 8 + 4*3 + pairs(4)
			}
			return 8 + 4*3
		}
		diff := mem.Diff{Page: 2, Runs: []mem.Run{{Off: 0, Vals: []float64{1, 2}}, {Off: 9, Vals: []float64{3}}}}
		diffBytes := 16 + (8 + 8*2) + (8 + 8*1)

		for _, homeBased := range []bool{false, true} {
			withVC := !homeBased
			grant := &grantInfo{VC: vc.New(n), Intervals: []*IntervalRec{rec}}
			grantBytes := dense + 4 + recBytes(withVC)
			lock := &lockReq{Lock: 1, Requester: 3, ReqVC: vc.New(n)}
			report := &barrierReport{Node: 3, VC: vc.New(n), Recs: []*IntervalRec{rec}}
			summary := &barrierReport{Node: 3, VC: vc.New(n), MinVC: vc.New(n), Recs: []*IntervalRec{rec}}
			cases := []wireCase{
				{name: "lock acquire", kind: kLockAcq, req: lock, reqBytes: 8 + dense, reqClass: stats.ClassProtocol},
				{"lock forward and grant", kLockFwd, lock, 8 + dense, stats.ClassProtocol, false,
					true, grant, grantBytes, stats.ClassProtocol},
				{"barrier report and release", kBarrier, report, 8 + dense + 4 + recBytes(withVC), stats.ClassProtocol, false,
					true, grant, grantBytes, stats.ClassProtocol},
				{"barrier summary and release", kBarrier, summary, 8 + dense + 4 + recBytes(withVC) + 8 + dense, stats.ClassProtocol, false,
					true, grant, grantBytes, stats.ClassProtocol},
				{"gc rendezvous", kGCDone, nil, 8, stats.ClassProtocol, false,
					true, nil, 4, stats.ClassProtocol},
			}
			if homeBased {
				// The fetch request is charged the requester's dense clock,
				// whatever its Need holds.
				fetch := &fetchPageReq{Page: 2}
				fetch.Need.CopyFrom(vec(1))
				fetch.Flush.CopyFrom(vec(4))
				flush := &diffFlush{Page: 2, Writer: 1, Interval: 3, Diff: diff}
				flush.Dep.CopyFrom(vec(4))
				cases = append(cases,
					wireCase{"hlrc page fetch", kFetchPage, fetch, 8 + dense, stats.ClassProtocol, true,
						true, fetch, pageBytes + pairs(4), stats.ClassData},
					wireCase{name: "diff flush", kind: kDiffFlush, req: flush, reqBytes: diffBytes + pairs(4),
						reqClass: stats.ClassData, coproc: true},
				)
			} else {
				diffs := &fetchDiffsReq{Page: 2, Recs: []*IntervalRec{rec, rec}, Diffs: []*mem.Diff{&diff, nil}}
				// An absent applied vector is 4 bytes on the wire.
				absent := &lrcFetchPageReq{Page: 2}
				applied := &lrcFetchPageReq{Page: 2}
				applied.AppliedVC.CopyFrom(vec(4))
				cases = append(cases,
					wireCase{"diff fetch", kFetchDiffs, diffs, 12 + 8*2, stats.ClassProtocol, true,
						true, diffs, diffBytes, stats.ClassData},
					wireCase{"lrc page fetch, no applied vector", kFetchPage, absent, 8, stats.ClassProtocol, true,
						true, absent, pageBytes + 4, stats.ClassData},
					wireCase{"lrc page fetch", kFetchPage, applied, 8, stats.ClassProtocol, true,
						true, applied, pageBytes + pairs(4), stats.ClassData},
				)
			}
			for _, c := range cases {
				for _, overlapped := range []bool{false, true} {
					name := fmt.Sprintf("n%d/homeBased=%v/overlapped=%v/%s", n, homeBased, overlapped, c.name)
					req, srv := wirePair(n, pageBytes, homeBased, overlapped)
					exchange(t, name, c, req, srv)
				}
			}
		}
	}
}

// exchange sends c's request from node 0 to node 1 and, unless it is
// one-way, node 1 answers it with respond: the request must be what request
// builds and reach the processor its row names, the answer must keep the
// request's kind and carry its bytes and class.
func exchange(t *testing.T, name string, c wireCase, req, srv *base) {
	target := paragon.ToCompute
	if req.overlapped && c.coproc {
		target = paragon.ToCoproc
	}
	if m := req.request(c.kind, c.req); m.Kind != c.kind || m.Size != c.reqBytes || m.Class != c.reqClass || m.Target != target || m.Body != c.req {
		t.Errorf("%s: request is kind %d, %d bytes of %v to processor %d; want kind %d, %d bytes of %v to %d",
			name, m.Kind, m.Size, m.Class, m.Target, c.kind, c.reqBytes, c.reqClass, target)
	}
	servedOn := paragon.Target(-1)
	serve := func(on paragon.Target) paragon.Handler {
		return func(m paragon.Msg) (sim.Time, func()) {
			return 0, func() {
				servedOn = on
				if c.ans {
					srv.respond(m, c.ansBody)
				}
			}
		}
	}
	srv.node.InstallCompute(serve(paragon.ToCompute))
	srv.node.InstallCoproc(serve(paragon.ToCoproc))
	var resp paragon.Msg
	k := req.sys.K
	k.Spawn("app0", 0, func(p *sim.Proc) {
		req.sys.appProcs = []*sim.Proc{p, nil}
		if c.ans {
			resp = req.call(1, c.kind, c.req)
		} else {
			req.node.Send(1, req.request(c.kind, c.req))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if servedOn != target {
		t.Errorf("%s: served on processor %d, want %d", name, servedOn, target)
	}
	if c.ans && (resp.Kind != c.kind || resp.Size != c.ansBytes || resp.Class != c.ansClass || resp.Body != c.ansBody) {
		t.Errorf("%s: answer is kind %d, %d bytes of %v; want kind %d, %d bytes of %v",
			name, resp.Kind, resp.Size, resp.Class, c.kind, c.ansBytes, c.ansClass)
	}
}

// wirePair is nodes 0 and 1 of a two-node machine whose protocol runs on n
// nodes: what request, call, respond and wireSize read of an engine.
func wirePair(n, pageBytes int, homeBased, overlapped bool) (req, srv *base) {
	sys := &System{K: sim.NewKernel(), Space: mem.NewSpace(pageBytes), homeBased: homeBased}
	sys.Opts.Machine.Nodes = n
	sys.M = paragon.New(sys.K, 2, paragon.DefaultCosts())
	node := func(self int) *base {
		return &base{sys: sys, node: sys.M.Nodes[self], self: self, overlapped: overlapped, clock: vc.New(n)}
	}
	return node(0), node(1)
}
