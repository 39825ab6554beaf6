package sim

import (
	"math"
	"sync"
	"sync/atomic"
)

// Conservative-window parallel execution.
//
// A partitioned kernel advances all lanes in lockstep windows. Each
// round the coordinator:
//
//  1. merges every lane's outbox (cross-lane events from the previous
//     window) into the destination heaps — single-threaded, and order
//     independent because the genealogical heap key (time, creator
//     rank, creation index) totally orders events regardless of
//     insertion order;
//  2. computes Tmin, the earliest pending event across all lanes, and
//     the horizon H = Tmin + lookahead;
//  3. hands the runnable lanes (head event < H) to worker goroutines,
//     each of which pops and executes its lane's events with at < H;
//  4. at the barrier, replays the window's per-lane execution logs in
//     global key order to assign each executed event its sequential
//     execution rank, then resolves the pending creator ranks carried
//     by events those executions created (see assignRanks).
//
// Safety: any event a lane executes satisfies at < H = Tmin + lookahead,
// and every cross-lane event it creates is timestamped >= its own clock
// + lookahead (schedule enforces this), i.e. lands at or after H — never
// inside the window another lane is concurrently executing. So no lane
// can receive an event in its past.
//
// Exactness: within a window, lanes only interact through events that
// land in later windows, so executing each lane's runnable events
// independently performs the same work, in the same per-lane order, as
// the sequential kernel would. The genealogical key makes the global
// order reconstructible: a cross-lane arrival's creator always executed
// in an earlier window (rank already assigned), and a same-lane,
// same-window creator precedes its child in the lane's own log. The
// boundary merge therefore replays the exact sequential pop order and
// assigns identical ranks — making every run byte-identical at any
// worker count, including against the unpartitioned kernel.

// runWindowed is Run for a partitioned kernel.
func (k *Kernel) runWindowed() error {
	k.running = true
	defer func() { k.running = false }()

	maxNow := Time(0)
	for !k.stopped {
		// Merge last window's cross-lane handoffs.
		for _, l := range k.lanes {
			for i := range l.outbox {
				h := &l.outbox[i]
				k.lanes[h.dst].push(h.ev)
				h.ev = event{} // release references
			}
			l.outbox = l.outbox[:0]
		}

		// Window bounds: earliest pending event across all lanes.
		tmin := Time(math.MaxInt64)
		for _, l := range k.lanes {
			if len(l.events) > 0 && l.events[0].at < tmin {
				tmin = l.events[0].at
			}
		}
		if tmin == Time(math.MaxInt64) {
			break // fully drained
		}
		horizon := tmin + k.lookahead
		k.windowEnd = horizon

		runnable := k.runnable[:0]
		for _, l := range k.lanes {
			if len(l.events) > 0 && l.events[0].at < horizon {
				runnable = append(runnable, l)
			}
		}
		k.runnable = runnable

		k.executeWindow(runnable, horizon)

		// Re-raise the earliest-lane panic deterministically. (With one
		// worker only one lane can have panicked; with several, picking
		// the lowest lane id keeps the surfaced error stable.)
		for _, l := range k.lanes {
			if l.panicked != nil {
				panic(l.panicked)
			}
		}

		k.assignRanks(runnable)

		if horizon > maxNow {
			maxNow = horizon
		}
	}

	// Lanes stop at their last executed event; report the drain at the
	// latest lane clock so the time matches what a sequential run prints.
	at := Time(0)
	for _, l := range k.lanes {
		if l.now > at {
			at = l.now
		}
	}
	return k.drainCheck(at)
}

// assignRanks runs at the window boundary: it gives every event executed
// in the just-finished window the global execution rank it would have
// held in a sequential run, then rewrites the pending creator ranks
// (pendRank+idx) those executions stamped on their children.
//
// Each lane's execLog lists its executed events' keys in execution — and
// hence key — order, so a k-way merge of the logs by key yields the
// global sequential order. A log entry's own prank may itself be pending
// (created earlier in the same window by the same lane); its creator
// appears earlier in the same log, so by the time the entry reaches the
// merge front its rank is already in l.ranks and the key resolves.
//
// Resolution preserves the heap invariant of the remaining per-lane
// queues: pending values order after all previously assigned ranks and
// among themselves by execution index, and the ranks substituted for
// them — all larger than any earlier rank, increasing with that same
// index — compare identically against every key in the heap.
func (k *Kernel) assignRanks(ran []*lane) {
	merge := k.merging[:0]
	for _, l := range ran {
		if len(l.execLog) > 0 {
			l.mergeCur = 0
			l.ranks = l.ranks[:0]
			merge = append(merge, l)
		}
	}
	k.merging = merge

	// head resolves the key at a lane's merge cursor.
	head := func(l *lane) execRec {
		r := l.execLog[l.mergeCur]
		if r.prank >= pendRank {
			r.prank = l.ranks[r.prank-pendRank]
		}
		return r
	}
	less := func(a, b execRec) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		if a.prank != b.prank {
			return a.prank < b.prank
		}
		return a.cidx < b.cidx
	}

	// Min-heap of lanes keyed by their cursor's resolved key.
	down := func(h []*lane, i int) {
		n := len(h)
		for {
			lc, rc := 2*i+1, 2*i+2
			if lc >= n {
				return
			}
			c := lc
			if rc < n && less(head(h[rc]), head(h[lc])) {
				c = rc
			}
			if !less(head(h[c]), head(h[i])) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(merge)/2 - 1; i >= 0; i-- {
		down(merge, i)
	}
	for len(merge) > 0 {
		l := merge[0]
		l.ranks = append(l.ranks, k.rank)
		k.rank++
		l.mergeCur++
		if l.mergeCur == len(l.execLog) {
			n := len(merge) - 1
			merge[0] = merge[n]
			merge[n] = nil
			merge = merge[:n]
		}
		down(merge, 0)
	}

	// Rewrite the pending creator ranks stamped on this window's
	// creations: cross-lane handoffs still in the outbox, and same-lane
	// events sitting in the owner's queue. Both were created by the lane
	// they sit on/depart from, so l.ranks is always the right table.
	for _, l := range ran {
		for i := range l.outbox {
			if pr := l.outbox[i].ev.prank; pr >= pendRank {
				l.outbox[i].ev.prank = l.ranks[pr-pendRank]
			}
		}
		for i := range l.events {
			if pr := l.events[i].prank; pr >= pendRank {
				l.events[i].prank = l.ranks[pr-pendRank]
			}
		}
		l.execLog = l.execLog[:0]
	}
}

// executeWindow runs every runnable lane up to the horizon, fanning out
// across worker goroutines when there is enough work to justify them.
// The WaitGroup barrier gives the coordinator (and hence the next
// window's lanes) a happens-before edge over everything each lane wrote.
func (k *Kernel) executeWindow(runnable []*lane, horizon Time) {
	nw := k.workers
	if nw > len(runnable) {
		nw = len(runnable)
	}
	if nw <= 1 {
		for _, l := range runnable {
			k.runLane(l, horizon)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(runnable) {
					return
				}
				k.runLane(runnable[i], horizon)
			}
		}()
	}
	wg.Wait()
}

// runLane pops and executes one lane's events strictly before horizon.
// Each execution is logged for the boundary rank pass, and events it
// creates carry the pending rank pendRank+index until then. Panics from
// process code are captured per lane so the coordinator can re-raise
// them in deterministic lane order.
func (k *Kernel) runLane(l *lane, horizon Time) {
	defer func() {
		if r := recover(); r != nil {
			l.panicked = r
		}
	}()
	for len(l.events) > 0 && l.events[0].at < horizon {
		ev := l.pop()
		l.now = ev.at
		l.curPrank = pendRank + int64(len(l.execLog))
		l.curCidx = 0
		l.execLog = append(l.execLog, execRec{at: ev.at, prank: ev.prank, cidx: ev.cidx})
		ev.task.Fire()
	}
}
