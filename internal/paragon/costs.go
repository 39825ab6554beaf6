// Package paragon models the machine of the paper's evaluation: an Intel
// Paragon multicomputer. Each node has a compute processor and a
// communication co-processor sharing local memory; nodes exchange
// NX/2-style messages over a network characterized by a one-way latency
// and a transfer bandwidth.
//
// The model reproduces the machine behaviours the protocols can observe:
//
//   - the large fixed cost of interrupting the compute processor to
//     service an unsolicited remote request (stolen from computation),
//   - the co-processor's polling dispatch loop, which services requests
//     with no interrupt but is one message at a time (so heavily loaded
//     nodes serialize service — the paper's "hot spots"),
//   - latency/bandwidth message timing, and
//   - the costs of the virtual-memory and diff primitives (Table 3).
package paragon

import (
	"fmt"

	"gosvm/internal/sim"
)

// Costs is the basic-operation cost model (the paper's Table 3, plus the
// derived constants the text quotes). All times are simulated time.
type Costs struct {
	MsgLatency       sim.Time // one-way latency of a small message
	BandwidthMBs     float64  // large-transfer bandwidth, MB/s
	ReceiveInterrupt sim.Time // interrupting the compute processor
	TwinCopy         sim.Time // copying one 8KB page (scaled by page size)
	DiffCreateBase   sim.Time
	DiffPerWord      sim.Time // per 8-byte word scanned or applied
	DiffApplyBase    sim.Time
	PageFault        sim.Time // taking an access fault to the handler
	PageInval        sim.Time
	PageProtect      sim.Time
	LockHandling     sim.Time // manager/holder bookkeeping per lock hop
	CoprocPost       sim.Time // posting a request to the co-processor
	MsgHeader        int      // wire overhead per message, bytes
}

// DefaultCosts returns the reconstructed Table 3 values (see DESIGN.md for
// the cross-checks against the latencies quoted in the paper's §4.3).
func DefaultCosts() Costs {
	return Costs{
		MsgLatency:       50 * sim.Microsecond,
		BandwidthMBs:     89.0, // 8KB page in 92us
		ReceiveInterrupt: 690 * sim.Microsecond,
		TwinCopy:         120 * sim.Microsecond, // per 8KB
		DiffCreateBase:   85 * sim.Microsecond,
		DiffPerWord:      42 * sim.Nanosecond,
		DiffApplyBase:    50 * sim.Microsecond,
		PageFault:        290 * sim.Microsecond,
		PageInval:        2 * sim.Microsecond,
		PageProtect:      5 * sim.Microsecond,
		LockHandling:     20 * sim.Microsecond,
		CoprocPost:       5 * sim.Microsecond,
		MsgHeader:        32,
	}
}

// ModernCosts returns a cost profile resembling a contemporary cluster:
// kernel-bypass messaging (microsecond-scale latency, multi-GB/s links)
// and ~10us interrupt/handler costs instead of the Paragon's 690us. The
// machine model is unchanged — only the constants move — so runs isolate
// how much of the paper's protocol ranking is an artifact of 1996
// communication costs.
func ModernCosts() Costs {
	return Costs{
		MsgLatency:       2 * sim.Microsecond,
		BandwidthMBs:     3000.0,
		ReceiveInterrupt: 10 * sim.Microsecond,
		TwinCopy:         4 * sim.Microsecond, // per 8KB: ~2GB/s memcpy
		DiffCreateBase:   2 * sim.Microsecond,
		DiffPerWord:      1 * sim.Nanosecond,
		DiffApplyBase:    1 * sim.Microsecond,
		PageFault:        5 * sim.Microsecond,
		PageInval:        500 * sim.Nanosecond,
		PageProtect:      1 * sim.Microsecond,
		LockHandling:     2 * sim.Microsecond,
		CoprocPost:       1 * sim.Microsecond,
		MsgHeader:        64,
	}
}

// CostProfiles lists the built-in cost profile names for CostProfile.
var CostProfiles = []string{"paragon", "modern"}

// CostProfile returns a named built-in cost model: "paragon" (the
// paper's Table 3, also the default for an empty name) or "modern"
// (ModernCosts).
func CostProfile(name string) (Costs, error) {
	switch name {
	case "", "paragon":
		return DefaultCosts(), nil
	case "modern":
		return ModernCosts(), nil
	}
	return Costs{}, fmt.Errorf("paragon: unknown cost profile %q (have paragon, modern)", name)
}

// Wire returns the time a message of the given payload size occupies the
// network: latency plus size over bandwidth.
func (c *Costs) Wire(bytes int) sim.Time {
	bytes += c.MsgHeader
	bw := c.BandwidthMBs * 1e6 // bytes per second
	tx := sim.Time(float64(bytes) / bw * float64(sim.Second))
	return c.MsgLatency + tx
}

// TwinCost returns the cost of copying a page of pageBytes into a twin.
func (c *Costs) TwinCost(pageBytes int) sim.Time {
	return c.TwinCopy * sim.Time(pageBytes) / 8192
}

// DiffCreateCost returns the cost of scanning a page of wordsScanned
// 8-byte words against its twin.
func (c *Costs) DiffCreateCost(wordsScanned int) sim.Time {
	return c.DiffCreateBase + c.DiffPerWord*sim.Time(wordsScanned)
}

// DiffApplyCost returns the cost of applying a diff of wordsApplied words.
func (c *Costs) DiffApplyCost(wordsApplied int) sim.Time {
	return c.DiffApplyBase + c.DiffPerWord*sim.Time(wordsApplied)
}
