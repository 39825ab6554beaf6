// Package serve implements the request-serving workload: a key-value
// store sharded over SVM pages, driven by per-node open-loop client
// populations whose requests arrive on the simulated clock via seeded
// Poisson processes.
//
// Unlike the closed-loop batch kernels (SOR, LU, Water), performance
// here is not a single elapsed time but a latency distribution: every
// get/put/scan records completion minus arrival into an HDR-style
// histogram (stats.Hist), and the run reports offered vs. achieved
// throughput with saturation detection. Keys hash to shards, shards lay
// out on distinct pages with per-shard locks, so every operation
// exercises the real HLRC/OHLRC/LRC protocol paths: lock forwarding,
// write notices, diffs to homes, and page fetches.
//
// The store (fastpath.go) locks keys by stripe, eight stripes per shard,
// and serves gets and scans lock-free, validated by a per-slot version
// word (a seqlock), falling back to the stripe lock. Both preserve the
// workload's self-validation: put deltas are integers and commutative
// (read-modify-write addition under the key's lock), so the final store
// contents are exactly computable from the trace alone and must match
// bitwise under every protocol and fault plan.
package serve

import (
	"fmt"
	"math"

	"gosvm/internal/core"
	"gosvm/internal/mem"
	"gosvm/internal/sim"
	"gosvm/internal/stats"
)

// Op is a request type.
type Op uint8

// Request operations.
const (
	OpGet Op = iota
	OpPut
	OpScan
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	default:
		return "scan"
	}
}

// Req is one client request: arrival time on the simulated clock, the
// key it touches, and (for puts) the integer delta it adds.
type Req struct {
	At    sim.Time
	Key   int32
	Delta int32
	Op    Op
}

// Config parameterizes the serving workload. The zero value is not
// runnable; Defaults fills every unset field.
type Config struct {
	// Keys is the key-space size. Each key owns a value word and a
	// version word. Keys hash onto 4 page-aligned shards per node, so
	// distinct shards never share a page.
	Keys int
	// OfferedLoad is the total offered request rate across the machine,
	// in requests per simulated second. Each node's client population
	// contributes OfferedLoad / procs.
	OfferedLoad float64
	// Window is the arrival window: requests arrive over [0, Window).
	Window sim.Time
	// ReadPct, WritePct and ScanPct set the operation mix (must sum to
	// 100). All-zero selects the default 80/15/5 mix.
	ReadPct, WritePct, ScanPct int
	// ZipfTheta sets key popularity skew in [0, 1): 0 is uniform, 0.99
	// is heavily skewed. Hot ranks are scrambled across the key space.
	ZipfTheta float64
	// Seed derives every arrival process and key draw.
	Seed int64

	// KeyLocks is ignored: every store stripes each shard's lock eight
	// ways by key.
	//
	// Deprecated: it remains only because the repository benchmark still
	// sets it; delete it once it stops.
	KeyLocks int
	// Seqlock is ignored: every store serves gets and scans lock-free,
	// validated by a per-slot version word.
	//
	// Deprecated: it remains only because the repository benchmark still
	// sets it; delete it once it stops.
	Seqlock bool
}

// A scan reads scanLen consecutive slots. Every operation models
// serviceNs of application compute; a scan adds serviceNs/8 per slot.
// A slot is two words on one page: the value, then its version.
const (
	scanLen      = 16
	serviceNs    = 5 * sim.Microsecond
	wordsPerSlot = 2
)

// Defaults fills unset fields. A request on the modeled Paragon costs
// ~1-2ms of coherence work (remote lock acquire plus page miss, §4.3 of
// the paper), so per-node capacity is roughly 500-800 req/s and the
// default 2000 req/s offered load sits near the knee of a 4-node
// machine: light enough to stay stable at 8+ nodes, heavy enough that
// halving the machine saturates it.
func (c *Config) Defaults() {
	if c.Keys == 0 {
		c.Keys = 4096
	}
	if c.OfferedLoad == 0 {
		c.OfferedLoad = 2000
	}
	if c.Window == 0 {
		c.Window = 50 * sim.Millisecond
	}
	if c.ReadPct == 0 && c.WritePct == 0 && c.ScanPct == 0 {
		c.ReadPct, c.WritePct, c.ScanPct = 80, 15, 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// validate rejects inconsistent configurations.
func (c *Config) validate(procs int) error {
	if c.Keys < 1 {
		return fmt.Errorf("serve: Keys must be positive, got %d", c.Keys)
	}
	if c.ReadPct+c.WritePct+c.ScanPct != 100 {
		return fmt.Errorf("serve: op mix %d/%d/%d does not sum to 100",
			c.ReadPct, c.WritePct, c.ScanPct)
	}
	if c.ReadPct < 0 || c.WritePct < 0 || c.ScanPct < 0 {
		return fmt.Errorf("serve: op mix %d/%d/%d has a negative entry",
			c.ReadPct, c.WritePct, c.ScanPct)
	}
	// Written so that NaN, which fails every comparison, fails the check.
	if !(c.ZipfTheta >= 0 && c.ZipfTheta < 1) {
		return fmt.Errorf("serve: ZipfTheta must be in [0,1), got %g", c.ZipfTheta)
	}
	if !(c.OfferedLoad > 0) || math.IsInf(c.OfferedLoad, 1) {
		return fmt.Errorf("serve: OfferedLoad must be positive and finite, got %g", c.OfferedLoad)
	}
	if c.Window <= 0 {
		return fmt.Errorf("serve: Window must be positive, got %v", c.Window)
	}
	if procs < 1 {
		return fmt.Errorf("serve: procs must be positive, got %d", procs)
	}
	return nil
}

// KV is the serving workload as a core.App: a sharded key-value store
// over SVM pages plus the per-node client populations that drive it.
// Build one with New per run; instances are single-use.
type KV struct {
	cfg    Config
	procs  int
	shards int

	// Key layout, fixed at construction: key -> (shard, slot).
	keyShard []int32
	keySlot  []int32
	shardLen []int32 // slots per shard
	zipf     *zipfGen

	// Per-node request traces, sorted by arrival time.
	traces    [][]Req
	generated int64

	// Expected final store contents, derived from the traces at
	// construction.
	initVals []float64
	expected []float64

	// Shared-memory layout, filled in Setup.
	shardBase []mem.Addr

	// Per-node results, written by the Workers on the simulated clock.
	hists    []*stats.Hist
	ops      [][3]int64 // per node: gets, puts, scans
	lastDone []sim.Time
	busy     []sim.Time // time spent serving (not idling between arrivals)

	// Per-node fast-path counters.
	seqReads     []int64
	seqRetries   []int64
	seqFallbacks []int64
}

// New builds the workload for a machine of the given size: key layout,
// per-node arrival traces, and the expected final store contents. The
// trace depends only on (cfg, procs) — never on the protocol, fault
// plan, or host parallelism — so every protocol serves the identical
// request stream.
func New(cfg Config, procs int) (*KV, error) {
	cfg.Defaults()
	if err := cfg.validate(procs); err != nil {
		return nil, err
	}
	kv := &KV{cfg: cfg, procs: procs, shards: 4 * procs}

	// Key layout: scramble keys across shards, slots assigned in key
	// order within each shard.
	kv.keyShard = make([]int32, cfg.Keys)
	kv.keySlot = make([]int32, cfg.Keys)
	kv.shardLen = make([]int32, kv.shards)
	for k := 0; k < cfg.Keys; k++ {
		s := int32(scramble(uint64(k)+0x5eed) % uint64(kv.shards))
		kv.keyShard[k] = s
		kv.keySlot[k] = kv.shardLen[s]
		kv.shardLen[s]++
	}

	// Initial contents: small integers, exactly representable, so every
	// downstream sum stays exact in float64.
	initRng := newRNG(uint64(cfg.Seed) * 0x9e3779b97f4a7c15)
	kv.initVals = make([]float64, cfg.Keys)
	for k := range kv.initVals {
		kv.initVals[k] = float64(initRng.intn(1000))
	}

	kv.zipf = newZipf(cfg.Keys, cfg.ZipfTheta)
	kv.expected = append([]float64(nil), kv.initVals...)
	kv.traces = make([][]Req, procs)
	// Per-node client traces. Each node's population is seeded
	// independently of the others, so traces are reproducible per node.
	perNodeRate := cfg.OfferedLoad / float64(procs)
	for id := 0; id < procs; id++ {
		r := newRNG(scramble(uint64(cfg.Seed)) ^ scramble(uint64(id)+0xc11e47))
		ats := arrivals(r, perNodeRate, cfg.Window)
		trace := make([]Req, len(ats))
		for i, at := range ats {
			req := kv.drawReq(r)
			req.At = at
			if req.Op == OpPut {
				kv.expected[req.Key] += float64(req.Delta)
			}
			trace[i] = req
		}
		kv.traces[id] = trace
		kv.generated += int64(len(trace))
	}

	kv.hists = make([]*stats.Hist, procs)
	for i := range kv.hists {
		kv.hists[i] = stats.NewHist()
	}
	kv.ops = make([][3]int64, procs)
	kv.lastDone = make([]sim.Time, procs)
	kv.busy = make([]sim.Time, procs)
	kv.seqReads = make([]int64, procs)
	kv.seqRetries = make([]int64, procs)
	kv.seqFallbacks = make([]int64, procs)
	return kv, nil
}

// drawReq draws one request (key, op, delta — not the arrival time)
// from a node's rng.
func (kv *KV) drawReq(r *rng) Req {
	key := int32(scramble(uint64(kv.zipf.rank(r))+0x6b65796d) % uint64(kv.cfg.Keys))
	req := Req{Key: key}
	switch pick := r.intn(100); {
	case pick < kv.cfg.ReadPct:
		req.Op = OpGet
	case pick < kv.cfg.ReadPct+kv.cfg.WritePct:
		req.Op = OpPut
		req.Delta = int32(1 + r.intn(8))
	default:
		req.Op = OpScan
	}
	return req
}

// Name implements core.App.
func (kv *KV) Name() string { return "kv-serve" }

// Generated returns the total number of requests across all traces.
func (kv *KV) Generated() int64 { return kv.generated }

// Trace returns node id's request trace (read-only; used by tests).
func (kv *KV) Trace(id int) []Req { return kv.traces[id] }

// Setup allocates one page-aligned region per shard, so shards never
// share a page and a key's lock stripe is the only cross-key coupling.
// Each slot is two words (value, version) within one shard region, so a
// value and its version always share a page and arrive in the same
// atomic page copy.
func (kv *KV) Setup(s *core.Setup) {
	if s.P != kv.procs {
		panic(fmt.Sprintf("serve: built for %d procs, run with %d", kv.procs, s.P))
	}
	kv.shardBase = make([]mem.Addr, kv.shards)
	for sh := 0; sh < kv.shards; sh++ {
		n := int(kv.shardLen[sh])
		if n == 0 {
			n = 1 // keep shard indexing total even if no key hashed here
		}
		kv.shardBase[sh] = s.Alloc(n * wordsPerSlot)
	}
}

// Init seeds initial values and homes each shard on the node that will
// most often serve it — shard s on node s mod P, the same round-robin
// the lock managers use, so a shard's locks and pages co-locate.
func (kv *KV) Init(w *core.Init) {
	for k := 0; k < kv.cfg.Keys; k++ {
		w.Store(kv.addrOf(int32(k)), kv.initVals[k])
	}
	for sh := 0; sh < kv.shards; sh++ {
		n := int(kv.shardLen[sh])
		if n == 0 {
			n = 1
		}
		w.SetHome(kv.shardBase[sh], n*wordsPerSlot, sh%kv.procs)
	}
}

// addrOf returns the shared address of a key's value word.
func (kv *KV) addrOf(key int32) mem.Addr {
	return kv.shardBase[kv.keyShard[key]] + mem.Addr(int(kv.keySlot[key])*wordsPerSlot)
}

// Worker serves node id's client population: requests from the
// pre-generated trace are served one at a time in arrival order (FIFO
// single-server queue), each recording completion minus arrival.
func (kv *KV) Worker(c *core.Ctx, id int) {
	h := kv.hists[id]
	scratch := make([]float64, scanLen)
	trace := kv.traces[id]
	for i := range trace {
		r := &trace[i]
		c.WaitUntil(r.At)
		// Service starts now: at the arrival, or when the previous request
		// finished — whichever is later.
		start := c.Now()
		kv.serveOne(c, id, r, scratch)
		h.Record(c.Now() - r.At)
		kv.busy[id] += c.Now() - start
		kv.lastDone[id] = c.Now()
	}
	c.Barrier(0)
}

// Gather reads back the whole store through the SVM for validation.
func (kv *KV) Gather(c *core.Ctx) []float64 {
	out := make([]float64, kv.cfg.Keys)
	for k := range out {
		out[k] = c.Load(kv.addrOf(int32(k)))
	}
	return out
}

// Expected returns the final store contents implied by the workload:
// initial values plus every put delta. Deltas are integers and addition
// under the key's lock is commutative, so the gathered data must match
// bitwise under every protocol, schedule, and (recoverable) fault plan.
func (kv *KV) Expected() []float64 { return kv.expected }

// Validate checks gathered run data against the trace-derived expected
// contents.
func (kv *KV) Validate(data []float64) error {
	if len(data) != len(kv.expected) {
		return fmt.Errorf("serve: gathered %d keys, expected %d", len(data), len(kv.expected))
	}
	for k, want := range kv.expected {
		if data[k] != want {
			return fmt.Errorf("serve: key %d = %v, expected %v", k, data[k], want)
		}
	}
	return nil
}

// Stats merges the per-node measurements into the run's serve block.
// Call after the run completes.
func (kv *KV) Stats() *stats.ServeStats {
	s := &stats.ServeStats{
		Window:    kv.cfg.Window,
		Generated: kv.generated,
		Latency:   stats.NewHist(),
	}
	for id := range kv.hists {
		s.Latency.Merge(kv.hists[id])
		s.Gets += kv.ops[id][0]
		s.Puts += kv.ops[id][1]
		s.Scans += kv.ops[id][2]
		s.Busy += kv.busy[id]
		if kv.lastDone[id] > s.LastDone {
			s.LastDone = kv.lastDone[id]
		}
		if kv.lastDone[id] > 0 {
			if u := float64(kv.busy[id]) / float64(kv.lastDone[id]); u > s.MaxUtil {
				s.MaxUtil = u
			}
		}
		s.SeqlockReads += kv.seqReads[id]
		s.SeqlockRetries += kv.seqRetries[id]
		s.SeqlockFallbacks += kv.seqFallbacks[id]
	}
	s.Completed = s.Gets + s.Puts + s.Scans
	return s
}

// Run executes the workload under opts, attaches the serve statistics
// block to the result, and validates the final store contents against
// the trace. opts.Machine.Nodes must match the procs the workload was
// built for.
func Run(opts core.Options, kv *KV) (*core.Result, error) {
	opts.Defaults()
	if opts.Machine.Nodes != kv.procs {
		return nil, fmt.Errorf("serve: workload built for %d procs, options say %d",
			kv.procs, opts.Machine.Nodes)
	}
	res, err := core.Run(opts, kv, false)
	if err != nil {
		return nil, err
	}
	if err := kv.Validate(res.Data); err != nil {
		return nil, err
	}
	ss := kv.Stats()
	for _, n := range res.Stats.Nodes {
		ss.LockAcquires += n.Counts.LockAcquires
		ss.LockForwards += n.Counts.LockForwards
	}
	res.Stats.Serve = ss
	return res, nil
}
