package main

import (
	"encoding/json"
	"fmt"
	"math"

	"gosvm/internal/stats"
)

// metricDef declares one metric of BENCHMARK.json. bound is only
// meaningful for end-to-end metrics.
type metricDef struct {
	name, unit, better string
	bound              float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 10

// endToEnd is what a user of the simulator sees on every workload: what
// a run costs the host, and the simulated numbers it produces (the
// paper's numbers). The simulated ones repeat exactly for a given seed;
// their bound leaves room for the seed-to-seed differences of the
// serving traces and fault plans (the peak protocol memory of a short
// serving window moves 6 % from seed to seed). The host times are scaled
// to a reference host, see measure.go.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"host_s", "s", lower, 0.20},
	{"host_cpu_s", "s", lower, 0.20},
	{"host_alloc_mb", "MB", lower, 0.05},
	{"host_mallocs_k", "k", lower, 0.05},
	{"host_peak_rss_mb", "MB", lower, 0.10},
	{"sim_elapsed_ms", "sim_ms", lower, 0.05},
	{"sim_traffic_mb", "MB", lower, 0.05},
	{"sim_proto_mem_peak_mb", "MB", lower, 0.20},
}

// perLayer lists the per-layer metrics, named <module>.<metric>: unit
// costs from the probe suite, the workload's own counts from the Stats
// every run returns, spans recorded around the harness's calls, and the
// estimated shares (count x unit cost / host_s).
var perLayer = []metricDef{
	{"sim.event_ns", "ns", lower, 0},
	{"sim.ctx_switch_ns", "ns", lower, 0},
	{"sim.sleep_ns", "ns", lower, 0},
	{"sim.lane_event_ns", "ns", lower, 0},
	{"sim.parallel_speedup", "x", higher, 0},
	{"sim.sim_s_per_host_s", "x", higher, 0},

	{"paragon.call_ns.crossbar", "ns", lower, 0},
	{"paragon.call_ns.mesh", "ns", lower, 0},
	{"paragon.call_ns.reliable", "ns", lower, 0},
	{"paragon.call_allocs.crossbar", "count", lower, 0},
	{"paragon.call_allocs.reliable", "count", lower, 0},
	{"paragon.msgs", "count", lower, 0},
	{"paragon.bytes", "MB", lower, 0},
	{"paragon.host_ns_per_msg", "ns", lower, 0},

	{"fault.judge_ns", "ns", lower, 0},
	{"fault.retries", "count", lower, 0},
	{"fault.msgs_dropped", "count", lower, 0},
	{"fault.dups_suppressed", "count", lower, 0},
	{"fault.link_drops", "count", lower, 0},
	{"fault.delivery_ratio", "ratio", higher, 0},

	{"mem.diff_create_ns", "ns", lower, 0},
	{"mem.diff_apply_ns", "ns", lower, 0},
	{"mem.twin_ns", "ns", lower, 0},
	{"mem.table_page_ns", "ns", lower, 0},
	{"mem.diffs_created", "count", lower, 0},
	{"mem.diffs_applied", "count", lower, 0},

	{"vc.sparse_maxwith_ns", "ns", lower, 0},
	{"vc.sparse_covers_ns", "ns", lower, 0},
	{"vc.toposort_ns", "ns", lower, 0},

	{"core.page_miss_ns.hlrc", "ns", lower, 0},
	{"core.page_miss_ns.lrc", "ns", lower, 0},
	{"core.page_miss_allocs.hlrc", "count", lower, 0},
	{"core.page_miss_allocs.lrc", "count", lower, 0},
	{"core.lock_acquire_ns", "ns", lower, 0},
	{"core.lock_acquire_allocs", "count", lower, 0},
	{"core.barrier_ns.8", "ns", lower, 0},
	{"core.barrier_ns.64", "ns", lower, 0},
	{"core.barrier_allocs.64", "count", lower, 0},
	{"core.diff_flush_ns", "ns", lower, 0},
	{"core.diff_flush_allocs", "count", lower, 0},
	{"core.access_ns", "ns", lower, 0},
	{"core.machine_build_ns.1024", "ns", lower, 0},
	{"core.latency_err_pct", "%", lower, 0},
	{"core.read_misses", "count", lower, 0},
	{"core.write_faults", "count", lower, 0},
	{"core.pages_fetched", "count", lower, 0},
	{"core.lock_acquires", "count", lower, 0},
	{"core.lock_forwards", "count", lower, 0},
	{"core.barriers", "count", lower, 0},
	{"core.gcs", "count", lower, 0},
	{"core.pages_rehomed", "count", lower, 0},
	{"core.mgrs_rehomed", "count", lower, 0},
	{"core.locks_reclaimed", "count", lower, 0},
	{"core.msgs_in_skew", "ratio", lower, 0},
	{"core.sim_share.compute", "%", higher, 0},
	{"core.sim_share.data", "%", lower, 0},
	{"core.sim_share.lock", "%", lower, 0},
	{"core.sim_share.barrier", "%", lower, 0},
	{"core.sim_share.gc", "%", lower, 0},
	{"core.sim_share.protocol", "%", lower, 0},

	{"apps.seq_s", "s", lower, 0},
	{"apps.speedup_geomean", "x", higher, 0},

	{"serve.tracegen_ns_per_req", "ns", lower, 0},
	{"serve.host_ns_per_req", "ns", lower, 0},
	{"serve.requests", "count", higher, 0},
	{"serve.seqlock_hit_ratio", "ratio", higher, 0},
	{"serve.seqlock_retries", "count", lower, 0},
	{"serve.lock_acquires_per_req", "ratio", lower, 0},
	{"serve.p50_ms", "sim_ms", lower, 0},
	{"serve.p99_ms", "sim_ms", lower, 0},
	{"serve.p999_ms", "sim_ms", lower, 0},
	{"serve.p99_samples_beyond", "count", higher, 0},
	{"serve.sustained_rps", "1/s", higher, 0},

	{"stats.hist_record_ns", "ns", lower, 0},
	{"stats.run_json_ns.1024", "ns", lower, 0},
	{"trace.on_overhead_pct", "%", lower, 0},
	{"bench.sweep_speedup", "x", higher, 0},

	{"harness.setup_build_s", "s", lower, 0},
	{"harness.setup_sequential_s", "s", lower, 0},
	{"harness.setup_warmup_s", "s", lower, 0},
	{"harness.check_s", "s", lower, 0},
	{"harness.tracing_overhead_pct", "%", lower, 0},
	{"harness.raw_host_s", "s", lower, 0},
	{"harness.host_slowdown", "x", lower, 0},
	{"harness.fail_pct", "%", lower, 0},

	{"share.apps_pct", "%", lower, 0},
	{"share.core_pct", "%", lower, 0},
	{"share.mem_pct", "%", lower, 0},
	{"share.paragon_pct", "%", lower, 0},
	{"share.fault_pct", "%", lower, 0},
	{"share.sim_pct", "%", lower, 0},
	{"share.serve_pct", "%", lower, 0},
	{"share.other_pct", "%", lower, 0},
}

// manifest renders BENCHMARK.json from the tables above, so the file
// and the harness cannot disagree; harness_test.go compares them.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		out.PerLayer = append(out.PerLayer, layer{m.name, m.unit, m.better})
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// passMedian is the median over the passes of one of their costs.
func (r *report) passMedian(f func(passCost) float64) float64 {
	return median(column(r.passes, f))
}

// endToEndValues computes the end-to-end metrics of a finished run.
func (r *report) endToEndValues() map[string]float64 {
	t := r.totals
	return map[string]float64{
		"setup_s":               median(r.setupS),
		"host_s":                r.passMedian(func(p passCost) float64 { return p.refWallS }),
		"host_cpu_s":            r.passMedian(func(p passCost) float64 { return p.refCPUS }),
		"host_alloc_mb":         r.passMedian(func(p passCost) float64 { return p.allocMB }),
		"host_mallocs_k":        r.passMedian(func(p passCost) float64 { return p.mallocK }),
		"host_peak_rss_mb":      r.passMedian(func(p passCost) float64 { return p.peakRSSMB }),
		"sim_elapsed_ms":        float64(t.elapsedNs) / 1e6,
		"sim_traffic_mb":        float64(t.dataBytes+t.protoBytes) / mib,
		"sim_proto_mem_peak_mb": float64(t.protoMemPeak) / mib,
	}
}

// midRung is the rung whose latency the serving workloads report.
func (t *simTotals) midRung() *rung {
	if len(t.rungs) == 0 {
		return nil
	}
	return &t.rungs[len(t.rungs)/2]
}

// sustained is the highest offered rate whose p99 meets the limit. A
// backlog that grows through the window pushes the p99 far past the limit,
// so the limit is the whole test: ServeStats.Saturated compares the
// completion horizon with the arrival window, and on these sub-second
// windows one 40 ms straggler reads as saturation at any rate. The flag
// is printed with the ladder but does not gate.
func (r *report) sustained() float64 {
	limit := r.w.p99Limit.Micros() / 1e3
	var best float64
	for _, g := range r.totals.rungs {
		if g.p99 <= limit && g.rate > best {
			best = g.rate
		}
	}
	return best
}

// shareRow is one line of the estimated-share table: a count the
// workload produced, times a unit cost the probes measured, over the
// pass's host time.
type shareRow struct {
	layer, formula string
	pct            float64
}

// shares estimates where a pass's host time went. The rows overlap by
// construction — a page miss's unit cost contains its messages, a
// message's unit cost contains its kernel events — so they are read
// top-down, each row an upper bound on what speeding that layer up
// could save. Only apps, core, serve and other are disjoint.
func (r *report) shares(hostS float64, pr map[string]float64) []shareRow {
	t := r.totals
	c := t.counts
	ns := func(f float64) float64 { return 100 * f / 1e9 / hostS }
	f := func(k string) float64 { return float64(c[k]) }

	var appS float64
	for _, s := range r.specs {
		if !s.serving() {
			appS += r.baselines[s.ref].hostS
		}
	}

	// Home-based cells miss by fetching the page; homeless cells by
	// fetching diffs. The counts are not split by protocol, so weigh the
	// two unit costs by how many pages were fetched whole.
	missNs := pr["core.page_miss_ns.lrc"]
	if rm := f("ReadMisses"); rm > 0 {
		whole := math.Min(1, f("PagesFetched")/rm)
		missNs = whole*pr["core.page_miss_ns.hlrc"] + (1-whole)*pr["core.page_miss_ns.lrc"]
	}
	nodes := float64(r.specs[0].opts.Machine.Nodes)
	barrierNs := pr["core.barrier_ns.64"] / 64 // per arriving node
	if nodes <= 8 {
		barrierNs = pr["core.barrier_ns.8"] / 8
	}
	coreNs := f("ReadMisses")*missNs + f("LockAcquires")*pr["core.lock_acquire_ns"] +
		f("Barriers")*barrierNs + f("DiffsCreated")*pr["core.diff_flush_ns"]

	memNs := f("DiffsCreated")*pr["mem.diff_create_ns"] + f("DiffsApplied")*pr["mem.diff_apply_ns"] +
		f("WriteFaults")*pr["mem.twin_ns"]

	// A call is two messages. Cells under a fault plan go through the
	// reliable transport; the clean ones through the plain crossbar.
	clean := float64(t.msgs - t.faultMsgs)
	paragonNs := clean*pr["paragon.call_ns.crossbar"]/2 + float64(t.faultMsgs)*pr["paragon.call_ns.reliable"]/2

	// Per message: one delivery event, one dispatcher wake-up (half a
	// handshake) and one timed service.
	simNs := float64(t.msgs) * (pr["sim.event_ns"] + pr["sim.ctx_switch_ns"]/2 + pr["sim.sleep_ns"])

	var reqs float64
	for _, g := range t.rungs {
		reqs += float64(g.completed)
	}

	appPct, corePct := 100*appS/hostS, ns(coreNs)
	servePct := ns(reqs * (pr["serve.tracegen_ns_per_req"] + pr["stats.hist_record_ns"]))
	return []shareRow{
		{"apps", "sequential host time of each cell's application", appPct},
		{"core", "misses x page_miss + lock acquires x lock_acquire + barrier arrivals x barrier/N + diffs x diff_flush", corePct},
		{"mem", "diffs created x diff_create + applied x diff_apply + write faults x twin", ns(memNs)},
		{"paragon", "clean msgs x call.crossbar/2 + faulted msgs x call.reliable/2", ns(paragonNs)},
		{"fault", "faulted msgs x judge", ns(float64(t.faultMsgs) * pr["fault.judge_ns"])},
		{"sim", "msgs x (event + ctx_switch/2 + sleep)", ns(simNs)},
		{"serve", "requests x (tracegen + hist_record)", servePct},
		{"other", "100 - apps - core - serve: kernel sleeps behind Ctx.Compute, queueing, allocation and GC", 100 - appPct - corePct - servePct},
	}
}

// perLayerValues computes the per-layer metrics of a traced run: the
// probes' unit costs plus everything derived from this workload's pass.
func (r *report) perLayerValues() map[string]float64 {
	t := r.totals
	c := t.counts
	hostS := r.passMedian(func(p passCost) float64 { return p.wallS })
	refS := r.passMedian(func(p passCost) float64 { return p.refWallS })
	v := map[string]float64{}
	for k, x := range r.probes {
		v[k] = x
	}

	v["sim.sim_s_per_host_s"] = ratio(float64(t.elapsedNs)/1e9, hostS)
	v["paragon.msgs"] = float64(t.msgs)
	v["paragon.bytes"] = float64(t.dataBytes+t.protoBytes) / mib
	v["paragon.host_ns_per_msg"] = ratio(hostS*1e9, float64(t.msgs))

	v["fault.retries"] = float64(c["Retries"])
	v["fault.msgs_dropped"] = float64(c["MsgsDropped"])
	v["fault.dups_suppressed"] = float64(c["DupsSuppressed"])
	v["fault.link_drops"] = float64(c["LinkDrops"])
	v["fault.delivery_ratio"] = 1 - ratio(float64(c["MsgsDropped"]), float64(t.msgs))

	v["mem.diffs_created"] = float64(c["DiffsCreated"])
	v["mem.diffs_applied"] = float64(c["DiffsApplied"])

	for metric, field := range map[string]string{
		"read_misses": "ReadMisses", "write_faults": "WriteFaults", "pages_fetched": "PagesFetched",
		"lock_acquires": "LockAcquires", "lock_forwards": "LockForwards", "barriers": "Barriers",
		"gcs": "GCs", "pages_rehomed": "PagesRehomed", "mgrs_rehomed": "MgrsRehomed",
		"locks_reclaimed": "LocksReclaimed",
	} {
		v["core."+metric] = float64(c[field])
	}
	v["core.msgs_in_skew"] = t.msgsInSkew
	var busy int64
	for _, d := range t.timeNs {
		busy += d
	}
	for cat := stats.Category(0); cat < stats.NumCategories; cat++ {
		v["core.sim_share."+cat.String()] = 100 * ratio(float64(t.timeNs[cat]), float64(busy))
	}

	var seqS float64
	for _, b := range r.baselines {
		seqS += b.hostS
	}
	v["apps.seq_s"] = seqS
	v["apps.speedup_geomean"] = geomean(t.speedups)

	var reqs, seqReads, fallbacks, retries, locks float64
	for _, g := range t.rungs {
		reqs += float64(g.completed)
		seqReads += float64(g.seqReads)
		fallbacks += float64(g.fallbacks)
		retries += float64(g.seqRetries)
		locks += float64(g.lockAcquires)
	}
	v["serve.requests"] = reqs
	v["serve.host_ns_per_req"] = ratio(hostS*1e9, reqs)
	v["serve.seqlock_hit_ratio"] = ratio(seqReads, seqReads+fallbacks)
	v["serve.seqlock_retries"] = retries
	v["serve.lock_acquires_per_req"] = ratio(locks, reqs)
	v["serve.p50_ms"], v["serve.p99_ms"], v["serve.p999_ms"] = 0, 0, 0
	v["serve.p99_samples_beyond"], v["serve.sustained_rps"] = 0, 0
	if g := t.midRung(); g != nil {
		v["serve.p50_ms"], v["serve.p99_ms"], v["serve.p999_ms"] = g.p50, g.p99, g.p999
		v["serve.p99_samples_beyond"] = float64(g.beyondP99)
		v["serve.sustained_rps"] = r.sustained()
	}

	v["harness.setup_build_s"] = median(r.spans.seconds("setup.build"))
	v["harness.setup_sequential_s"] = median(r.spans.seconds("setup.sequential"))
	v["harness.setup_warmup_s"] = median(r.spans.seconds("setup.warmup"))
	v["harness.check_s"] = median(r.spans.seconds("check"))
	v["harness.tracing_overhead_pct"] = 100 * (ratio(median(r.tracedWallS), median(r.untracedWallS)) - 1)
	v["harness.raw_host_s"] = hostS
	v["harness.host_slowdown"] = ratio(hostS, refS)
	v["harness.fail_pct"] = 100 * ratio(float64(r.failed), float64(r.attempted))

	for _, row := range r.shares(hostS, r.probes) {
		v["share."+row.layer+"_pct"] = row.pct
	}
	return v
}

// resultLine renders the machine-readable last line of the output.
func (r *report) resultLine(defs []metricDef, values map[string]float64) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		x, ok := values[d.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return "", fmt.Errorf("metric %s has no finite value (%v)", d.name, x)
		}
		metrics[d.name] = mv{x, d.unit}
	}
	buf, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	return string(buf), err
}

func formatMetric(d metricDef, x float64) string {
	return fmt.Sprintf("  %-32s %.6g %s", d.name, x, d.unit)
}
