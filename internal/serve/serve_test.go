package serve

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gosvm/internal/core"
	"gosvm/internal/fault"
	"gosvm/internal/mem"
	"gosvm/internal/sim"
)

// TestMain runs every serving test with the object-lifetime checks on
// (mem.CheckFrames): a home-state write that bypasses hlrcEngine.homeWrite
// or a reader writing through a frame it shares, an answer written into the
// body of a Call that no longer waits, or a home applying a recycled diff
// record panics in the run that did it instead of corrupting another node's
// state.
func TestMain(m *testing.M) {
	mem.CheckFrames = true
	os.Exit(m.Run())
}

// testConfig is a small, fast workload: ~60 requests on a 4-node machine.
func testConfig() Config {
	return Config{
		Keys:        256,
		OfferedLoad: 3000,
		Window:      20 * sim.Millisecond,
		Seed:        7,
	}
}

func runServe(t *testing.T, cfg Config, proto core.Protocol, procs int, opts core.Options) (*KV, *core.Result) {
	t.Helper()
	kv, err := New(cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	opts.Protocol = proto
	opts.Machine.Nodes = procs
	res, err := Run(opts, kv)
	if err != nil {
		t.Fatalf("%s/p%d: %v", proto, procs, err)
	}
	return kv, res
}

// TestTraceDeterminism: the client trace depends only on (cfg, procs) —
// building the workload twice yields identical traces and expectations.
func TestTraceDeterminism(t *testing.T) {
	a, err := New(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Generated() == 0 {
		t.Fatal("trace generated no requests")
	}
	for id := 0; id < 4; id++ {
		if !reflect.DeepEqual(a.Trace(id), b.Trace(id)) {
			t.Errorf("node %d: traces differ between identical builds", id)
		}
	}
	if !reflect.DeepEqual(a.Expected(), b.Expected()) {
		t.Error("expected store contents differ between identical builds")
	}

	// A different seed must change the trace.
	cfg := testConfig()
	cfg.Seed = 8
	c, err := New(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Trace(0), c.Trace(0)) {
		t.Error("seed change left node 0's trace identical")
	}
}

// TestValidateAcrossProtocols: the same arrival trace served under LRC,
// HLRC and OHLRC must produce the bitwise-identical final store (Run
// validates internally) and complete every generated request.
func TestValidateAcrossProtocols(t *testing.T) {
	for _, proto := range []core.Protocol{core.ProtoLRC, core.ProtoOLRC, core.ProtoHLRC, core.ProtoOHLRC} {
		kv, res := runServe(t, testConfig(), proto, 4, core.Options{})
		s := res.Stats.Serve
		if s == nil {
			t.Fatalf("%s: no serve block attached", proto)
		}
		if s.Completed != kv.Generated() {
			t.Errorf("%s: completed %d of %d generated", proto, s.Completed, kv.Generated())
		}
		if s.Gets+s.Puts+s.Scans != s.Completed {
			t.Errorf("%s: op counts %d+%d+%d != completed %d", proto, s.Gets, s.Puts, s.Scans, s.Completed)
		}
		if s.Latency.Count() != s.Completed {
			t.Errorf("%s: histogram has %d samples for %d completions", proto, s.Latency.Count(), s.Completed)
		}
	}
}

// TestValidateRejectsWrongImage: Validate accepts the expected store and
// rejects an image one key short, naming both counts, and an image with one
// wrong word, naming its key.
func TestValidateRejectsWrongImage(t *testing.T) {
	kv, err := New(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := kv.Expected()
	if err := kv.Validate(slices.Clone(want)); err != nil {
		t.Fatalf("the expected image: %v", err)
	}
	n := len(want)
	err = kv.Validate(slices.Clone(want[:n-1]))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("gathered %d keys, expected %d", n-1, n)) {
		t.Errorf("a short image: err = %v, want one naming %d of %d keys", err, n-1, n)
	}
	bad := slices.Clone(want)
	bad[n/2]++
	err = kv.Validate(bad)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("key %d = ", n/2)) {
		t.Errorf("one wrong word: err = %v, want one naming key %d", err, n/2)
	}
}

// TestSaturationDetection: well below capacity the saturation flag must
// stay off; far above capacity (20x) it must fire. Per-node capacity on
// the modeled Paragon is ~500-800 req/s.
func TestSaturationDetection(t *testing.T) {
	cfg := testConfig()

	cfg.OfferedLoad = 400 // 100 req/s per node: far below capacity
	_, light := runServe(t, cfg, core.ProtoHLRC, 4, core.Options{})
	if s := light.Stats.Serve; s.Saturated() {
		t.Errorf("light load flagged saturated: ratio %.3f, util %.2f", s.SaturationRatio(), s.MaxUtil)
	}

	cfg.OfferedLoad = 40_000 // 10k req/s per node: ~20x capacity
	_, heavy := runServe(t, cfg, core.ProtoHLRC, 4, core.Options{})
	s := heavy.Stats.Serve
	if !s.Saturated() {
		t.Errorf("20x overload not flagged: ratio %.3f", s.SaturationRatio())
	}
	if s.MaxUtil < 0.95 {
		t.Errorf("20x overload queue utilization %.2f, want ~1 (queue never drains)", s.MaxUtil)
	}
	if s.LastDone <= cfg.Window {
		t.Errorf("overload completion horizon %v within the arrival window %v", s.LastDone, cfg.Window)
	}
}

// TestZipfSkew: theta 0.9 must concentrate traffic — the most popular
// key must see far more than the uniform share of requests.
func TestZipfSkew(t *testing.T) {
	cfg := testConfig()
	cfg.OfferedLoad = 20_000 // enough requests for the skew to show
	cfg.ZipfTheta = 0.9
	kv, err := New(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int32]int)
	total := 0
	for id := 0; id < 4; id++ {
		for _, r := range kv.Trace(id) {
			counts[r.Key]++
			total++
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniformShare := float64(total) / float64(cfg.Keys)
	if float64(max) < 5*uniformShare {
		t.Errorf("theta 0.9: hottest key saw %d of %d requests, want > 5x the uniform share %.1f",
			max, total, uniformShare)
	}
}

// TestServeUnderLossyFaults: message loss must not deadlock the serving
// loop or corrupt the store; retries must appear in the node counters.
func TestServeUnderLossyFaults(t *testing.T) {
	plan, err := fault.Profile(fault.ProfileLossy, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, res := runServe(t, testConfig(), core.ProtoHLRC, 4, core.Options{Fault: plan})
	s := res.Stats.Serve
	if s.Completed == 0 {
		t.Fatal("lossy run completed nothing")
	}
	if s.Latency.P999() == 0 {
		t.Error("lossy run reports zero p999")
	}
	var retries int64
	for _, nd := range res.Stats.Nodes {
		retries += nd.Counts.Retries
	}
	if retries == 0 {
		t.Error("lossy profile produced no retries")
	}
}

// TestServeUnderCrashFaults: a mid-run node crash is waited out under every
// protocol: the run completes the full trace, validates the store, and
// reports the retransmissions and the recovery time the outage cost.
func TestServeUnderCrashFaults(t *testing.T) {
	plan, err := fault.Profile(fault.ProfileCrash, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Window = 40 * sim.Millisecond // span the crash (5ms) and revival (25ms)
	for _, proto := range core.Protocols {
		kv, res := runServe(t, cfg, proto, 4, core.Options{Fault: plan})
		s := res.Stats.Serve
		if s.Completed != kv.Generated() {
			t.Errorf("%s: crash run completed %d of %d", proto, s.Completed, kv.Generated())
		}
		if s.Latency.P999() == 0 {
			t.Errorf("%s: crash run reports zero p999", proto)
		}
		var retries int64
		var recovery sim.Time
		for _, nd := range res.Stats.Nodes {
			retries += nd.Counts.Retries
			recovery += nd.Recovery
		}
		if retries == 0 {
			t.Errorf("%s: crash cost no retransmission", proto)
		}
		if recovery == 0 {
			t.Errorf("%s: crash reports zero recovery time", proto)
		}
	}
}

// TestConfigValidation rejects inconsistent shapes, each with an error
// naming the field. It calls validate itself: New goes on to generate the
// arrival traces, and there an infinite offered load asks for unbounded
// memory before anything could fail.
func TestConfigValidation(t *testing.T) {
	bad := []struct {
		field  string
		mutate func(*Config)
	}{
		{"op mix", func(c *Config) { c.ReadPct, c.WritePct, c.ScanPct = 50, 30, 30 }}, // sums to 110
		{"op mix", func(c *Config) { c.ReadPct, c.WritePct, c.ScanPct = 120, -15, -5 }},
		{"ZipfTheta", func(c *Config) { c.ZipfTheta = 1.5 }},
		{"ZipfTheta", func(c *Config) { c.ZipfTheta = math.NaN() }},
		{"ZipfTheta", func(c *Config) { c.ZipfTheta = math.Inf(-1) }},
		{"Keys", func(c *Config) { c.Keys = -1 }},
		{"OfferedLoad", func(c *Config) { c.OfferedLoad = -3 }},
		{"OfferedLoad", func(c *Config) { c.OfferedLoad = math.Inf(1) }},
		{"OfferedLoad", func(c *Config) { c.OfferedLoad = math.NaN() }},
	}
	for i, tc := range bad {
		cfg := testConfig()
		cfg.Defaults()
		tc.mutate(&cfg)
		if err := cfg.validate(4); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("case %d: validate = %v, want an error naming %s", i, err, tc.field)
		}
	}
	if _, err := New(testConfig(), 0); err == nil {
		t.Error("New accepted zero procs")
	}
}

// TestProcsMismatch: running a workload on a machine size it was not
// built for must fail loudly rather than misindex.
func TestProcsMismatch(t *testing.T) {
	kv, err := New(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Protocol: core.ProtoHLRC, Machine: core.Machine{Nodes: 8}}
	if _, err := Run(opts, kv); err == nil {
		t.Error("Run accepted a procs mismatch")
	}
}
