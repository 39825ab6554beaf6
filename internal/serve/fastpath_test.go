package serve

import (
	"testing"

	"gosvm/internal/core"
	"gosvm/internal/mem"
	"gosvm/internal/sim"
)

// TestFastpathValidatesAllProtocols: every ablation mode must serve the
// identical trace to completion with a bitwise-correct store (Run
// validates internally) under every protocol — including the homeless
// LRC family, where the seqlock path silently degrades to locks.
func TestFastpathValidatesAllProtocols(t *testing.T) {
	protos := []core.Protocol{core.ProtoLRC, core.ProtoOLRC, core.ProtoHLRC, core.ProtoOHLRC}
	for _, mode := range Modes {
		for _, proto := range protos {
			cfg := testConfig()
			if err := ApplyFastpath(&cfg, mode); err != nil {
				t.Fatal(err)
			}
			kv, res := runServe(t, cfg, proto, 4, core.Options{})
			s := res.Stats.Serve
			if s.Completed != kv.Generated() {
				t.Errorf("%s/%s: completed %d of %d", mode, proto, s.Completed, kv.Generated())
			}
			if s.Latency.Count() != s.Completed {
				t.Errorf("%s/%s: histogram has %d samples for %d completions",
					mode, proto, s.Latency.Count(), s.Completed)
			}
		}
	}
}

// TestApplyFastpathModes: the ladder is cumulative, its top rung switches
// on both layers the package has, and anything else — the two rungs PR 21
// deleted included — is rejected.
func TestApplyFastpathModes(t *testing.T) {
	var cfg Config
	if err := ApplyFastpath(&cfg, ModeSeqlock); err != nil {
		t.Fatal(err)
	}
	if cfg.KeyLocks == 0 || !cfg.Seqlock {
		t.Errorf("mode seqlock left a layer off: %+v", cfg)
	}
	if err := ApplyFastpath(&cfg, ModeOff); err != nil {
		t.Fatal(err)
	}
	if cfg.KeyLocks != 0 || cfg.Seqlock {
		t.Errorf("mode off left a layer on: %+v", cfg)
	}
	for _, mode := range []string{"batch", "all", "turbo"} {
		if err := ApplyFastpath(&cfg, mode); err == nil {
			t.Errorf("ApplyFastpath accepted unknown mode %q", mode)
		}
	}
}

// TestSeqlockCounters: under a home-based protocol the lock-free path
// must carry reads; under homeless LRC it must fall back (FreshRead has
// no authoritative copy to validate against) without losing requests.
func TestSeqlockCounters(t *testing.T) {
	cfg := testConfig()
	if err := ApplyFastpath(&cfg, ModeSeqlock); err != nil {
		t.Fatal(err)
	}
	_, res := runServe(t, cfg, core.ProtoHLRC, 4, core.Options{})
	s := res.Stats.Serve
	if s.SeqlockReads == 0 {
		t.Error("hlrc: seqlock mode served no lock-free reads")
	}
	if s.LockAcquires == 0 {
		t.Error("hlrc: no lock acquires recorded (puts still lock)")
	}

	_, res = runServe(t, cfg, core.ProtoLRC, 4, core.Options{})
	s = res.Stats.Serve
	if s.SeqlockReads != 0 {
		t.Errorf("lrc: %d lock-free reads under a homeless protocol", s.SeqlockReads)
	}
	if s.SeqlockFallbacks == 0 {
		t.Error("lrc: no fallbacks counted for the degraded lock-free path")
	}
}

// TestAblationOrdering: walking each ablation rung up a load ladder,
// the sustained load (highest unsaturated offered load) must say what
// the ladder claims: striped locks never sustain less than the baseline,
// and seqlock reads sustain strictly more.
func TestAblationOrdering(t *testing.T) {
	ladder := []float64{500, 1000, 2000, 4000, 8000}
	sustained := map[string]float64{}
	for _, mode := range Modes {
		for _, load := range ladder {
			cfg := testConfig()
			cfg.OfferedLoad = load
			cfg.ZipfTheta = 0.9
			if err := ApplyFastpath(&cfg, mode); err != nil {
				t.Fatal(err)
			}
			_, res := runServe(t, cfg, core.ProtoHLRC, 4, core.Options{})
			if res.Stats.Serve.Saturated() {
				break
			}
			sustained[mode] = load
		}
		t.Logf("%s: sustained %.0f req/s", mode, sustained[mode])
	}
	if sustained[ModeLocks] < sustained[ModeOff] {
		t.Errorf("ablation ordering violated: locks sustains %.0f < off sustains %.0f",
			sustained[ModeLocks], sustained[ModeOff])
	}
	if sustained[ModeSeqlock] <= sustained[ModeOff] {
		t.Errorf("seqlock sustains %.0f, no better than baseline %.0f",
			sustained[ModeSeqlock], sustained[ModeOff])
	}
}

// tornApp reproduces the seqlock torn-read scenario deterministically:
// node 1 parks mid-critical-section with an odd version word, node 0
// forces node 1's open interval to flush by chasing an unrelated lock
// past it, then reads lock-free. The fresh fetch must observe the odd
// version; the locked fallback must observe the committed value.
type tornApp struct {
	base     mem.Addr
	sawOdd   bool
	fellBack bool
	finalVal float64
	finalVer int64
}

func (a *tornApp) Name() string { return "torn" }

func (a *tornApp) Setup(s *core.Setup) { a.base = s.Alloc(2) }

func (a *tornApp) Init(w *core.Init) {
	w.Store(a.base, 0)
	w.StoreI(a.base+1, 0)
	w.SetHome(a.base, 2, 0) // reader is the home: flushes land where it looks
}

func (a *tornApp) Worker(c *core.Ctx, id int) {
	if id == 1 {
		// Writer: open the seqlock (odd), mutate, and park inside the
		// critical section long enough for the reader to probe.
		c.Lock(1)
		v := c.LoadI(a.base + 1)
		c.StoreI(a.base+1, v+1)
		c.Store(a.base, 42)
		c.Wait(5 * sim.Millisecond)
		c.StoreI(a.base+1, v+2)
		c.Unlock(1)
	} else {
		// Reader: lock 3's token also starts at node 1, so acquiring it
		// chases past the writer and forces its dirty interval to flush —
		// the odd version reaches the home mid-critical-section.
		c.WaitUntil(sim.Millisecond)
		c.Lock(3)
		c.Unlock(3)
		deadline := c.Now() + 3*sim.Millisecond
		for c.Now() < deadline {
			if !c.FreshRead(a.base) {
				break
			}
			if c.LoadI(a.base+1)&1 != 0 {
				a.sawOdd = true
				break
			}
			c.Wait(50 * sim.Microsecond)
		}
		// Retries exhausted: fall back to the lock, which waits out the
		// writer and guarantees an even version.
		a.fellBack = true
		c.Lock(1)
		a.finalVal = c.Load(a.base)
		a.finalVer = c.LoadI(a.base + 1)
		c.Unlock(1)
	}
	c.Barrier(0)
}

func (a *tornApp) Gather(c *core.Ctx) []float64 {
	return []float64{c.Load(a.base), float64(int64(c.Load(a.base + 1)))}
}

// TestSeqlockTornRead: the mid-interval flush (lock chase past a dirty
// owner) must expose the odd version word to a lock-free reader, and
// the locked fallback must then observe the committed value — the
// mechanism DESIGN.md §13's correctness argument rests on.
func TestSeqlockTornRead(t *testing.T) {
	app := &tornApp{}
	res, err := core.Run(core.Options{Protocol: core.ProtoHLRC, Machine: core.Machine{Nodes: 2}}, app, false)
	if err != nil {
		t.Fatal(err)
	}
	if !app.sawOdd {
		t.Error("lock-free reader never observed the odd (torn) version")
	}
	if !app.fellBack {
		t.Error("reader did not take the locked fallback")
	}
	if app.finalVal != 42 {
		t.Errorf("locked fallback read %v, want the committed 42", app.finalVal)
	}
	if app.finalVer%2 != 0 {
		t.Errorf("locked fallback saw odd version %d", app.finalVer)
	}
	if res.Data[0] != 42 || int64(res.Data[1])%2 != 0 {
		t.Errorf("gathered (%v, %v), want (42, even)", res.Data[0], res.Data[1])
	}
}
