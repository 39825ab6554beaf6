package serve

import (
	"testing"

	"gosvm/internal/core"
	"gosvm/internal/sim"
)

// TestFastpathValidatesAllProtocols: every protocol serves the trace to
// completion with a bitwise-correct store (Run validates internally), and
// every get and scan tries the lock-free path exactly once — a seqlock
// read or a fallback.
func TestFastpathValidatesAllProtocols(t *testing.T) {
	for _, proto := range core.Protocols {
		kv, res := runServe(t, testConfig(), proto, 4, core.Options{})
		s := res.Stats.Serve
		if s.Completed != kv.Generated() {
			t.Errorf("%s: completed %d of %d", proto, s.Completed, kv.Generated())
		}
		if got, want := s.SeqlockReads+s.SeqlockFallbacks, s.Gets+s.Scans; got != want {
			t.Errorf("%s: %d seqlock reads + %d fallbacks for %d gets and scans",
				proto, s.SeqlockReads, s.SeqlockFallbacks, want)
		}
	}
}

// TestSeqlockCounters: under a home-based protocol the lock-free path
// must carry reads; under homeless LRC it must fall back (FreshRead has
// no authoritative copy to validate against) without losing requests.
func TestSeqlockCounters(t *testing.T) {
	_, res := runServe(t, testConfig(), core.ProtoHLRC, 4, core.Options{})
	s := res.Stats.Serve
	if s.SeqlockReads == 0 {
		t.Error("hlrc: served no lock-free reads")
	}
	if s.LockAcquires == 0 {
		t.Error("hlrc: no lock acquires recorded (puts still lock)")
	}

	_, res = runServe(t, testConfig(), core.ProtoLRC, 4, core.Options{})
	s = res.Stats.Serve
	if s.SeqlockReads != 0 {
		t.Errorf("lrc: %d lock-free reads under a homeless protocol", s.SeqlockReads)
	}
	if s.SeqlockFallbacks == 0 {
		t.Error("lrc: no fallbacks counted for the degraded lock-free path")
	}
}

// TestSustainedLoad walks the store up a load ladder under HLRC on four
// nodes at Zipf 0.9: the highest unsaturated offered load is what the
// seqlock reads buy over the locked-only store, which sustained 1000
// req/s on this ladder.
func TestSustainedLoad(t *testing.T) {
	var sustained float64
	for _, load := range []float64{500, 1000, 2000, 4000, 8000} {
		cfg := testConfig()
		cfg.OfferedLoad = load
		cfg.ZipfTheta = 0.9
		_, res := runServe(t, cfg, core.ProtoHLRC, 4, core.Options{})
		if res.Stats.Serve.Saturated() {
			break
		}
		sustained = load
	}
	t.Logf("sustained %.0f req/s", sustained)
	if sustained < 2000 {
		t.Errorf("sustained %.0f req/s, want at least 2000", sustained)
	}
}

// tornKV runs a real store's read path against a writer parked inside a
// put's critical section: node 1 takes the key's stripe lock, cycles the
// version odd, writes the value and waits; node 0 — the shard's home, so
// a flush lands where it looks — forces node 1's open interval to flush
// by chasing an unrelated lock past it, then serves one request through
// serveOne. The lock-free attempt must see the odd version through every
// retry, and the locked fallback must wait the writer out.
type tornKV struct {
	*KV
	req      Req
	scratch  []float64
	finalVal float64
	finalVer int64
}

// tornValue is what the parked writer commits; tornChase is a lock no
// store request takes, managed by the writer's node.
const (
	tornValue = 4242
	tornChase = 1<<20 + 1
)

func (a *tornKV) Worker(c *core.Ctx, id int) {
	addr := a.addrOf(a.req.Key)
	if id == 1 {
		l := a.lockOf(a.req.Key)
		c.Lock(l)
		v := c.LoadI(addr + 1)
		c.StoreI(addr+1, v+1)
		c.Store(addr, tornValue)
		c.Wait(10 * sim.Millisecond)
		c.StoreI(addr+1, v+2)
		c.Unlock(l)
	} else {
		// The writer's remote lock acquire and first page miss put its
		// store at 2.3 ms; start after it and well before the release.
		c.WaitUntil(5 * sim.Millisecond)
		c.Lock(tornChase)
		c.Unlock(tornChase)
		a.serveOne(c, id, &a.req, a.scratch)
		a.finalVal = c.Load(addr)
		a.finalVer = c.LoadI(addr + 1)
	}
	c.Barrier(0)
}

// TestSeqlockTornRead: the mid-interval flush (a lock chase past a dirty
// owner) exposes the odd version word to seqGet and seqScan, each retries
// seqlockRetries times and gives up, one fallback is counted, and the
// locked read then sees the committed value with an even version — the
// mechanism DESIGN.md §12's correctness argument rests on.
func TestSeqlockTornRead(t *testing.T) {
	for _, op := range []Op{OpGet, OpScan} {
		t.Run(op.String(), func(t *testing.T) {
			kv, err := New(Config{Keys: 64, OfferedLoad: 1, Window: sim.Millisecond}, 2)
			if err != nil {
				t.Fatal(err)
			}
			key := int32(0)
			for kv.keyShard[key]%2 != 0 { // a shard node 0 homes
				key++
			}
			app := &tornKV{KV: kv, req: Req{Key: key, Op: op}, scratch: make([]float64, scanLen)}
			opts := core.Options{Protocol: core.ProtoHLRC, Machine: core.Machine{Nodes: 2}}
			if _, err := core.Run(opts, app, false); err != nil {
				t.Fatal(err)
			}
			if kv.seqRetries[0] != seqlockRetries {
				t.Errorf("%d seqlock retries, want %d", kv.seqRetries[0], seqlockRetries)
			}
			if kv.seqReads[0] != 0 || kv.seqFallbacks[0] != 1 {
				t.Errorf("%d lock-free reads and %d fallbacks, want 0 and 1", kv.seqReads[0], kv.seqFallbacks[0])
			}
			if app.finalVal != tornValue {
				t.Errorf("after the locked fallback the key reads %v, want the committed %v", app.finalVal, float64(tornValue))
			}
			if app.finalVer != 2 {
				t.Errorf("after the locked fallback the version reads %d, want 2", app.finalVer)
			}
			if op == OpScan && app.scratch[0] != tornValue {
				t.Errorf("locked scan read %v, want the committed %v", app.scratch[0], float64(tornValue))
			}
			if ops := kv.ops[0]; ops[0]+ops[2] != 1 {
				t.Errorf("node 0 counted ops %v, want the one %s", ops, op)
			}
		})
	}
}
