package serve

import (
	"gosvm/internal/core"
	"gosvm/internal/mem"
	"gosvm/internal/sim"
)

// Each shard's keys spread over keyLocks lock stripes, so two puts to
// different keys of one shard do not serialize on one lock.
const keyLocks = 8

// A seqlock reader retries a torn read seqlockRetries times, pausing
// seqlockBackoff of simulated time before each retry to let the writer's
// critical section close, then falls back to the lock.
const (
	seqlockRetries = 3
	seqlockBackoff = 20 * sim.Microsecond
)

// lockOf maps a key to its lock stripe: the key hashes to one of keyLocks
// stripes and the lock id is shard + shards*stripe — congruent to the
// shard mod P because the shard count is a multiple of P, so the stripe
// manager still lives on the shard's home node.
func (kv *KV) lockOf(key int32) int {
	stripe := int(scramble(uint64(key)+0x57a1de) % keyLocks)
	return int(kv.keyShard[key]) + kv.shards*stripe
}

// serveOne serves a single request: a get or scan lock-free when the
// seqlock validation succeeds, otherwise under the key's lock. Puts
// always lock: the lock is what makes the read-modify-write atomic and
// what cycles the version word. The locked fallback is also the
// correctness backstop for torn reads — acquiring the lock chases the
// writer, which forces the writer's open interval closed (its diffs
// flush to the home), so the re-read is guaranteed an even version.
func (kv *KV) serveOne(c *core.Ctx, id int, r *Req, scratch []float64) {
	if r.Op != OpPut && kv.serveLockFree(c, id, r, scratch) {
		return
	}
	l := kv.lockOf(r.Key)
	c.Lock(l)
	kv.applyLocked(c, id, r, scratch)
	c.Unlock(l)
}

// serveLockFree attempts the seqlock read path. It returns false when
// the protocol has no authoritative copy to validate against (homeless
// LRC family) or the version stayed odd through every retry; the caller
// then takes the locked path and counts a fallback.
func (kv *KV) serveLockFree(c *core.Ctx, id int, r *Req, scratch []float64) bool {
	var ok bool
	if r.Op == OpGet {
		ok = kv.seqGet(c, id, r.Key)
	} else {
		ok = kv.seqScan(c, id, r, scratch)
	}
	if !ok {
		kv.seqFallbacks[id]++
		return false
	}
	kv.seqReads[id]++
	if r.Op == OpGet {
		c.Compute(serviceNs)
		kv.ops[id][0]++
	}
	return true
}

// seqGet reads one key lock-free: revalidate the page against its home,
// read the version word, and accept the value only if the version is
// even (no writer mid-critical-section when the page copy was taken).
// The version and value share a page, so the pair is a single atomic
// snapshot — a torn read can only manifest as an odd version.
func (kv *KV) seqGet(c *core.Ctx, id int, key int32) bool {
	a := kv.addrOf(key)
	for try := 0; ; try++ {
		if !c.FreshRead(a) {
			return false
		}
		if c.LoadI(a+1)&1 == 0 {
			_ = c.Load(a)
			return true
		}
		if try >= seqlockRetries {
			return false
		}
		kv.seqRetries[id]++
		c.Wait(seqlockBackoff)
	}
}

// seqScan reads a run of slots lock-free, validating every slot's
// version. Only the first page is explicitly revalidated; a scan
// crossing into further pages reads whatever consistent copies the
// protocol supplies (each page copy is still atomic, so per-slot
// version checks remain sound — the scan is just not a single store
// snapshot, which the locked path does not promise either). On success
// the scanned count is charged like the locked path.
func (kv *KV) seqScan(c *core.Ctx, id int, r *Req, scratch []float64) bool {
	base, n := kv.scanSpan(r.Key)
	for try := 0; ; try++ {
		if n > 0 {
			if !c.FreshRead(base) {
				return false
			}
		}
		torn := false
		for j := 0; j < n; j++ {
			v := c.Load(base + mem.Addr(wordsPerSlot*j))
			if c.LoadI(base+mem.Addr(wordsPerSlot*j)+1)&1 != 0 {
				torn = true
				break
			}
			scratch[j] = v
		}
		if !torn {
			c.Compute(serviceNs + sim.Time(n)*serviceNs/8)
			kv.ops[id][2]++
			return true
		}
		if try >= seqlockRetries {
			return false
		}
		kv.seqRetries[id]++
		c.Wait(seqlockBackoff)
	}
}

// scanSpan returns the first slot address and the slot count of a scan
// starting at key: up to scanLen slots, clipped at the end of the key's
// shard.
func (kv *KV) scanSpan(key int32) (base mem.Addr, n int) {
	sh := int(kv.keyShard[key])
	start := int(kv.keySlot[key])
	return kv.shardBase[sh] + mem.Addr(start*wordsPerSlot), min(scanLen, int(kv.shardLen[sh])-start)
}

// applyLocked executes one request inside an already-held critical
// section. A put cycles the slot's version word odd before the mutation
// and even after it, publishing the inconsistent window to any lock-free
// reader whose page fetch lands mid-interval (the writer's diffs flush
// early when a lock acquire chases past it). A locked scan holds only its
// first key's stripe: it reads the other slots of its span without their
// stripe locks and without a version check, racy by design like the
// seqlock reads.
func (kv *KV) applyLocked(c *core.Ctx, id int, r *Req, scratch []float64) {
	switch r.Op {
	case OpGet:
		_ = c.Load(kv.addrOf(r.Key))
		c.Compute(serviceNs)
		kv.ops[id][0]++
	case OpPut:
		a := kv.addrOf(r.Key)
		v := c.LoadI(a + 1)
		c.StoreI(a+1, v+1) // odd: value is in flux
		c.Store(a, c.Load(a)+float64(r.Delta))
		c.Compute(serviceNs)
		c.StoreI(a+1, v+2) // even: consistent again
		kv.ops[id][1]++
	case OpScan:
		base, n := kv.scanSpan(r.Key)
		for j := 0; j < n; j++ {
			scratch[j] = c.Load(base + mem.Addr(wordsPerSlot*j))
		}
		c.Compute(serviceNs + sim.Time(n)*serviceNs/8)
		kv.ops[id][2]++
	}
}
