package core

import (
	"fmt"
	"math/rand"
	"testing"

	"gosvm/internal/fault"
	"gosvm/internal/mem"
	"gosvm/internal/sim"
)

// Randomized protocol equivalence testing: generate random data-race-free
// programs and verify that every protocol produces exactly the result an
// analytical model predicts.
//
// Generated programs mix the two synchronization idioms of the Splash-2
// suite:
//
//   - barrier-domain words: word w is written only by its owner proc,
//     once per round, with a deterministic value f(round, w); everyone
//     may read it in later rounds.
//   - lock-domain words: word w belongs to a lock; any proc may
//     read-modify-write it while holding that lock.
//
// Both idioms are racy at page granularity (owners interleave on shared
// pages) but race-free at word granularity — exactly the multi-writer
// situation the protocols must merge correctly.

type randProgram struct {
	seed      int64
	procs     int
	rounds    int
	barWords  int // barrier-domain words
	lockSets  int // number of locks
	wordsPerL int // words per lock domain
	pageSize  int

	barBase  mem.Addr
	lockBase mem.Addr
}

func (rp *randProgram) Name() string { return fmt.Sprintf("randprog-%d", rp.seed) }

func (rp *randProgram) lockWper() int { return rp.wordsPerL }

func (rp *randProgram) Setup(s *Setup) {
	// Unaligned allocations force barrier and lock domains to share pages.
	rp.barBase = s.AllocUnaligned(rp.barWords)
	rp.lockBase = s.AllocUnaligned(rp.lockSets * rp.lockWper())
}

func (rp *randProgram) Init(w *Init) {
	for i := 0; i < rp.barWords; i++ {
		w.Store(rp.barBase+mem.Addr(i), 0)
	}
	for i := 0; i < rp.lockSets*rp.lockWper(); i++ {
		w.Store(rp.lockBase+mem.Addr(i), 0)
	}
}

// barValue is the deterministic value owner writes to word w in round r.
func barValue(w, r int) float64 { return float64((w+1)*1000 + r) }

// ownerOf assigns barrier-domain words to procs in an interleaved pattern
// (maximal false sharing).
func (rp *randProgram) ownerOf(w int) int { return w % rp.procs }

func (rp *randProgram) Worker(c *Ctx, id int) {
	rng := rand.New(rand.NewSource(rp.seed + int64(id)*7919))
	bar := 0
	for r := 1; r <= rp.rounds; r++ {
		// Barrier-domain writes: each proc updates a random subset of its
		// own words; the rest keep their previous-round value.
		for w := id; w < rp.barWords; w += rp.procs {
			if rng.Intn(2) == 0 {
				c.Store(rp.barBase+mem.Addr(w), barValue(w, r))
			}
		}
		// Random reads of words written in earlier rounds must observe
		// committed values.
		for k := 0; k < 4; k++ {
			w := rng.Intn(rp.barWords)
			v := c.Load(rp.barBase + mem.Addr(w))
			// The value must be 0 or barValue(w, r') for some r' <= r; a
			// full check happens at the end, here we check the invariant
			// cheaply.
			if v != 0 {
				base := float64((w + 1) * 1000)
				if v < base+0 || v > base+float64(r) {
					panic(fmt.Sprintf("proc %d round %d: word %d = %v out of range", id, r, w, v))
				}
			}
		}
		// Lock-domain RMWs.
		for k := 0; k < 1+rng.Intn(3); k++ {
			l := rng.Intn(rp.lockSets)
			c.Lock(500 + l)
			for j := 0; j < rp.lockWper(); j++ {
				a := rp.lockBase + mem.Addr(l*rp.lockWper()+j)
				c.Store(a, c.Load(a)+1)
			}
			c.Compute(sim.Time(rng.Intn(30)) * sim.Microsecond)
			c.Unlock(500 + l)
		}
		c.Compute(sim.Time(rng.Intn(100)) * sim.Microsecond)
		c.Barrier(bar)
		bar++
	}
	c.Barrier(bar)
}

func (rp *randProgram) Gather(c *Ctx) []float64 {
	out := make([]float64, rp.barWords+rp.lockSets*rp.lockWper())
	c.ReadRange(rp.barBase, out[:rp.barWords])
	c.ReadRange(rp.lockBase, out[rp.barWords:])
	return out
}

// model recomputes the expected final memory image.
func (rp *randProgram) model() (bar []float64, lockTotals []int) {
	bar = make([]float64, rp.barWords)
	lockTotals = make([]int, rp.lockSets)
	for id := 0; id < rp.procs; id++ {
		rng := rand.New(rand.NewSource(rp.seed + int64(id)*7919))
		for r := 1; r <= rp.rounds; r++ {
			for w := id; w < rp.barWords; w += rp.procs {
				if rng.Intn(2) == 0 {
					bar[w] = barValue(w, r)
				}
			}
			for k := 0; k < 4; k++ {
				rng.Intn(rp.barWords)
			}
			for k := 0; k < 1+rng.Intn(3); k++ {
				lockTotals[rng.Intn(rp.lockSets)]++
				rng.Intn(30)
			}
			rng.Intn(100)
		}
	}
	return bar, lockTotals
}

// checkRandProgram validates one run's gathered image against the model.
func checkRandProgram(t *testing.T, label string, rp *randProgram, data []float64, wantBar []float64, wantLocks []int) {
	t.Helper()
	for w := 0; w < rp.barWords; w++ {
		if data[w] != wantBar[w] {
			t.Fatalf("%s: barrier word %d = %v, want %v (procs=%d rounds=%d page=%d)",
				label, w, data[w], wantBar[w], rp.procs, rp.rounds, rp.pageSize)
		}
	}
	for l := 0; l < rp.lockSets; l++ {
		for j := 0; j < rp.lockWper(); j++ {
			got := data[rp.barWords+l*rp.lockWper()+j]
			if got != float64(wantLocks[l]) {
				t.Fatalf("%s: lock domain %d word %d = %v, want %d",
					label, l, j, got, wantLocks[l])
			}
		}
	}
}

func TestRandomProgramsAllProtocols(t *testing.T) {
	CheckFrames(t)
	protocols := append([]Protocol{}, Protocols...)
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 31337))
			rp := &randProgram{
				seed:      seed,
				procs:     2 + rng.Intn(7),
				rounds:    2 + rng.Intn(4),
				barWords:  32 + rng.Intn(200),
				lockSets:  1 + rng.Intn(4),
				wordsPerL: 1 + rng.Intn(12),
				pageSize:  []int{256, 512, 1024}[rng.Intn(3)],
			}
			wantBar, wantLocks := rp.model()
			for _, proto := range protocols {
				opts := Options{
					Protocol:  proto,
					Machine:   Machine{Nodes: rp.procs},
					PageBytes: rp.pageSize,
				}
				res, err := Run(opts, rp, false)
				if err != nil {
					t.Fatalf("%s: %v", proto, err)
				}
				checkRandProgram(t, proto.String(), rp, res.Data, wantBar, wantLocks)
			}
		})
	}
}

// The same randomized programs must validate under the lossy and hostile
// fault profiles: the reliability layer may slow the protocols down but
// must never change what they compute.
func TestRandomProgramsUnderFaults(t *testing.T) {
	CheckFrames(t)
	for seed := int64(1); seed <= 4; seed++ {
		for _, profile := range []string{fault.ProfileLossy, fault.ProfileHostile} {
			seed, profile := seed, profile
			t.Run(fmt.Sprintf("seed%d/%s", seed, profile), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed * 31337))
				rp := &randProgram{
					seed:      seed,
					procs:     2 + rng.Intn(7),
					rounds:    2 + rng.Intn(4),
					barWords:  32 + rng.Intn(200),
					lockSets:  1 + rng.Intn(4),
					wordsPerL: 1 + rng.Intn(12),
					pageSize:  []int{256, 512, 1024}[rng.Intn(3)],
				}
				wantBar, wantLocks := rp.model()
				plan, err := fault.Profile(profile, seed*977)
				if err != nil {
					t.Fatal(err)
				}
				for _, proto := range Protocols {
					opts := Options{
						Protocol:  proto,
						Machine:   Machine{Nodes: rp.procs},
						PageBytes: rp.pageSize,
						Fault:     plan,
					}
					res, err := Run(opts, rp, false)
					if err != nil {
						t.Fatalf("%s/%s: %v", proto, profile, err)
					}
					checkRandProgram(t, proto.String()+"/"+profile, rp, res.Data, wantBar, wantLocks)
				}
			})
		}
	}
}
