package mem

import "math"

// Run is a maximal run of consecutive modified words within a page.
type Run struct {
	Off  int       // word offset within the page
	Vals []float64 // new values
}

// Diff is the set of words a writer changed in one page during one
// interval, encoded as runs. Words are compared by bit pattern, so NaNs
// and signed zeros are handled exactly.
type Diff struct {
	Page int
	Runs []Run

	// buf is the backing array all Runs' Vals are sliced from when it came
	// from a pool (ComputeDiffPooled) or is kept for the next Recompute; nil
	// for ComputeDiff's diffs. See Release.
	buf []float64
}

// ComputeDiff scans cur against the clean twin and returns the modified
// runs. The two slices must have equal length.
func ComputeDiff(page int, twin, cur []float64) Diff {
	return ComputeDiffPooled(nil, page, twin, cur)
}

// ComputeDiffPooled is ComputeDiff with the run values packed into a
// single backing buffer drawn from pool (one allocation per diff instead
// of one per run, none when the pool has a free backing). A nil pool
// falls back to a plain allocation. If the diff's sole owner discards it,
// Release returns the backing for reuse; a diff that stays referenced is
// simply left to the garbage collector.
func ComputeDiffPooled(pool *Pool, page int, twin, cur []float64) Diff {
	d := Diff{Page: page}
	var s scanner
	words, runs := s.scan(twin, cur)
	if runs == 0 {
		return d
	}
	var buf []float64
	if pool != nil {
		buf = pool.getBuf(words)
		d.buf = buf
	} else {
		buf = make([]float64, words)
	}
	d.Runs = s.fill(make([]Run, 0, runs), twin, cur, buf)
	return d
}

// Recompute makes d the diff of cur against twin, in place: the runs and
// their values go into d's own Runs and values backing, grown to the exact
// size when too small, so recomputing a Diff that once held a diff as
// large allocates nothing. Every Run of d's previous contents is
// overwritten or dropped; none may be used afterwards.
func (d *Diff) Recompute(page int, twin, cur []float64) {
	var s scanner
	words, runs := s.scan(twin, cur)
	d.Page = page
	if cap(d.buf) < words {
		d.buf = make([]float64, words)
	}
	clear(d.Runs) // no stale run keeps a replaced backing alive
	if cap(d.Runs) < runs {
		d.Runs = make([]Run, 0, runs)
	}
	d.Runs = s.fill(d.Runs[:0], twin, cur, d.buf[:words])
}

// stackRuns is how many run bounds the scanner keeps on the stack.
const stackRuns = 64

// scanner is the diff scanner. Its one comparison pass records the bounds
// of a page's first stackRuns runs, so that the backing and Runs can be
// sized exactly before any value is copied. A page with more runs (only
// pages that change every few words) counts the rest in that pass and
// finds them again when filling.
type scanner struct {
	n     int // bounds recorded
	rest  int // where the runs past the recorded ones start; len(cur) if none
	spans [stackRuns]struct{ lo, hi int }
}

// scan compares cur with twin once and returns the diff's modified words
// and runs.
func (s *scanner) scan(twin, cur []float64) (words, runs int) {
	if len(twin) != len(cur) {
		panic("mem: diff of mismatched pages")
	}
	s.rest = len(cur)
	for lo, hi := nextRun(twin, cur, 0); lo < len(cur); lo, hi = nextRun(twin, cur, hi) {
		if runs < stackRuns {
			s.spans[runs].lo, s.spans[runs].hi = lo, hi
		} else if runs == stackRuns {
			s.rest = lo
		}
		words += hi - lo
		runs++
	}
	s.n = min(runs, stackRuns)
	return words, runs
}

// fill appends the runs scan found to runs, slicing their values out of
// buf, which the scan's word count sized.
func (s *scanner) fill(runs []Run, twin, cur, buf []float64) []Run {
	used := 0
	add := func(lo, hi int) {
		vals := buf[used : used+(hi-lo)]
		copy(vals, cur[lo:hi])
		used += hi - lo
		runs = append(runs, Run{Off: lo, Vals: vals})
	}
	for _, sp := range s.spans[:s.n] {
		add(sp.lo, sp.hi)
	}
	for lo, hi := nextRun(twin, cur, s.rest); lo < len(cur); lo, hi = nextRun(twin, cur, hi) {
		add(lo, hi)
	}
	return runs
}

// nextRun returns the bounds [lo, hi) of the first run of cur against twin
// at or after word i; lo is len(cur) if there is none. It looks a word at
// a time up to the next multiple of eight, so a run that starts just past
// the last one costs no block; then it skips equal stretches eight words a
// step (the OR of the eight words' XORs is zero only if all eight bit
// patterns are equal), and looks a word at a time again.
func nextRun(twin, cur []float64, i int) (lo, hi int) {
	n := len(cur)
	twin = twin[:n]
	for ; i&7 != 0 && i < n; i++ {
		if !sameBits(twin[i], cur[i]) {
			return i, runEnd(twin, cur, i)
		}
	}
	for ; i+8 <= n; i += 8 {
		t, c := twin[i:i+8:i+8], cur[i:i+8:i+8]
		if (math.Float64bits(t[0])^math.Float64bits(c[0]))|
			(math.Float64bits(t[1])^math.Float64bits(c[1]))|
			(math.Float64bits(t[2])^math.Float64bits(c[2]))|
			(math.Float64bits(t[3])^math.Float64bits(c[3]))|
			(math.Float64bits(t[4])^math.Float64bits(c[4]))|
			(math.Float64bits(t[5])^math.Float64bits(c[5]))|
			(math.Float64bits(t[6])^math.Float64bits(c[6]))|
			(math.Float64bits(t[7])^math.Float64bits(c[7])) != 0 {
			break
		}
	}
	for ; i < n; i++ {
		if !sameBits(twin[i], cur[i]) {
			return i, runEnd(twin, cur, i)
		}
	}
	return n, n
}

// runEnd returns the end of the run that starts at word i.
func runEnd(twin, cur []float64, i int) int {
	for i++; i < len(cur) && !sameBits(twin[i], cur[i]); i++ {
	}
	return i
}

// Release returns the diff's backing buffer to pool and empties the diff.
// It must only be called by the diff's sole owner, after the last Apply; no
// Run of the diff may be used afterwards. No-op for ComputeDiff's diffs
// (and safe to call twice).
func (d *Diff) Release(pool *Pool) {
	if d.buf == nil {
		return
	}
	pool.putBuf(d.buf)
	d.buf = nil
	d.Runs = nil
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// Apply writes the diff's runs into dst (a local copy of the page).
func (d *Diff) Apply(dst []float64) {
	for _, r := range d.Runs {
		copy(dst[r.Off:r.Off+len(r.Vals)], r.Vals)
	}
}

// Words returns the number of modified words.
func (d *Diff) Words() int {
	n := 0
	for _, r := range d.Runs {
		n += len(r.Vals)
	}
	return n
}

// WireSize returns the encoded size in bytes: a small diff header plus,
// per run, a (page offset, length) descriptor and the word values.
func (d *Diff) WireSize() int {
	sz := 16 // page id + run count + interval stamp
	for _, r := range d.Runs {
		sz += 8 + 8*len(r.Vals)
	}
	return sz
}

// MemSize returns the in-memory footprint charged to protocol memory
// accounting when a diff is retained.
func (d *Diff) MemSize() int64 {
	sz := int64(48) // descriptor
	for _, r := range d.Runs {
		sz += 24 + 8*int64(len(r.Vals))
	}
	return sz
}
