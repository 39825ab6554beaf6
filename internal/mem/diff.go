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
	words, runs := countRuns(twin, cur)
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
	d.Runs = make([]Run, 0, runs)
	d.fillRuns(twin, cur, buf)
	return d
}

// Recompute makes d the diff of cur against twin, in place: the runs and
// their values go into d's own Runs and values backing, grown to the exact
// size when too small, so recomputing a Diff that once held a diff as
// large allocates nothing. Every Run of d's previous contents is
// overwritten or dropped; none may be used afterwards.
func (d *Diff) Recompute(page int, twin, cur []float64) {
	words, runs := countRuns(twin, cur)
	d.Page = page
	if cap(d.buf) < words {
		d.buf = make([]float64, words)
	}
	clear(d.Runs) // no stale run keeps a replaced backing alive
	if cap(d.Runs) < runs {
		d.Runs = make([]Run, 0, runs)
	}
	d.Runs = d.Runs[:0]
	d.fillRuns(twin, cur, d.buf[:words])
}

// countRuns is the diff scanner's first pass: the modified words and runs
// of cur against twin, so the backing can be sized exactly.
func countRuns(twin, cur []float64) (words, runs int) {
	if len(twin) != len(cur) {
		panic("mem: diff of mismatched pages")
	}
	for i := 0; i < len(cur); {
		if sameBits(twin[i], cur[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(cur) && !sameBits(twin[j], cur[j]) {
			j++
		}
		words += j - i
		runs++
		i = j
	}
	return words, runs
}

// fillRuns is the scanner's second pass: it appends the runs to d.Runs,
// slicing their values out of buf, which countRuns sized.
func (d *Diff) fillRuns(twin, cur, buf []float64) {
	used := 0
	for i := 0; i < len(cur); {
		if sameBits(twin[i], cur[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(cur) && !sameBits(twin[j], cur[j]) {
			j++
		}
		vals := buf[used : used+(j-i)]
		copy(vals, cur[i:j])
		used += j - i
		d.Runs = append(d.Runs, Run{Off: i, Vals: vals})
		i = j
	}
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

// Empty reports whether the diff modifies no words.
func (d *Diff) Empty() bool { return len(d.Runs) == 0 }

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
