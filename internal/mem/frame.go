package mem

import (
	"fmt"
	"math"
)

// Frame is one immutable snapshot of a page, shared by reference count: a
// home publishes one per version of its page and every fetch of that version
// holds the same Words. Nobody writes the words between NewFrame and the
// last Release.
type Frame struct {
	refs int32
	sum  uint64 // checksum of Words at NewFrame; CheckFrames only
	// Words is the snapshot. Holders read it; the last one to Release
	// recycles it.
	Words []float64
}

// CheckFrames makes every Frame carry a checksum of its words from NewFrame
// on, verified by the last Release and by Verify. It is for tests, which set
// it before any run starts; a write through a shared frame then panics
// instead of corrupting another node's copy silently.
var CheckFrames bool

// NewFrame wraps words, which the caller gives up, in a frame holding one
// reference.
func NewFrame(words []float64) *Frame {
	f := &Frame{refs: 1, Words: words}
	if CheckFrames {
		f.sum = f.checksum()
	}
	return f
}

// Share adds a reference for a new holder and returns f.
func (f *Frame) Share() *Frame {
	f.refs++
	return f
}

// Release drops one reference. The last holder recycles the words into
// pool (nil: they fall to the Go GC, as does a frame whose reference was
// lost with a dropped message or a dead node).
func (f *Frame) Release(pool *Pool) {
	f.refs--
	switch {
	case f.refs < 0:
		panic("mem: frame released more often than it was shared")
	case f.refs == 0:
		f.Verify()
		pool.PutPage(f.Words)
		f.Words = nil
	}
}

// Verify panics if the words changed since NewFrame. No-op unless
// CheckFrames.
func (f *Frame) Verify() {
	if CheckFrames && f.checksum() != f.sum {
		panic(fmt.Sprintf("mem: shared page frame %p was written after it was published", f))
	}
}

// checksum is FNV-1a over the words' bit patterns.
func (f *Frame) checksum() uint64 {
	h := uint64(14695981039346656037)
	for _, w := range f.Words {
		h = (h ^ math.Float64bits(w)) * 1099511628211
	}
	return h
}
