package sim

// Queue is an unbounded FIFO. It pops by advancing a head index and
// rewinds to the start of its backing array when it drains — the common
// case. Slicing the front off instead (q = q[1:]) leaves a drained queue
// with no capacity, so every push allocates. The zero value is an empty
// queue.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len reports the number of queued values.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > len(q.buf)/2 {
		// Full but mostly popped (a queue that never quite drains): slide
		// the live tail down instead of growing, so memory follows the
		// peak backlog, not the number of values ever pushed.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// TryPop removes and returns the oldest value. ok is false if the queue is
// empty.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if q.Len() == 0 {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release references
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v, true
}
