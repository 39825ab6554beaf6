package sim

// fifo is a slice-backed queue that pops by advancing a head index and
// rewinds to the start of its backing array when it drains — the common
// case. Slicing the front off instead (q = q[1:]) leaves a drained queue
// with no capacity, so every push allocates.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
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

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release references
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// Chan is an unbounded FIFO connecting simulated processes. Values are
// pushed from any simulation context (proc code or event callbacks) and
// received by procs, which block while the queue is empty. Multiple
// receivers are served in the order they blocked. The zero value is an
// empty Chan whose receivers block with an unnamed reason.
type Chan[T any] struct {
	name       string
	recvReason string // "recv <name>", prebuilt so Recv never allocates
	queue      fifo[T]
	waiters    fifo[*Proc]
}

// NewChan returns an empty FIFO. The name appears in deadlock reports.
func NewChan[T any](name string) *Chan[T] {
	return &Chan[T]{name: name, recvReason: "recv " + name}
}

// Len reports the number of queued values.
func (c *Chan[T]) Len() int { return c.queue.len() }

// Push appends v and wakes the oldest waiting receiver, if any.
func (c *Chan[T]) Push(v T) {
	c.queue.push(v)
	if c.waiters.len() > 0 {
		c.waiters.pop().Unpark()
	}
}

// Recv removes and returns the oldest value, blocking p while the queue is
// empty.
func (c *Chan[T]) Recv(p *Proc) T {
	for c.queue.len() == 0 {
		c.waiters.push(p)
		p.Park(c.recvReason)
	}
	return c.queue.pop()
}

// TryRecv removes and returns the oldest value without blocking. ok is
// false if the queue is empty.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if c.queue.len() == 0 {
		return v, false
	}
	return c.queue.pop(), true
}
