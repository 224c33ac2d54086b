package sched

// Queue is a bounded FIFO message queue processes block on — the model of
// the prototype's UNIX message queues and socket buffers. Producers (the
// network, other processes) push values; consumers receive them with
// Proc.Recv. When full, Push drops the value (drop-tail, like a UDP socket
// buffer under an unresponsive reader).
//
// The paper's buffer-length sensor (Example 5) reads Len to decide whether
// a QoS fault is local (long buffer: the process cannot drain fast enough)
// or upstream (short buffer: frames are not arriving).
type Queue struct {
	cap     int
	items   []any
	waiters []*Proc
	dropped uint64
}

// NewQueue creates a queue holding at most capacity items; capacity <= 0
// means unbounded.
func NewQueue(capacity int) *Queue {
	return &Queue{cap: capacity}
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) }

// Dropped returns the number of values dropped because the queue was full.
func (q *Queue) Dropped() uint64 { return q.dropped }

// Push enqueues v, waking a blocked receiver if any. It reports false if
// the value was dropped because the queue was full.
func (q *Queue) Push(v any) bool {
	if len(q.waiters) > 0 {
		p := q.waiters[0]
		q.waiters = q.waiters[1:]
		p.deliver(v)
		return true
	}
	if q.cap > 0 && len(q.items) >= q.cap {
		q.dropped++
		return false
	}
	q.items = append(q.items, v)
	return true
}

func (q *Queue) pop() (any, bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

func (q *Queue) addWaiter(p *Proc) { q.waiters = append(q.waiters, p) }

func (q *Queue) removeWaiter(p *Proc) {
	for i, w := range q.waiters {
		if w == p {
			q.waiters = append(q.waiters[:i:i], q.waiters[i+1:]...)
			return
		}
	}
}
