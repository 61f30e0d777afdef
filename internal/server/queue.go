package server

import (
	"errors"
	"sync"
)

// Admission control: a bounded FIFO with load shedding. The queue never
// grows past its capacity — an overloaded service answers "come back
// later" (HTTP 503 + Retry-After) instead of accumulating a backlog it
// can neither bound in memory nor finish before clients give up. Requeues
// of already-admitted jobs (a worker's stall kill, a retried failure)
// bypass the capacity check and jump the line: admitted work is finished
// before new work is started.

// ErrQueueFull is returned by push when the queue is at capacity — the
// load-shedding signal.
var ErrQueueFull = errors.New("server: job queue full")

// ErrQueueClosed is returned by push once the server is draining.
var ErrQueueClosed = errors.New("server: job queue closed")

// jobQueue is the bounded admission queue.
type jobQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	items    []*Job
	capacity int
	closed   bool
}

// newJobQueue returns an empty queue holding at most capacity jobs.
func newJobQueue(capacity int) *jobQueue {
	if capacity <= 0 {
		capacity = 64
	}
	q := &jobQueue{capacity: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push admits a job, shedding with ErrQueueFull at capacity and
// ErrQueueClosed after close.
func (q *jobQueue) push(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	if len(q.items) >= q.capacity {
		return ErrQueueFull
	}
	q.items = append(q.items, j)
	q.cond.Signal()
	return nil
}

// requeue puts an already-admitted job at the head of the line, ignoring
// capacity: shedding applies at admission, not to supervision retries. A
// closed queue refuses (the drain path handles the job instead).
func (q *jobQueue) requeue(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	q.items = append([]*Job{j}, q.items...)
	q.cond.Signal()
	return nil
}

// pop blocks until a job is available or the queue is closed; nil means
// closed-and-drained, the worker-exit signal.
func (q *jobQueue) pop() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil
	}
	j := q.items[0]
	q.items[0] = nil // release the popped slot: the backing array outlives the job
	q.items = q.items[1:]
	return j
}

// depth returns the number of queued jobs.
func (q *jobQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// close stops admission and wakes blocked pops. Jobs still queued are
// returned so the drain path can cancel them.
func (q *jobQueue) close() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	rest := q.items
	q.items = nil
	q.cond.Broadcast()
	return rest
}
