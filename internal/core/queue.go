package core

import (
	"sync"

	"kvcc/graph"
)

// taskQueue is the shared work frontier of the enumeration pool: an
// unbounded mutex-guarded deque. The previous implementation was a
// channel of capacity NumVertices()+4, allocated up front — O(n) memory
// per Enumerate call on multi-million-vertex graphs. The deque instead
// grows with the actual frontier (bounded by the total partition count,
// < n/2 by Lemma 10, but in practice a handful of tasks) while keeping
// the invariant the channel capacity existed to provide: a producer
// never blocks, so a worker holding the only runnable task can always
// hand its children over and terminate.
type taskQueue struct {
	mu      sync.Mutex
	cond    sync.Cond
	items   []*graph.Graph
	pending int  // tasks pushed and not yet finished
	done    bool // pending hit zero: the recursion is complete
}

func newTaskQueue() *taskQueue {
	q := &taskQueue{}
	q.cond.L = &q.mu
	return q
}

// push enqueues g. It never blocks; the backing slice grows as needed.
func (q *taskQueue) push(g *graph.Graph) {
	q.mu.Lock()
	q.items = append(q.items, g)
	q.pending++
	q.mu.Unlock()
	q.cond.Signal()
}

// pop dequeues a task, blocking while the queue is empty but tasks are
// still in flight (an in-flight task may push children). ok = false
// means every pushed task has been finished and the queue is closed for
// good. LIFO order keeps the frontier depth-first and therefore narrow.
func (q *taskQueue) pop() (g *graph.Graph, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.done {
		q.cond.Wait()
	}
	if q.done {
		return nil, false
	}
	last := len(q.items) - 1
	g = q.items[last]
	q.items[last] = nil // drop the reference so the subgraph can be freed
	q.items = q.items[:last]
	return g, true
}

// finish marks one popped task complete. Workers must push a task's
// children before calling finish, so pending can only reach zero when no
// task is queued or in flight anywhere; that zero crossing closes the
// queue and wakes every blocked pop.
func (q *taskQueue) finish() {
	q.mu.Lock()
	q.pending--
	if q.pending == 0 {
		q.done = true
		q.mu.Unlock()
		q.cond.Broadcast()
		return
	}
	q.mu.Unlock()
}
