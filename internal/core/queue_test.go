package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"kvcc/graph"
)

// The task queue must deliver every pushed task exactly once, never block
// a producer, and close only after the last in-flight task finishes.
func TestTaskQueueDrainsRecursiveWork(t *testing.T) {
	q := newTaskQueue()
	marker := graph.FromEdges(1, nil)

	// Seed one task; every popped task fans out into children until a
	// budget is exhausted — the shape of the enumeration recursion.
	var budget atomic.Int64
	budget.Store(500)
	var processed atomic.Int64
	q.push(marker)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, ok := q.pop()
				if !ok {
					return
				}
				processed.Add(1)
				for c := 0; c < 3; c++ {
					if budget.Add(-1) >= 0 {
						q.push(marker)
					}
				}
				q.finish()
			}
		}()
	}
	wg.Wait()
	if got := processed.Load(); got != 501 {
		t.Fatalf("processed %d tasks, want 501 (1 seed + 500 budget)", got)
	}
	if q.pending != 0 || len(q.items) != 0 || !q.done {
		t.Fatalf("queue not drained: pending=%d items=%d done=%v", q.pending, len(q.items), q.done)
	}
	// A pop after completion must return immediately with ok=false.
	if _, ok := q.pop(); ok {
		t.Fatal("pop on a finished queue returned a task")
	}
}

// The parallel driver must not allocate its frontier proportionally to
// the graph: the old implementation made a channel of capacity n+4. The
// deque's backing array only ever reaches the live frontier width.
func TestTaskQueueFrontierStaysSmall(t *testing.T) {
	// A long path has no k-core for k=2... use chained triangles instead
	// so the recursion actually runs on a sizable graph.
	var edges [][2]int
	const chain = 300
	for i := 0; i < chain; i++ {
		base := 2 * i
		edges = append(edges, [2]int{base, base + 1}, [2]int{base, base + 2}, [2]int{base + 1, base + 2})
	}
	g := graph.FromEdges(2*chain+1, edges)
	res, _, err := Enumerate(g, 2, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != chain {
		t.Fatalf("chained triangles: got %d 2-VCCs, want %d", len(res), chain)
	}
}
