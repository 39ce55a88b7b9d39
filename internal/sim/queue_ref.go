//go:build sim_refheap

package sim

import "container/heap"

// eventQueue under the sim_refheap build tag is the seed engine's event
// queue: a binary min-heap of per-event pointer allocations driven
// through container/heap. It is kept as the reference implementation
// the value-typed 4-ary queue is cross-checked against:
//
//	go test -tags sim_refheap ./internal/sim
//
// runs the full engine suite (ordering, fuzz, property tests) on it,
// and scripts/check.sh diffs whole-figure output between a default
// build and a sim_refheap build — both must be byte-identical, since
// the firing order is the queue-independent total order (at, seq).
type eventQueue struct {
	h refHeap
}

type refHeap []*entry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*entry)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

func (q *eventQueue) attachPooled() {}

func (q *eventQueue) len() int { return len(q.h) }

func (q *eventQueue) minAt() Time { return q.h[0].at }

func (q *eventQueue) push(e entry) {
	n := new(entry)
	*n = e
	heap.Push(&q.h, n)
}

func (q *eventQueue) pop() entry {
	return *(heap.Pop(&q.h).(*entry))
}

func (q *eventQueue) reset() { q.h = q.h[:0] }

func (q *eventQueue) release() { q.h = nil }
