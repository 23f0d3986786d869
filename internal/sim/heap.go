package sim

import "container/heap"

// eventQueue is a binary min-heap ordered by (when, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*q = old[:n-1]
	return e
}

// heapQueue adapts eventQueue to the engine queue interface. This is the
// original O(log n) engine, kept as the reference implementation the timer
// wheel is differentially tested against.
type heapQueue struct {
	q eventQueue
}

func (h *heapQueue) push(e *Event) { heap.Push(&h.q, e) }

func (h *heapQueue) pop(limit Time) *Event {
	if len(h.q) == 0 || h.q[0].when > limit {
		return nil
	}
	return heap.Pop(&h.q).(*Event)
}

func (h *heapQueue) cancel(e *Event) { heap.Remove(&h.q, e.idx) }

func (h *heapQueue) peek() (Time, bool) {
	if len(h.q) == 0 {
		return 0, false
	}
	return h.q[0].when, true
}

func (h *heapQueue) len() int { return len(h.q) }
