package sim

import "fmt"

// Engine selects the event-queue implementation backing a Sim. Both engines
// honour the same contract — events execute in (when, seq) order, FIFO among
// equal timestamps — and the equivalence test suite holds them to
// byte-identical experiment traces. The wheel is the production engine; the
// binary heap is retained as the reference implementation the wheel is
// checked against.
type Engine uint8

const (
	// EngineWheel is a hierarchical timer wheel with bitmap-indexed slots
	// that cover every Time — O(1) scheduling and cancellation, no
	// per-operation interface dispatch, and storage that grows with the
	// timer horizons in use, not with the geometry. The default.
	EngineWheel Engine = iota
	// EngineHeap is the original container/heap binary heap, kept as the
	// reference implementation for differential testing.
	EngineHeap
)

// String names the engine in test and benchmark output.
func (e Engine) String() string {
	switch e {
	case EngineWheel:
		return "wheel"
	case EngineHeap:
		return "heap"
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// queue is the engine-internal event-queue contract. Events are totally
// ordered by (when, seq); push accepts events with when >= the time of the
// last pop, and pop returns the minimum-ordered event whose timestamp is at
// most limit, or nil. cancel removes a queued event at once, so the caller
// may recycle it.
type queue interface {
	push(e *Event)
	pop(limit Time) *Event
	cancel(e *Event)
	len() int
	// peek returns the timestamp of the minimum-ordered event without
	// removing it or changing what any later call returns, and false when
	// the queue is empty.
	peek() (Time, bool)
}
