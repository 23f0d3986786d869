// Package ring is the FIFO queue of the loaded datapath: a power-of-two
// circular buffer, allocated on first Push and doubled when full. Push and
// Pop are O(1) and allocation-free in steady state, where `q = q[1:]` plus
// append reallocates every few elements. Pop zeroes the slot it vacates, so
// a popped element (a pooled buffer, say) is not kept reachable through the
// backing array.
package ring

// Ring is a FIFO queue. The zero value is an empty queue holding no memory.
type Ring[T any] struct {
	buf  []T    // len(buf) is zero or a power of two
	head uint32 // index of the front element
	n    uint32 // elements queued
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return int(r.n) }

// Push appends v at the back.
func (r *Ring[T]) Push(v T) {
	if int(r.n) == len(r.buf) {
		r.grow()
	}
	r.buf[r.slot(r.n)] = v
	r.n++
}

// slot maps the i-th element from the front to its index in buf.
func (r *Ring[T]) slot(i uint32) uint32 { return (r.head + i) & uint32(len(r.buf)-1) }

// grow doubles the buffer, moving the elements to its start in queue order.
// The first allocation is a single slot: most per-link queues never hold
// more than a frame or two, and there are two of each per connection.
func (r *Ring[T]) grow() {
	buf := make([]T, max(1, 2*len(r.buf)))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// Front returns the oldest element. It panics on an empty queue.
func (r *Ring[T]) Front() T { return r.At(0) }

// At returns the i-th element counted from the front (0 ≤ i < Len), which
// is how callers iterate: for i := 0; i < q.Len(); i++ { q.At(i) }.
func (r *Ring[T]) At(i int) T {
	if uint(i) >= uint(r.n) {
		panic("ring: index out of range")
	}
	return r.buf[r.slot(uint32(i))]
}

// Pop removes and returns the oldest element, zeroing its slot. It panics
// on an empty queue.
func (r *Ring[T]) Pop() T {
	v := r.At(0)
	var zero T
	r.buf[r.head] = zero
	r.head = r.slot(1)
	r.n--
	return v
}

// Reset empties the queue and releases its buffer.
func (r *Ring[T]) Reset() { *r = Ring[T]{} }
