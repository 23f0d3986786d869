// Package sim provides the deterministic discrete-event simulation engine
// that substitutes for the FIT IoT-Lab testbed hardware: a pluggable event
// queue (hierarchical timer wheel by default, binary heap as reference) with
// nanosecond resolution, per-node clocks with configurable ppm drift, and a
// seeded random source.
//
// All protocol machinery in this repository (BLE link layer, IEEE 802.15.4
// MAC, IP stack timers, CoAP retransmissions, traffic generators) is driven
// exclusively through this engine. No goroutines and no wall-clock time are
// involved, which makes every experiment run bit-for-bit reproducible given
// its seed.
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Time is an absolute simulation timestamp in nanoseconds since the start of
// the run. BLE needs microsecond-level precision (the inter-frame spacing is
// exactly 150µs) and clock drift of a few parts per million accumulates
// sub-microsecond errors that matter over multi-hour experiments, so
// nanoseconds are the natural resolution.
type Time int64

// Duration is a span of simulation time in nanoseconds.
type Duration = Time

// Common durations, mirroring time.Duration conventions.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
	Hour        Duration = 60 * Minute
)

// String renders a Time using the most readable unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%dus", int64(t)/int64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds converts t to floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Handler is what an event runs when it fires. A pointer to a named type
// that is already allocated — a link end, a transmission — is stored in the
// interface as it is, so arming such a handler allocates nothing, where a
// method value or closure is one more heap object per owner.
type Handler interface{ Fire() }

// Func adapts a plain function to Handler. At, After, Post and PostAt wrap
// their argument in it.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Event is a scheduled callback. Events are single-shot; rescheduling is the
// caller's responsibility. Event objects are owned by the Sim and recycled
// through a free list after they fire or are cancelled; external code holds
// them only through the generation-checked Timer handle.
type Event struct {
	when Time
	seq  uint64 // tie-breaker: FIFO among events with equal timestamps
	h    Handler
	// idx is the heap index under EngineHeap. Under EngineWheel it encodes
	// the slot as level<<6|slot. Either way it is >= 0 while queued and -1
	// once fired or cancelled.
	idx int
	// next links recycled events on the Sim free list; while the event sits
	// in a wheel slot, next and prev thread that slot's list instead (prev
	// is meaningful only for an event that is not the head of its slot).
	next, prev *Event
	// gen increments every time the event fires or is cancelled, so stale
	// Timer handles to a recycled Event can never cancel its new tenant.
	gen uint64
}

// Timer is a cancellable handle to a scheduled event. It is a small value —
// copying it is free and allocation-free — and it stays safe after the
// event fires: the generation check makes Cancel and Scheduled no-ops on
// handles whose event was recycled for a later timer. The zero Timer is
// valid and refers to nothing.
type Timer struct {
	e   *Event
	gen uint64
}

// Scheduled reports whether the timer's event is still pending.
func (t Timer) Scheduled() bool { return t.e != nil && t.e.gen == t.gen && t.e.idx >= 0 }

// When returns the timestamp the timer is scheduled for, or 0 if the timer
// is no longer pending.
func (t Timer) When() Time {
	if !t.Scheduled() {
		return 0
	}
	return t.e.when
}

// Sim is a discrete-event simulation. It is not safe for concurrent use;
// the engine is strictly single-threaded by design. Independent Sim
// instances share no state and may run on separate goroutines (the parallel
// sweep runner relies on this).
type Sim struct {
	now  Time
	q    queue
	seq  uint64
	rng  *rand.Rand
	free *Event // recycled handle-free events (Post/PostAt)
	// processed counts executed events, for diagnostics and benchmarks.
	processed uint64
	// horizon is the until of the Run call in progress (QuietUntil).
	horizon Time
}

// New creates a simulation whose random source is seeded with seed, using
// the default timer-wheel engine.
func New(seed int64) *Sim { return NewWithEngine(seed, EngineWheel) }

// NewWithEngine creates a simulation backed by the given event-queue engine.
func NewWithEngine(seed int64, engine Engine) *Sim {
	// xoshiro256++ (rng.go), not rand.NewSource: the stdlib source carries
	// ~4.9KB of state per Sim, which dominates the heap of city-scale
	// builds that run one Sim per RF-isolated site.
	s := &Sim{rng: rand.New(newXoshiro256(seed))}
	switch engine {
	case EngineHeap:
		s.q = &heapQueue{}
	default:
		s.q = newWheelQueue()
	}
	return s
}

// Now returns the current simulation time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.processed }

// Scheduled returns the number of events queued so far, fired, cancelled and
// pending alike; scheduled − processed − pending is the number cancelled.
func (s *Sim) Scheduled() uint64 { return s.seq }

// schedule queues h for when on an event from the free list, assigning the
// next sequence number. Scheduling in the past (or exactly now) runs the
// event at the current time, after already-queued events with the same
// timestamp.
func (s *Sim) schedule(when Time, h Handler) *Event {
	if h == nil {
		panic("sim: nil event func")
	}
	if when < s.now {
		when = s.now
	}
	e := s.getEvent()
	e.when, e.seq, e.h = when, s.seq, h
	s.seq++
	s.q.push(e)
	return e
}

// handler wraps fn for schedule, keeping a nil func nil so that it panics
// there.
func handler(fn func()) Handler {
	if fn == nil {
		return nil
	}
	return Func(fn)
}

// getEvent takes an Event from the free list, or allocates one.
func (s *Sim) getEvent() *Event {
	e := s.free
	if e != nil {
		s.free = e.next
		e.next = nil
		return e
	}
	return &Event{}
}

// Schedule runs h.Fire at absolute time when. It returns a handle that can
// cancel the event. The backing Event comes from the same free list as
// Post's, so arming timers is allocation-free in steady state.
func (s *Sim) Schedule(when Time, h Handler) Timer {
	e := s.schedule(when, h)
	return Timer{e: e, gen: e.gen}
}

// At schedules fn to run at absolute time when, like Schedule.
func (s *Sim) At(when Time, fn func()) Timer { return s.Schedule(when, handler(fn)) }

// After schedules fn to run delay from now.
func (s *Sim) After(delay Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now+delay, fn)
}

// Post schedules fn to run delay from now, like After, but returns no
// cancellation handle. Use After when the caller needs to Cancel.
func (s *Sim) Post(delay Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.PostAt(s.now+delay, fn)
}

// PostAt is Post with an absolute timestamp.
func (s *Sim) PostAt(when Time, fn func()) { s.schedule(when, handler(fn)) }

// Cancel removes a pending timer from the queue and recycles its event.
// Cancelling a timer that already fired, was cancelled, or is the zero
// Timer is a no-op.
func (s *Sim) Cancel(t Timer) {
	e := t.e
	if e == nil || e.gen != t.gen || e.idx < 0 {
		return
	}
	s.q.cancel(e)
	e.idx = -1
	e.h = nil
	e.gen++
	e.next = s.free
	s.free = e
}

// NextAt returns the timestamp of the earliest pending event without
// removing it, and false when the queue is empty. The sharded scheduler
// calls this on its global lane to bound each barrier window.
func (s *Sim) NextAt() (Time, bool) { return s.q.peek() }

// QuietUntil reports whether the event in progress is the only thing this
// Sim can run up to and including t: no pending event is due at or before t
// (strictly after, so that no tie has to be argued), and the Run call in
// progress reaches t, so that nothing outside the Sim — a barrier-time
// global of a multi-site run, the harness between two Run calls — gets to look
// in between. An event for which this holds may compute what it would have
// scheduled up to t in one step, moving the clock with Advance. Outside Run
// and RunAll the horizon is the one last reached: nothing beyond the present
// is quiet.
func (s *Sim) QuietUntil(t Time) bool {
	if t > s.horizon {
		return false
	}
	next, ok := s.q.peek()
	return !ok || next > t
}

// Advance moves the clock forward to t from inside an event, standing in for
// an event at t that was not scheduled because QuietUntil showed nothing
// could run before it. Moving past a pending event or the Run horizon would
// make time run backwards for whatever comes next, so the caller must hold
// QuietUntil for a time at or after t.
func (s *Sim) Advance(t Time) {
	if t < s.now || t > s.horizon {
		panic("sim: Advance outside the window QuietUntil covers")
	}
	s.now = t
}

// fire executes a popped event and recycles it. The handler is read before
// recycling so it may itself schedule and reuse the slot; the generation
// bump invalidates any Timer handle still pointing here.
func (s *Sim) fire(e *Event) {
	s.now = e.when
	h := e.h
	e.h = nil
	e.gen++
	s.processed++
	e.next = s.free
	s.free = e
	h.Fire()
}

// Run executes events in timestamp order until the queue is empty or the
// next event is later than until. Time advances to until if the queue
// drains earlier, so subsequent scheduling is relative to the horizon.
func (s *Sim) Run(until Time) {
	s.horizon = until
	for {
		e := s.q.pop(until)
		if e == nil {
			break
		}
		s.fire(e)
	}
	if s.now < until {
		s.now = until
	}
}

// RunAll executes events until the queue is empty. Intended for tests; real
// experiments always bound the horizon with Run.
func (s *Sim) RunAll() {
	s.horizon = math.MaxInt64
	for {
		e := s.q.pop(Time(math.MaxInt64))
		if e == nil {
			return
		}
		s.fire(e)
	}
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return s.q.len() }
