package rpl

import (
	"blemesh/internal/sim"
)

// trickle is an RFC 6206 trickle timer: the DIO beacon scheduler. The
// interval I starts at Imin, doubles after every quiet interval up to
// Imax = Imin << doublings, and snaps back to Imin when the caller reports
// an inconsistency. Within each interval, the timer fires once at a uniform
// random point in [I/2, I); its owner's trickleFire is told whether to
// actually transmit (fewer than k consistent messages heard this interval) or
// suppress (k-redundancy: enough neighbors already said the same thing).
//
// The timer holds its interval's two events, the fire point and the interval
// end, and stop and reset cancel them, so a stopped timer leaves nothing in
// the queue. Only beginInterval draws randomness.
type trickle struct {
	s     *sim.Sim
	imin  sim.Duration
	imax  sim.Duration
	k     int
	owner trickleOwner

	i sim.Duration // current interval length
	c int          // consistent messages heard this interval
	// point and end are this interval's fire point and interval end; end
	// is pending exactly while the timer runs.
	point, end sim.Timer
}

// trickleOwner is what a trickle timer beacons for, the Instance. Its
// trickleFire is called once per interval; send is false when the interval's
// consistency counter reached k (suppression).
type trickleOwner interface{ trickleFire(send bool) }

// tricklePoint is the fire point of an interval, trickleEnd its end.
type (
	tricklePoint trickle
	trickleEnd   trickle
)

func (h *tricklePoint) Fire() {
	t := (*trickle)(h)
	t.owner.trickleFire(t.k <= 0 || t.c < t.k)
}

func (h *trickleEnd) Fire() {
	t := (*trickle)(h)
	t.i *= 2
	if t.i > t.imax {
		t.i = t.imax
	}
	t.beginInterval()
}

func newTrickle(s *sim.Sim, imin sim.Duration, doublings, k int, owner trickleOwner) *trickle {
	imax := imin
	for d := 0; d < doublings; d++ {
		imax *= 2
	}
	return &trickle{s: s, imin: imin, imax: imax, k: k, owner: owner}
}

// start (re)starts the timer at Imin. Idempotent in effect: a running timer
// restarts its interval.
func (t *trickle) start() {
	t.stop()
	t.i = t.imin
	t.beginInterval()
}

// stop halts the timer, removing its interval's events from the queue.
func (t *trickle) stop() {
	t.s.Cancel(t.point)
	t.s.Cancel(t.end)
}

// hear counts a consistent message toward this interval's suppression
// threshold.
func (t *trickle) hear() { t.c++ }

// reset reacts to an inconsistency: snap the interval back to Imin. Per
// RFC 6206 §4.2 step 6, a reset while already at Imin does nothing (the
// short interval is still in progress).
func (t *trickle) reset() {
	if !t.end.Scheduled() || t.i == t.imin {
		return
	}
	t.stop()
	t.i = t.imin
	t.beginInterval()
}

// beginInterval starts one trickle interval: zero the counter, pick the
// fire point t ∈ [I/2, I), and arm the interval-end doubling.
func (t *trickle) beginInterval() {
	t.c = 0
	half := t.i / 2
	at := half + sim.Duration(t.s.Rand().Int63n(int64(half)))
	now := t.s.Now()
	t.point = t.s.Schedule(now+at, (*tricklePoint)(t))
	t.end = t.s.Schedule(now+t.i, (*trickleEnd)(t))
}
