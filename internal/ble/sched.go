package ble

import (
	"slices"

	"blemesh/internal/sim"
)

// Arbitration selects how the radio scheduler resolves overlapping events.
// The Bluetooth standard does not specify a strategy (§2.3 of the paper);
// the two policies below are the paper's choice (i) and choice (ii).
type Arbitration int

const (
	// ArbitrateSkip (choice i): an event whose start falls while the
	// radio is busy is skipped entirely. This is what NimBLE does and
	// what produces supervision timeouts under connection shading.
	ArbitrateSkip Arbitration = iota
	// ArbitrateAlternate (choice ii): when an activity was blocked by the
	// same owner twice in a row, it preempts that owner, so overlapping
	// connections alternate events. Capacity halves but connections
	// survive.
	ArbitrateAlternate
)

func (a Arbitration) String() string {
	if a == ArbitrateAlternate {
		return "alternate"
	}
	return "skip"
}

// Activity is a recurring claim on the node's single radio: one per
// connection, one for advertising. Scanning is the radio's background
// filler and never blocks an activity.
type Activity struct {
	// anchor points at the simulation time of the activity's next planned
	// radio claim, 0 when none is planned; nil for a one-off claim. The
	// scheduler reads it to bound how long the current owner may keep the
	// radio (this is what truncates connection events, Fig. 4 of the
	// paper).
	anchor *sim.Time
	// onPreempt fires when ArbitrateAlternate takes the radio away
	// mid-event. The activity must stop using the radio immediately.
	onPreempt sim.Handler

	blockedBy *Activity
}

// SchedStats counts scheduler decisions; skipped events are the observable
// footprint of connection shading.
type SchedStats struct {
	Grants     uint64
	Skips      uint64
	Preempts   uint64
	Truncated  uint64 // grants whose window was cut short by another anchor
	FillerTime sim.Duration
}

// Scheduler arbitrates a node's single radio among its link-layer
// activities. At most one activity owns the radio at a time; an idle radio
// runs the filler (scanning), which yields immediately to any activity.
type Scheduler struct {
	sim   *sim.Sim
	mode  Arbitration
	owner *Activity
	acts  []*Activity
	stats SchedStats

	filler      Filler
	fillerOn    bool
	fillerSince sim.Time
}

// Stats returns a copy of the scheduler counters.
func (sd *Scheduler) Stats() SchedStats { return sd.stats }

// Register adds an activity to the anchor bookkeeping.
func (sd *Scheduler) Register(a *Activity) { sd.acts = append(sd.acts, a) }

// Unregister removes an activity. It must not own the radio. The vacated
// tail slot is cleared: a connection's Activity lives inside its Conn, and
// a stale pointer behind the slice length would keep the whole dead link
// reachable.
func (sd *Scheduler) Unregister(a *Activity) {
	if i := slices.Index(sd.acts, a); i >= 0 {
		sd.acts = slices.Delete(sd.acts, i, i+1)
	}
	for _, x := range sd.acts {
		if x.blockedBy == a {
			x.blockedBy = nil
		}
	}
	if sd.owner == a {
		sd.owner = nil
		sd.resumeFiller()
	}
}

// Filler is the radio's background use while no activity owns it, the
// controller's scanning (scanFiller): Resume is called whenever the radio
// becomes idle, Pause before any activity takes it.
type Filler interface {
	Resume()
	Pause()
}

// SetFiller installs the background scan.
func (sd *Scheduler) SetFiller(f Filler) {
	sd.filler = f
	if sd.owner == nil {
		sd.resumeFiller()
	}
}

// ClearFiller removes the background scan.
func (sd *Scheduler) ClearFiller() {
	sd.pauseFiller()
	sd.filler = nil
}

func (sd *Scheduler) pauseFiller() {
	if sd.fillerOn {
		sd.fillerOn = false
		sd.stats.FillerTime += sd.sim.Now() - sd.fillerSince
		sd.filler.Pause()
	}
}

func (sd *Scheduler) resumeFiller() {
	if !sd.fillerOn && sd.filler != nil {
		sd.fillerOn = true
		sd.fillerSince = sd.sim.Now()
		sd.filler.Resume()
	}
}

// Acquire requests the radio for activity a from now until at most maxEnd.
// On success it returns the granted end limit: maxEnd further truncated by
// the next planned anchor of any other registered activity (minus one IFS of
// guard time, as the specification requires between events). ok=false means
// the event is skipped — the radio was busy.
func (sd *Scheduler) Acquire(a *Activity, maxEnd sim.Time) (limit sim.Time, ok bool) {
	now := sd.sim.Now()
	if sd.owner != nil {
		if sd.mode == ArbitrateAlternate && a.blockedBy == sd.owner {
			// Second consecutive block by the same owner: preempt it
			// so the two activities alternate.
			victim := sd.owner
			sd.owner = nil
			sd.stats.Preempts++
			if victim.onPreempt != nil {
				victim.onPreempt.Fire()
			}
			a.blockedBy = nil
		} else {
			a.blockedBy = sd.owner
			sd.stats.Skips++
			return 0, false
		}
	} else {
		a.blockedBy = nil
	}
	sd.pauseFiller()
	sd.owner = a
	sd.stats.Grants++
	limit = maxEnd
	for _, b := range sd.acts {
		if b == a || b.anchor == nil {
			continue
		}
		na := *b.anchor
		if na > now && na-IFS < limit {
			limit = na - IFS
			sd.stats.Truncated++
		}
	}
	if limit < now {
		limit = now
	}
	return limit, true
}

// Owns reports whether a currently holds the radio.
func (sd *Scheduler) Owns(a *Activity) bool { return sd.owner == a }

// Release returns the radio. Releasing without ownership is a no-op (the
// activity may have been preempted).
func (sd *Scheduler) Release(a *Activity) {
	if sd.owner != a {
		return
	}
	sd.owner = nil
	sd.resumeFiller()
}
