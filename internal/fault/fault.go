// Package fault is a deterministic, seed-reproducible fault-injection
// subsystem: scripted timelines of node crashes, restarts and reboots
// executed against the simulation clock. The paper's testbed could only
// exhibit the churn it happened to contain; this package lets experiments
// script the node churn that real deployments see, and verify the stack
// heals.
package fault

import (
	"cmp"
	"fmt"

	"blemesh/internal/sim"
)

// Kind enumerates fault event types.
type Kind int

// Fault event kinds.
const (
	// Crash powers Node off; it stays down until a later event restarts it.
	Crash Kind = iota
	// Reboot powers Node off at At and back on after Dwell (default 5s).
	Reboot
	// Restart powers a previously crashed Node back on.
	Restart
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Reboot:
		return "reboot"
	case Restart:
		return "restart"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one timestamped fault. Times are relative to the moment the plan
// is attached (experiments attach after their warm-up).
type Event struct {
	// At is when the fault strikes, relative to Attach.
	At sim.Duration
	// Kind selects the fault type.
	Kind Kind
	// Node identifies the target node.
	Node int
	// Dwell is a Reboot's off time (default 5s).
	Dwell sim.Duration
}

// Plan is a scripted fault timeline.
type Plan struct {
	Events []Event
}

// Validate checks the plan for obvious scripting mistakes; Attach executes
// only a plan it accepts.
func (p *Plan) Validate() error {
	for i, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("fault: event %d (%v) at negative time %v", i, e.Kind, e.At)
		}
		switch e.Kind {
		case Crash, Restart:
		case Reboot:
			if e.Dwell < 0 {
				return fmt.Errorf("fault: event %d reboot with negative dwell", i)
			}
		default:
			return fmt.Errorf("fault: event %d has unknown kind %v", i, e.Kind)
		}
	}
	return nil
}

// Target is what a plan executes against. internal/exp.Network implements
// it; tests use a fake.
type Target interface {
	// CrashNode powers a node off (all volatile state drops).
	CrashNode(id int)
	// RestartNode powers a crashed node back on.
	RestartNode(id int)
}

// Record is one executed fault, for the experiment report. A reboot logs
// two records: its crash and its restart.
type Record struct {
	At   sim.Time
	Kind Kind
	Node int
}

func (r Record) String() string {
	return fmt.Sprintf("t=%v %v node%d", r.At, r.Kind, r.Node)
}

// Injector executes an attached plan and logs what it did.
type Injector struct {
	s   *sim.Sim
	t   Target
	log []Record
}

// DefaultDwell is a Reboot's off time when its Dwell is zero.
const DefaultDwell = 5 * sim.Second

// Attach schedules every event of the plan against the simulation clock,
// relative to now, and returns the injector for log retrieval. Events are
// scheduled in slice order, so same-timestamp events execute in the order
// the plan lists them — scripts are deterministic by construction.
func Attach(s *sim.Sim, t Target, p *Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{s: s, t: t}
	for _, e := range p.Events {
		switch e.Kind {
		case Crash, Restart:
			s.Schedule(s.Now()+e.At, &step{inj, e.Kind, e.Node})
		case Reboot:
			dwell := cmp.Or(e.Dwell, DefaultDwell)
			s.Schedule(s.Now()+e.At, &step{inj, Crash, e.Node})
			s.Schedule(s.Now()+e.At+dwell, &step{inj, Restart, e.Node})
		}
	}
	return inj, nil
}

// Log returns the executed faults in execution order.
func (inj *Injector) Log() []Record {
	return append([]Record(nil), inj.log...)
}

// step is one scheduled power change: a Crash or a Restart of node. A
// reboot is two steps.
type step struct {
	inj  *Injector
	kind Kind
	node int
}

func (st *step) Fire() {
	inj := st.inj
	inj.log = append(inj.log, Record{At: inj.s.Now(), Kind: st.kind, Node: st.node})
	if st.kind == Crash {
		inj.t.CrashNode(st.node)
	} else {
		inj.t.RestartNode(st.node)
	}
}
