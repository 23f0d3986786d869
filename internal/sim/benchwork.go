package sim

import "fmt"

// TimerStorm drives n self-rescheduling timers with mixed periods — the
// shape of the protocol stack's load: many short connection-event timers,
// some medium retransmission timers, a few long supervision timeouts. It is
// the shared workload of the in-package benchmarks and benchmark/'s
// sim.dispatch_ns probe.
func TimerStorm(s *Sim, nTimers, events int) {
	fired := 0
	periods := []Duration{
		625 * Microsecond, // connection event spacing
		7500 * Microsecond,
		50 * Millisecond, // CoAP-scale retry
		4 * Second,       // supervision-scale
	}
	for i := 0; i < nTimers; i++ {
		p := periods[i%len(periods)]
		var tick func()
		tick = func() {
			fired++
			if fired < events {
				s.Post(p, tick)
			}
		}
		s.Post(Duration(i)*Microsecond, tick)
	}
	s.RunAll()
	if fired < events {
		panic(fmt.Sprintf("storm under-ran: %d < %d", fired, events))
	}
}

// CancelStorm drives the schedule-then-cancel pattern that dominates ACK
// timers: every tick arms a retransmission timer that is immediately
// cancelled, as the (always-arriving) acknowledgement would.
func CancelStorm(s *Sim, events int) {
	n := 0
	var tick func()
	tick = func() {
		n++
		e := s.After(100*Millisecond, func() { n += 1000000 })
		s.Cancel(e)
		if n < events {
			s.Post(625*Microsecond, tick)
		}
	}
	s.Post(0, tick)
	s.RunAll()
	if n >= 1000000 {
		panic("cancelled timer fired")
	}
}
