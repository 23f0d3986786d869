package sim

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// firing is what one event of a cascade saw when it ran: the clock, a draw
// from the Sim's random source, and how far ahead the Sim said it was quiet —
// which depends on the queue and on the horizon of the Run call in progress,
// the two things Conn.fusedIdle consults.
type firing struct {
	now   Time
	draw  int64
	quiet bool
}

// cascade is a self-perpetuating random script on one Sim: every event logs
// a firing, then posts, arms, cancels or runs ahead (Advance under
// QuietUntil, as a fused idle connection event does) as the Sim's own random
// source says. It keeps between one and maxLive events pending, so it neither
// dies out nor explodes. Two Sims that behave identically produce identical
// logs.
type cascade struct {
	s      *Sim
	log    []firing
	timers []Timer
	live   int // pending events of this cascade
}

const maxLive = 3

func (c *cascade) start() {
	c.live++
	c.s.Post(0, c.step)
}

// observe logs a firing and returns how far ahead it asked and the answer.
func (c *cascade) observe() (ahead Time, quiet bool) {
	s := c.s
	r := s.Rand().Int63()
	ahead = s.Now() + Duration(r%400)*Microsecond
	quiet = s.QuietUntil(ahead)
	c.log = append(c.log, firing{s.Now(), r, quiet})
	return ahead, quiet
}

func (c *cascade) step() {
	s := c.s
	c.live--
	ahead, quiet := c.observe()
	d := Duration(s.Rand().Intn(997)) * Microsecond
	switch op := s.Rand().Intn(10); {
	case op < 2 && c.live < maxLive:
		c.live++
		s.PostAt(s.Now()+d/2+1, c.step)
	case op < 4 && c.live < maxLive:
		c.live++
		c.timers = append(c.timers, s.After(2*d, c.step))
	case op < 6 && len(c.timers) > 0:
		k := s.Rand().Intn(len(c.timers))
		if c.timers[k].Scheduled() {
			c.live--
		}
		s.Cancel(c.timers[k])
		c.timers = append(c.timers[:k], c.timers[k+1:]...)
	case op < 8 && quiet:
		s.Advance(ahead)
	}
	c.live++
	s.Post(d, c.step)
}

// TestShardedSingleDomainMatchesSerial is the statement every single-site
// network rests on: a one-domain Sharded is a plain Sim. Both run the same
// cascade under the same harness — many consecutive Run calls of uneven
// length (the 100 ms polling of WaitTopology among them), events posted from
// outside between two calls (StartTraffic), and global-lane events, some
// landing exactly on the end of a Run call. A global event at G is, for the
// plain Sim, the harness stopping at G, acting, and running to G once more
// before going on. Firing order, random draws, QuietUntil answers, clocks and
// event counts must agree after every call.
func TestShardedSingleDomainMatchesSerial(t *testing.T) {
	for _, engine := range []Engine{EngineWheel, EngineHeap} {
		for seed := int64(1); seed <= 5; seed++ {
			serial := &cascade{s: NewWithEngine(seed, engine)}
			sh := NewSharded(seed, engine, 1)
			dom := &cascade{s: sh.Shard(0)}
			serial.start()
			dom.start()

			drv := rand.New(rand.NewSource(seed * 31))
			var globals uint64 // fired so far; the scheduler counts them as events
			var sawSerial, sawSharded []Time
			for call := 0; call < 120; call++ {
				span := 100 * Millisecond
				if drv.Intn(3) == 0 {
					span = Duration(drv.Intn(250_000)+1) * Microsecond
				}
				until := serial.s.Now() + span
				if drv.Intn(4) == 0 && serial.live < maxLive {
					serial.start()
					dom.start()
				}
				// Up to two global events inside the call, the second
				// sometimes exactly at its end.
				var at []Time
				if drv.Intn(3) == 0 {
					at = append(at, serial.s.Now()+Duration(drv.Int63n(int64(span)))+1)
					if drv.Intn(2) == 0 {
						at = append(at, until)
					}
				}
				for _, g := range at {
					sh.Global().PostAt(g, func() {
						sawSharded = append(sawSharded, dom.s.Now())
						dom.s.Post(0, func() { dom.observe() })
					})
				}
				sh.Run(until)
				for _, g := range at {
					serial.s.Run(g)
					sawSerial = append(sawSerial, serial.s.Now())
					serial.s.Post(0, func() { serial.observe() })
					serial.s.Run(g)
					globals++
				}
				serial.s.Run(until)

				if serial.s.Now() != until || sh.Now() != until || dom.s.Now() != until || sh.Global().Now() != until {
					t.Fatalf("%v seed %d call %d: clocks serial %v barrier %v domain %v global %v, want %v", engine, seed, call,
						serial.s.Now(), sh.Now(), dom.s.Now(), sh.Global().Now(), until)
				}
				if len(serial.log) != len(dom.log) || serial.s.Processed()+globals != sh.Processed() {
					t.Fatalf("%v seed %d call %d: %d firings, %d events serial; %d firings, %d events (%d global) sharded", engine, seed, call,
						len(serial.log), serial.s.Processed(), len(dom.log), sh.Processed(), globals)
				}
			}
			if !slices.Equal(serial.log, dom.log) {
				for i := range serial.log {
					if serial.log[i] != dom.log[i] {
						t.Fatalf("%v seed %d: firing %d: serial %+v, one-domain sharded %+v", engine, seed, i, serial.log[i], dom.log[i])
					}
				}
			}
			if !slices.Equal(sawSerial, sawSharded) || globals == 0 {
				t.Fatalf("%v seed %d: %d global events saw the domain at %v, the harness at %v", engine, seed, globals, sawSharded, sawSerial)
			}
			var quiet int
			for _, f := range serial.log {
				if f.quiet {
					quiet++
				}
			}
			if len(serial.log) < 10000 || quiet < len(serial.log)/10 || quiet > len(serial.log)*9/10 {
				t.Fatalf("%v seed %d: %d firings, %d of them quiet: the script proves little", engine, seed, len(serial.log), quiet)
			}
			if a, b := serial.s.Rand().Int63(), dom.s.Rand().Int63(); a != b {
				t.Fatalf("%v seed %d: random streams diverge after the run", engine, seed)
			}
		}
	}
}

// shardedRun drives a 4-domain system with per-domain cascades and a periodic
// global sampler that reads every clock and kicks one domain at the barrier,
// and returns everything observable: per-domain firing logs, the kicks each
// domain received, and the sampler's snapshots.
func shardedRun(workers int) ([][]firing, [][]Time, [][]Time) {
	const domains = 4
	sh := NewSharded(7, EngineWheel, domains)
	sh.SetWorkers(workers)

	cascades := make([]*cascade, domains)
	kicks := make([][]Time, domains)
	for d := range cascades {
		cascades[d] = &cascade{s: sh.Shard(d)}
		cascades[d].start()
	}

	var snaps [][]Time
	var tick func()
	tick = func() {
		snap := []Time{sh.Global().Now()}
		for d := 0; d < domains; d++ {
			snap = append(snap, sh.Shard(d).Now())
		}
		snaps = append(snaps, snap)
		d := len(snaps) % domains
		sh.Shard(d).Post(0, func() {
			kicks[d] = append(kicks[d], sh.Shard(d).Now())
			cascades[d].observe()
		})
		sh.Global().Post(100*Millisecond, tick)
	}
	sh.Global().Post(100*Millisecond, tick)

	sh.Run(1 * Second)
	logs := make([][]firing, domains)
	for d, c := range cascades {
		logs[d] = c.log
	}
	return logs, kicks, snaps
}

// TestShardedWorkerCountInvariance is the in-run analogue of the sweep
// runner's any-worker-count guarantee: every observable log must be
// byte-identical whether windows execute inline or race across goroutines.
func TestShardedWorkerCountInvariance(t *testing.T) {
	refLogs, refKicks, refSnaps := shardedRun(1)
	for _, workers := range []int{2, 4, 8} {
		logs, kicks, snaps := shardedRun(workers)
		if !reflect.DeepEqual(refLogs, logs) {
			t.Fatalf("workers=%d: per-domain event logs diverge from inline execution", workers)
		}
		if !reflect.DeepEqual(refKicks, kicks) {
			t.Fatalf("workers=%d: barrier-scheduled domain events diverge", workers)
		}
		if !reflect.DeepEqual(refSnaps, snaps) {
			t.Fatalf("workers=%d: global-lane snapshots diverge", workers)
		}
	}
	if len(refSnaps) == 0 {
		t.Fatal("global sampler never fired")
	}
	// The barrier contract: a global event at time T observes every domain
	// clock at exactly T, and work it posts on a domain runs at T.
	for _, snap := range refSnaps {
		for i := 1; i < len(snap); i++ {
			if snap[i] != snap[0] {
				t.Fatalf("global at %v saw domain %d clock at %v", snap[0], i-1, snap[i])
			}
		}
	}
	for i, snap := range refSnaps {
		d := (i + 1) % len(refKicks)
		if k := i / len(refKicks); k >= len(refKicks[d]) || refKicks[d][k] != snap[0] {
			t.Fatalf("kick %d of domain %d (posted at the %v barrier) ran at %v", k, d, snap[0], refKicks[d])
		}
	}
	for d, log := range refLogs {
		if len(log) < 500 {
			t.Fatalf("domain %d: only %d firings; the test exercises nothing", d, len(log))
		}
	}
}

// TestGlobalSchedulesDomainWorkAtBarrier: work a global callback posts on a
// domain at the barrier instant runs at that instant, before the next
// window advances time past it.
func TestGlobalSchedulesDomainWorkAtBarrier(t *testing.T) {
	sh := NewSharded(3, EngineWheel, 2)
	var fired Time
	sh.Global().PostAt(50*Millisecond, func() {
		sh.Shard(1).Post(0, func() { fired = sh.Shard(1).Now() })
	})
	sh.Run(1 * Second)
	if fired != 50*Millisecond {
		t.Fatalf("barrier-scheduled domain event fired at %v, want 50ms", fired)
	}
}

// TestDomainSeedStreams: domain 0 must draw the stream of a plain Sim with
// the same seed; other domains must not.
func TestDomainSeedStreams(t *testing.T) {
	sh := NewSharded(99, EngineWheel, 3)
	serial := New(99)
	for i := 0; i < 16; i++ {
		if sh.Shard(0).Rand().Uint64() != serial.Rand().Uint64() {
			t.Fatal("domain 0 rng stream diverges from the plain seed stream")
		}
	}
	a, b := sh.Shard(1).Rand().Uint64(), sh.Shard(2).Rand().Uint64()
	if a == b {
		t.Fatal("domains 1 and 2 drew identical first values; seeds not decorrelated")
	}
}

// TestNextAt holds the wheel's non-mutating peek to the heap's: the same
// random script of pushes, cancels, single pops and bounded Runs is applied to
// one Sim of each engine, and after every step both must name the same next
// timestamp (and agree on the clock and the population, so a peek that
// disturbed the wheel would show up as a later divergence). The scripts
// include same-tick and same-instant events, timers beyond the fifth level's
// 19.5 h span that are then cancelled, and events due before a cursor that a
// cascade has moved past the clock.
func TestNextAt(t *testing.T) {
	for _, engine := range []Engine{EngineHeap, EngineWheel} {
		s := NewWithEngine(1, engine)
		if _, ok := s.NextAt(); ok {
			t.Fatalf("%v: empty queue reported a next event", engine)
		}
		s.PostAt(30*Millisecond, func() {})
		s.PostAt(10*Millisecond, func() {})
		if at, ok := s.NextAt(); !ok || at != 10*Millisecond {
			t.Fatalf("%v: NextAt = %v,%v want 10ms,true", engine, at, ok)
		}
		s.Run(math.MaxInt64 / 2)
		if _, ok := s.NextAt(); ok {
			t.Fatalf("%v: drained queue reported a next event", engine)
		}
		// A cancelled timer beyond the fifth level's span must not be
		// reported.
		s = NewWithEngine(1, engine)
		dead := s.At(25*Hour, func() {})
		s.PostAt(30*Hour, func() {})
		s.Cancel(dead)
		if at, ok := s.NextAt(); !ok || at != 30*Hour {
			t.Fatalf("%v: NextAt = %v,%v behind a cancelled timer at 25h, want 30h", engine, at, ok)
		}
	}

	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sims := [2]*Sim{NewWithEngine(seed, EngineHeap), NewWithEngine(seed, EngineWheel)}
		var timers [2][]Timer
		check := func(step int, op string) {
			t.Helper()
			ha, hok := sims[0].NextAt()
			wa, wok := sims[1].NextAt()
			if ha != wa || hok != wok {
				t.Fatalf("seed %d step %d (%s): heap NextAt %v,%v wheel %v,%v", seed, step, op, ha, hok, wa, wok)
			}
			if sims[0].Now() != sims[1].Now() || sims[0].Pending() != sims[1].Pending() {
				t.Fatalf("seed %d step %d (%s): heap now %v pending %d, wheel now %v pending %d", seed, step, op,
					sims[0].Now(), sims[0].Pending(), sims[1].Now(), sims[1].Pending())
			}
		}
		for step := 0; step < 600; step++ {
			switch r := rng.Intn(100); {
			case r < 50:
				var d Duration
				switch k := rng.Intn(100); {
				case k < 25:
					d = Duration(rng.Intn(1024)) // inside the current tick
				case k < 45:
					d = Duration(rng.Intn(int(100 * Microsecond)))
				case k < 70:
					d = Duration(rng.Intn(int(300 * Millisecond)))
				case k < 85:
					d = Duration(rng.Intn(int(3 * Hour)))
				case k < 95:
					d = 20*Hour + Duration(rng.Intn(int(30*Hour))) // level 5
				}
				for i, s := range sims {
					timers[i] = append(timers[i], s.After(d, func() {}))
				}
				check(step, "push")
			case r < 70:
				if len(timers[0]) == 0 {
					continue
				}
				k := rng.Intn(len(timers[0]))
				for i, s := range sims {
					s.Cancel(timers[i][k])
					timers[i] = append(timers[i][:k], timers[i][k+1:]...)
				}
				check(step, "cancel")
			case r < 85:
				// One pop. On the wheel this can cascade a higher-level slot
				// and leave the cursor ahead of the clock, so that the next
				// short timer is filed behind it.
				if at, ok := sims[0].NextAt(); ok {
					for _, s := range sims {
						s.PostAt(at, func() {})
						s.Run(at)
					}
				}
				check(step, "pop")
			default:
				until := sims[0].Now() + Duration(rng.Intn(int(50*Millisecond)))
				if rng.Intn(10) == 0 {
					until += Duration(rng.Intn(int(25 * Hour)))
				}
				for _, s := range sims {
					s.Run(until)
				}
				check(step, "run")
			}
		}
	}
}

// TestNextAtBehindCursor builds the one case the random scripts reach only
// by luck: a singleton direct pop from level 1 moves the wheel's cursor to
// that event's tick while the clock of the caller is still earlier, and an
// event then scheduled for "now" is filed in the cursor's slot with a
// timestamp below the slot's window.
func TestNextAtBehindCursor(t *testing.T) {
	for _, engine := range []Engine{EngineHeap, EngineWheel} {
		s := NewWithEngine(1, engine)
		var got []Time
		s.PostAt(200*Microsecond, func() {})
		s.Run(100 * Microsecond) // the pop looked at the event (and may have cascaded it) without taking it
		s.PostAt(100*Microsecond+5, func() { got = append(got, s.Now()) })
		if at, ok := s.NextAt(); !ok || at != 100*Microsecond+5 {
			t.Fatalf("%v: NextAt = %v,%v want %v", engine, at, ok, 100*Microsecond+5)
		}
		s.Run(Second)
		if len(got) != 1 || got[0] != 100*Microsecond+5 {
			t.Fatalf("%v: fired at %v", engine, got)
		}
	}
}

// TestQuietUntil: an event may run ahead only as far as neither a pending
// event nor the end of the Run call in progress lies — both bounds inclusive
// on the side of refusing.
func TestQuietUntil(t *testing.T) {
	for _, engine := range []Engine{EngineHeap, EngineWheel} {
		s := NewWithEngine(1, engine)
		if s.QuietUntil(1) {
			t.Fatalf("%v: quiet beyond the present outside Run", engine)
		}
		ran := false
		s.PostAt(Millisecond, func() {
			ran = true
			other := s.At(Millisecond+300*Microsecond, func() {})
			for _, tc := range []struct {
				t    Time
				want bool
			}{
				{Millisecond + 299*Microsecond, true},
				{Millisecond + 300*Microsecond, false}, // a tie is not quiet
				{Millisecond + 400*Microsecond, false},
			} {
				if got := s.QuietUntil(tc.t); got != tc.want {
					t.Errorf("%v: QuietUntil(%v) = %v with an event at %v", engine, tc.t, got, other.When())
				}
			}
			s.Cancel(other)
			if !s.QuietUntil(2*Millisecond) || s.QuietUntil(2*Millisecond+1) {
				t.Errorf("%v: the horizon 2ms must be reachable and not passable", engine)
			}
			s.Advance(Millisecond + 310*Microsecond)
			s.Post(0, func() {
				if s.Now() != Millisecond+310*Microsecond {
					t.Errorf("%v: event posted after Advance ran at %v", engine, s.Now())
				}
			})
		})
		s.Run(2 * Millisecond)
		if !ran || s.Now() != 2*Millisecond {
			t.Fatalf("%v: ran %v, now %v", engine, ran, s.Now())
		}
		s.PostAt(3*Millisecond, func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: Advance past the horizon did not panic", engine)
				}
			}()
			s.Advance(4*Millisecond + 1)
		})
		s.Run(4 * Millisecond)
		s.PostAt(5*Millisecond, func() {
			if !s.QuietUntil(math.MaxInt64) {
				t.Errorf("%v: RunAll is an unbounded horizon", engine)
			}
		})
		s.RunAll()
	}
}
