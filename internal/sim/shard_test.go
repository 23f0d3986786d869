package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// storm schedules a self-perpetuating random cascade of events on s,
// appending each firing time to log. The cascade is a pure function of the
// Sim's rng, so two Sims seeded identically produce identical logs.
func storm(s *Sim, log *[]Time, limit int) {
	n := 0
	var step func()
	step = func() {
		*log = append(*log, s.Now())
		n++
		if n > limit {
			return
		}
		d := Duration(s.Rand().Intn(997)) * Microsecond
		s.Post(d, step)
		if s.Rand().Intn(4) == 0 {
			s.Post(d/2+1, step)
		}
	}
	s.Post(0, step)
}

// TestShardedSingleDomainMatchesSerial locks down the degenerate case the
// network layer relies on for byte-compatibility: one domain, no lookahead,
// empty global lane — the sharded Run must be indistinguishable from a
// plain serial Sim with the same seed.
func TestShardedSingleDomainMatchesSerial(t *testing.T) {
	for _, engine := range []Engine{EngineWheel, EngineHeap} {
		serial := NewWithEngine(42, engine)
		var want []Time
		storm(serial, &want, 2000)
		serial.Run(1 * Second)

		sh := NewSharded(42, engine, 1, 0)
		var got []Time
		storm(sh.Shard(0), &got, 2000)
		sh.Run(1 * Second)

		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%v: sharded single-domain log diverges from serial (%d vs %d events)",
				engine, len(want), len(got))
		}
		if serial.Processed() != sh.Processed() {
			t.Fatalf("%v: processed %d serial vs %d sharded", engine, serial.Processed(), sh.Processed())
		}
		if serial.Now() != sh.Now() || sh.Shard(0).Now() != serial.Now() {
			t.Fatalf("%v: clocks diverge: serial %v sharded %v shard0 %v",
				engine, serial.Now(), sh.Now(), sh.Shard(0).Now())
		}
	}
}

// shardedRun drives a 4-domain system with per-domain storms, cross-domain
// mail, and a periodic global sampler, and returns everything observable:
// per-domain firing logs, cross-delivery logs, and global snapshots.
func shardedRun(t *testing.T, workers int) ([][]Time, [][][2]int64, [][]Time) {
	t.Helper()
	const domains = 4
	sh := NewSharded(7, EngineWheel, domains, 5*Millisecond)
	sh.SetWorkers(workers)

	logs := make([][]Time, domains)
	recv := make([][][2]int64, domains) // per receiver: (deliverAt, sender)
	for d := 0; d < domains; d++ {
		d := d
		s := sh.Shard(d)
		n := 0
		var step func()
		step = func() {
			logs[d] = append(logs[d], s.Now())
			n++
			if n > 500 {
				return
			}
			s.Post(Duration(s.Rand().Intn(2000)+1)*Microsecond, step)
			if s.Rand().Intn(3) == 0 {
				to := (d + 1 + s.Rand().Intn(domains-1)) % domains
				sh.PostCross(d, to, Duration(s.Rand().Intn(10))*Millisecond, func() {
					recv[to] = append(recv[to], [2]int64{int64(sh.Shard(to).Now()), int64(d)})
				})
			}
		}
		s.Post(0, step)
	}

	var snaps [][]Time
	var tick func()
	tick = func() {
		snap := make([]Time, 0, domains+1)
		snap = append(snap, sh.Global().Now())
		for d := 0; d < domains; d++ {
			snap = append(snap, sh.Shard(d).Now())
		}
		snaps = append(snaps, snap)
		sh.Global().Post(100*Millisecond, tick)
	}
	sh.Global().Post(100*Millisecond, tick)

	sh.Run(1 * Second)
	return logs, recv, snaps
}

// TestShardedWorkerCountInvariance is the in-run analogue of the sweep
// runner's any-worker-count guarantee: every observable log must be
// byte-identical whether windows execute inline or race across goroutines.
func TestShardedWorkerCountInvariance(t *testing.T) {
	refLogs, refRecv, refSnaps := shardedRun(t, 1)
	for _, workers := range []int{2, 4, 8} {
		logs, recvd, snaps := shardedRun(t, workers)
		if !reflect.DeepEqual(refLogs, logs) {
			t.Fatalf("workers=%d: per-domain event logs diverge from serial execution", workers)
		}
		if !reflect.DeepEqual(refRecv, recvd) {
			t.Fatalf("workers=%d: cross-domain delivery logs diverge", workers)
		}
		if !reflect.DeepEqual(refSnaps, snaps) {
			t.Fatalf("workers=%d: global-lane snapshots diverge", workers)
		}
	}
	if len(refSnaps) == 0 {
		t.Fatal("global sampler never fired")
	}
	// The barrier contract: a global event at time T observes every domain
	// clock at exactly T.
	for _, snap := range refSnaps {
		for i := 1; i < len(snap); i++ {
			if snap[i] != snap[0] {
				t.Fatalf("global at %v saw domain %d clock at %v", snap[0], i-1, snap[i])
			}
		}
	}
	for d, rc := range refRecv {
		_ = d
		if len(rc) > 0 {
			return // at least one cross delivery observed somewhere
		}
	}
	t.Fatal("no cross-domain mail was delivered; the test exercises nothing")
}

// TestCrossMailboxMergeOrder pins the deterministic merge key: equal
// delivery times order by sender domain, then per-sender sequence.
func TestCrossMailboxMergeOrder(t *testing.T) {
	const look = 1 * Millisecond
	sh := NewSharded(1, EngineWheel, 3, look)
	got := [][2]int{}
	// Senders post in "reverse" order (domain 2 first) at the same local
	// time with the same delay; delivery must still come out 0,0,1,1,2,2.
	for d := 2; d >= 0; d-- {
		d := d
		s := sh.Shard(d)
		s.PostAt(10*Millisecond, func() {
			for i := 0; i < 2; i++ {
				i := i
				sh.PostCross(d, 0, 4*Millisecond, func() {
					got = append(got, [2]int{d, i})
				})
			}
		})
	}
	sh.Run(1 * Second)
	want := [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order %v, want %v", got, want)
	}
}

// TestCrossMailboxLookaheadClamp verifies short delays are clamped up to
// the lookahead, the conservative bound that keeps stragglers impossible.
func TestCrossMailboxLookaheadClamp(t *testing.T) {
	const look = 2 * Millisecond
	sh := NewSharded(1, EngineWheel, 2, look)
	var at Time
	sh.Shard(0).PostAt(10*Millisecond, func() {
		sh.PostCross(0, 1, 0, func() { at = sh.Shard(1).Now() })
	})
	sh.Run(1 * Second)
	if want := 12 * Millisecond; at != want {
		t.Fatalf("zero-delay cross delivered at %v, want send+lookahead = %v", at, want)
	}
}

// TestPostCrossWithoutLookaheadPanics: with lookahead 0 a cross post has no
// conservative bound, so the scheduler must refuse it loudly.
func TestPostCrossWithoutLookaheadPanics(t *testing.T) {
	sh := NewSharded(1, EngineWheel, 2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("PostCross with zero lookahead did not panic")
		}
	}()
	sh.PostCross(0, 1, Millisecond, func() {})
}

// TestGlobalSchedulesDomainWorkAtBarrier: work a global callback posts on a
// domain at the barrier instant runs at that instant, before the next
// window advances time past it.
func TestGlobalSchedulesDomainWorkAtBarrier(t *testing.T) {
	sh := NewSharded(3, EngineWheel, 2, 0)
	var fired Time
	sh.Global().PostAt(50*Millisecond, func() {
		sh.Shard(1).Post(0, func() { fired = sh.Shard(1).Now() })
	})
	sh.Run(1 * Second)
	if fired != 50*Millisecond {
		t.Fatalf("barrier-scheduled domain event fired at %v, want 50ms", fired)
	}
}

// TestDomainSeedStreams: domain 0 must share the serial seed stream; other
// domains must not.
func TestDomainSeedStreams(t *testing.T) {
	sh := NewSharded(99, EngineWheel, 3, 0)
	serial := New(99)
	for i := 0; i < 16; i++ {
		if sh.Shard(0).Rand().Uint64() != serial.Rand().Uint64() {
			t.Fatal("domain 0 rng stream diverges from the serial seed stream")
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
// include same-tick and same-instant events, timers beyond the wheel's
// 19.5 h span that are then cancelled (they stay in the overflow heap, dead),
// and events due before a cursor that a cascade has moved past the clock.
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
		// Beyond the wheel's span a cancelled timer stays where it is until
		// a pop reaches it; it must not be reported.
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
					d = 20*Hour + Duration(rng.Intn(int(30*Hour))) // overflow
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
						s.PostAt(at, s.Stop)
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
