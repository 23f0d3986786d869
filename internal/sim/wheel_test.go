package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// engineTrace runs a randomized self-scheduling workload on the given
// engine and records the (when, seq) of every fired event. The workload
// exercises equal timestamps, cancellations, far-future delays past the
// fifth level's 19.5 h span, and scheduling from inside callbacks.
func engineTrace(t *testing.T, engine Engine, seed int64, nRoot int) []([2]int64) {
	t.Helper()
	s := NewWithEngine(seed, engine)
	rng := rand.New(rand.NewSource(seed * 7919))
	var fired []([2]int64)
	var pendingCancel []Timer

	var spawn func(depth int)
	spawn = func(depth int) {
		r := rng.Intn(100)
		var d Duration
		switch {
		case r < 40:
			d = Duration(rng.Intn(2000)) // same-tick and near ticks
		case r < 70:
			d = Duration(rng.Intn(int(10 * Millisecond)))
		case r < 90:
			d = Duration(rng.Intn(int(2 * Minute)))
		case r < 97:
			d = Duration(rng.Intn(int(30 * Hour))) // up to level 5
		default:
			d = 0 // exactly now
		}
		cancellable := rng.Intn(4) == 0
		e := s.After(d, func() {
			fired = append(fired, [2]int64{int64(s.Now()), int64(s.Processed())})
			if depth < 3 && rng.Intn(3) == 0 {
				spawn(depth + 1)
			}
			if len(pendingCancel) > 0 && rng.Intn(2) == 0 {
				s.Cancel(pendingCancel[0])
				pendingCancel = pendingCancel[1:]
			}
		})
		if cancellable {
			pendingCancel = append(pendingCancel, e)
		}
	}
	for i := 0; i < nRoot; i++ {
		spawn(0)
	}
	s.RunAll()
	return fired
}

// TestWheelMatchesHeap holds the wheel engine to the reference heap on
// randomized workloads: same seed, same fired-event sequence.
func TestWheelMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		heap := engineTrace(t, EngineHeap, seed, 200)
		wheel := engineTrace(t, EngineWheel, seed, 200)
		if len(heap) != len(wheel) {
			t.Fatalf("seed %d: heap fired %d events, wheel %d", seed, len(heap), len(wheel))
		}
		for i := range heap {
			if heap[i] != wheel[i] {
				t.Fatalf("seed %d: event %d diverged: heap=%v wheel=%v", seed, i, heap[i], wheel[i])
			}
		}
	}
}

// TestWheelFIFOAcrossLevels checks FIFO tie-breaking for events that reach
// the same timestamp via different wheel levels: one scheduled far ahead
// (cascaded down) and one scheduled late (placed directly at level 0) must
// still fire in scheduling order.
func TestWheelFIFOAcrossLevels(t *testing.T) {
	s := New(1)
	target := Time(90 * Minute) // beyond level 0 at schedule time
	var order []int
	s.At(target, func() { order = append(order, 1) })
	s.At(target-Minute, func() {
		// By now the first event sits in a higher level; this second
		// event for the same instant is scheduled much closer.
		s.At(target, func() { order = append(order, 2) })
	})
	s.RunAll()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("cross-level FIFO violated: %v", order)
	}
}

// TestWheelSameBaseCrossLevel is a regression test for the pop fast path:
// two slots at different levels can share a window base. Y lands in a
// level-2 slot with base 64² (scheduled from tick 0); X, scheduled from
// tick 100 for a later instant in the very same tick 64², lands in a
// level-1 slot with the same base. One cascade moves only X down, and X
// then sits exactly on the cursor tick — the fast path used to pop it
// without noticing the level-2 slot still held the earlier Y, firing X
// before Y and driving Sim.Now backwards.
func TestWheelSameBaseCrossLevel(t *testing.T) {
	base := Time(1) << (2*wheelBits + wheelShift) // the start of tick 64²
	for _, engine := range []Engine{EngineWheel, EngineHeap} {
		s := NewWithEngine(1, engine)
		var order []string
		last := Time(-1)
		mark := func(name string) func() {
			return func() {
				if s.Now() < last {
					t.Fatalf("%v: time went backwards: %v after %v", engine, s.Now(), last)
				}
				last = s.Now()
				order = append(order, name)
			}
		}
		y := s.At(base+5, mark("Y"))
		if l := y.e.idx >> wheelBits; engine == EngineWheel && l != 2 {
			t.Fatalf("Y filed at level %d, want 2", l)
		}
		s.At(100<<wheelShift, func() {
			mark("mid")()
			x := s.At(base+800, mark("X"))
			if l := x.e.idx >> wheelBits; engine == EngineWheel && l != 1 {
				t.Fatalf("X filed at level %d, want 1", l)
			}
		})
		s.RunAll()
		if len(order) != 3 || order[0] != "mid" || order[1] != "Y" || order[2] != "X" {
			t.Fatalf("%v: fired %v, want [mid Y X]", engine, order)
		}
	}
}

// TestWheelBoundaryEpochEquivalence holds the wheel to the heap on
// workloads built to create same-base slots at multiple levels: from a
// spread of cursor epochs, events target ticks sitting exactly on 64^l
// window boundaries, so the same boundary is filed at different levels
// depending on the epoch it was scheduled from.
func TestWheelBoundaryEpochEquivalence(t *testing.T) {
	trace := func(engine Engine, seed int64) []([2]int64) {
		s := NewWithEngine(seed, engine)
		rng := rand.New(rand.NewSource(seed * 104729))
		var fired []([2]int64)
		rec := func() { fired = append(fired, [2]int64{int64(s.Now()), int64(s.Processed())}) }
		for i := 0; i < 200; i++ {
			epoch := Time(rng.Int63n(1<<14)) << wheelShift
			s.At(epoch, func() {
				l := 1 + rng.Intn(3)
				span := int64(1) << uint(wheelBits*l)
				boundary := (tickOf(s.Now())/span + 1 + rng.Int63n(3)) * span
				when := Time(boundary)<<wheelShift + Time(rng.Int63n(2048))
				s.At(when, rec)
			})
		}
		s.RunAll()
		return fired
	}
	for seed := int64(1); seed <= 16; seed++ {
		heap := trace(EngineHeap, seed)
		wheel := trace(EngineWheel, seed)
		if len(heap) != len(wheel) {
			t.Fatalf("seed %d: heap fired %d events, wheel %d", seed, len(heap), len(wheel))
		}
		for i := range heap {
			if heap[i] != wheel[i] {
				t.Fatalf("seed %d: event %d diverged: heap=%v wheel=%v", seed, i, heap[i], wheel[i])
			}
		}
	}
}

// TestWheelSameTickOrdering schedules events inside one tick in
// shuffled timestamp order and checks they fire sorted by (when, seq).
func TestWheelSameTickOrdering(t *testing.T) {
	s := New(3)
	rng := rand.New(rand.NewSource(99))
	whens := rng.Perm(1000)
	var fired []Time
	for _, w := range whens {
		when := Time(w) // all within the first tick
		s.At(when, func() { fired = append(fired, when) })
	}
	s.RunAll()
	if len(fired) != len(whens) {
		t.Fatalf("fired %d of %d", len(fired), len(whens))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("same-tick order violated at %d: %d after %d", i, fired[i], fired[i-1])
		}
	}
}

// TestWheelCancelLazy cancels events from level 0 to level 5 (the 25 h
// delay) and checks none fire and Pending tracks live events only.
func TestWheelCancelLazy(t *testing.T) {
	s := New(5)
	var fired int
	var evs []Timer
	delays := []Duration{0, 500, Millisecond, Second, Minute, Hour, 25 * Hour}
	for _, d := range delays {
		evs = append(evs, s.After(d, func() { fired++ }))
		s.After(d, func() { fired++ }) // survivor at the same instant
	}
	for _, e := range evs {
		s.Cancel(e)
	}
	if got := s.Pending(); got != len(delays) {
		t.Fatalf("Pending after cancels = %d, want %d", got, len(delays))
	}
	s.RunAll()
	if fired != len(delays) {
		t.Fatalf("fired %d, want %d survivors", fired, len(delays))
	}
}

// TestWheelRunHorizon checks pop-at-most semantics: events beyond the
// horizon stay queued and time still advances to the horizon.
func TestWheelRunHorizon(t *testing.T) {
	s := New(7)
	var fired []Time
	for _, d := range []Duration{Second, 2 * Minute, 3 * Hour, 30 * Hour} {
		d := d
		s.After(d, func() { fired = append(fired, d) })
	}
	s.Run(10 * Minute)
	if len(fired) != 2 || s.Now() != 10*Minute || s.Pending() != 2 {
		t.Fatalf("after Run(10m): fired=%v now=%v pending=%d", fired, s.Now(), s.Pending())
	}
	s.Run(100 * Hour)
	if len(fired) != 4 {
		t.Fatalf("after Run(100h): fired=%v", fired)
	}
}

// TestPostRecyclesEvents checks the free list actually recycles handle-free
// events rather than allocating per Post.
func TestPostRecyclesEvents(t *testing.T) {
	for _, engine := range []Engine{EngineWheel, EngineHeap} {
		s := NewWithEngine(11, engine)
		n := 0
		var tick func()
		tick = func() {
			n++
			if n%1000 != 0 {
				s.Post(Millisecond, tick)
			}
		}
		// Each measured run drives a fresh 1000-event chain; after the
		// warm-up run the pooled event and engine-internal slices are
		// already allocated, so steady state should be allocation-free.
		allocs := testing.AllocsPerRun(3, func() {
			s.Post(0, tick)
			s.RunAll()
		})
		if n != 4000 {
			t.Fatalf("%v: ran %d ticks", engine, n)
		}
		if allocs > 2 {
			t.Fatalf("%v: %.0f allocs per 1000-event pooled chain", engine, allocs)
		}
	}
}

// TestWheelFootprint pins what lets every RF-isolated site of a city own a
// wheel: an idle queue is one small struct with no levels, a queue pays only
// for the timer horizons it has seen (the BLE stack's are 1 µs, 150 µs,
// 75 ms and 4 s — three of the eight levels), and steady-state scheduling
// touches the allocator not at all. Eight occupancy words and eight level
// pointers are 128 bytes before the cursor, so the bound is the next
// allocator size class, 160.
func TestWheelFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(wheelQueue{}); sz > 160 {
		t.Fatalf("empty wheelQueue is %d bytes, want <= 160", sz)
	}
	s := New(1)
	w := s.q.(*wheelQueue)
	if w.level != [wheelLevels]*wheelLevel{} {
		t.Fatal("a new wheel queue allocated levels")
	}
	for _, p := range []Duration{Microsecond, 150 * Microsecond, 75 * Millisecond, 4 * Second} {
		p := p
		var tick func()
		tick = func() { s.Post(p, tick) }
		s.Post(p, tick)
	}
	s.Run(9 * Second)
	levels := 0
	for _, lv := range w.level {
		if lv != nil {
			levels++
		}
	}
	if levels > 3 {
		t.Fatalf("four timer horizons allocated %d levels, want <= 3", levels)
	}
	allocs := testing.AllocsPerRun(5, func() { s.Run(s.Now() + Second) })
	if allocs != 0 {
		t.Fatalf("steady-state wheel allocated %.1f times per second of timers", allocs)
	}
}

// TestWheelSlotLists exercises the intrusive slot lists: unlinking the
// head, the middle, the tail and the sole entry of a slot at every level,
// with the survivors still firing in (when, seq) order and the occupancy
// bitmaps dropping to zero with the last entry.
func TestWheelSlotLists(t *testing.T) {
	// One delay per level, from cur = 0: level l covers ticks [64^l, 64^(l+1)),
	// and tick 3·64^l lies in it.
	var delays []Duration
	for l := 0; l < wheelLevels; l++ {
		delays = append(delays, Duration(3)<<(wheelBits*l+wheelShift))
	}
	positions := []struct {
		name   string
		n, cut int // events in the slot, index (in scheduling order) to cancel
	}{
		// push links at the head, so the last scheduled event is the head.
		{"head", 3, 2}, {"middle", 3, 1}, {"tail", 3, 0}, {"sole", 1, 0},
	}
	for l, d := range delays {
		for _, pos := range positions {
			s := New(1)
			w := s.q.(*wheelQueue)
			var fired []int
			timers := make([]Timer, pos.n)
			for i := range timers {
				i := i
				timers[i] = s.After(d, func() { fired = append(fired, i) })
				if got := timers[i].e.idx >> wheelBits; got != l {
					t.Fatalf("delay %v filed at level %d, want %d", d, got, l)
				}
			}
			s.Cancel(timers[pos.cut])
			if timers[pos.cut].Scheduled() || s.Pending() != pos.n-1 {
				t.Fatalf("level %d %s: after cancel Scheduled=%v Pending=%d",
					l, pos.name, timers[pos.cut].Scheduled(), s.Pending())
			}
			if pos.n == 1 && (w.levelOcc != 0 || w.occupied[l] != 0) {
				t.Fatalf("level %d sole: occupancy bits survive an empty slot", l)
			}
			s.RunAll()
			var want []int
			for i := 0; i < pos.n; i++ {
				if i != pos.cut {
					want = append(want, i)
				}
			}
			if !reflect.DeepEqual(fired, want) {
				t.Fatalf("level %d %s: fired %v, want %v", l, pos.name, fired, want)
			}
			if w.levelOcc != 0 || s.Pending() != 0 {
				t.Fatalf("level %d %s: drained queue has levelOcc=%b Pending=%d",
					l, pos.name, w.levelOcc, s.Pending())
			}
		}
	}
}

// TestWheelCancelAroundCascade cancels an event parked three levels up, once
// before its slot cascades and once after the cascade has moved it down
// next to the cursor; either way its neighbours in the slot are unaffected.
func TestWheelCancelAroundCascade(t *testing.T) {
	// Tick 5·64³ + 1000: level 3 from cur = 0, and two ticks earlier is in
	// the same level-3 slot, so firing that event cascades the victim.
	at := Time(5<<(3*wheelBits)+1000) << wheelShift
	for _, afterCascade := range []bool{false, true} {
		s := New(1)
		var fired []string
		victim := s.At(at, func() { fired = append(fired, "victim") })
		s.At(at, func() { fired = append(fired, "neighbour") })
		if l := victim.e.idx >> wheelBits; l != 3 {
			t.Fatalf("%v timer filed at level %d, want 3", at, l)
		}
		if afterCascade {
			s.At(at-2<<wheelShift, func() {
				if l := victim.e.idx >> wheelBits; l >= 3 {
					t.Fatalf("victim still at level %d two ticks before it is due", l)
				}
				s.Cancel(victim)
			})
		} else {
			s.Cancel(victim)
		}
		s.RunAll()
		if !reflect.DeepEqual(fired, []string{"neighbour"}) {
			t.Fatalf("afterCascade=%v: fired %v, want [neighbour]", afterCascade, fired)
		}
	}
}

// TestWheelStaleTimerAfterRecycle: a cancelled slot-resident event goes
// straight back to the free list, so the next timer reuses the object — and
// the old handle must not be able to touch the new tenant.
func TestWheelStaleTimerAfterRecycle(t *testing.T) {
	s := New(1)
	var fired []string
	old := s.After(Millisecond, func() { fired = append(fired, "old") })
	s.Cancel(old)
	cur := s.After(Millisecond, func() { fired = append(fired, "new") })
	if cur.e != old.e {
		t.Fatal("cancelled event was not recycled for the next timer")
	}
	s.Cancel(old) // stale: generation mismatch
	if old.Scheduled() || !cur.Scheduled() || s.Pending() != 1 {
		t.Fatalf("stale cancel disturbed the new tenant: old=%v new=%v pending=%d",
			old.Scheduled(), cur.Scheduled(), s.Pending())
	}
	s.RunAll()
	if !reflect.DeepEqual(fired, []string{"new"}) {
		t.Fatalf("fired %v, want [new]", fired)
	}
}

// TestWheelOverflowCancel: a timer beyond the fifth level's 19.5 h span
// sits at level 5 like any other; cancelling it unlinks it at once, its
// event is recycled for the next timer, and the survivors keep their order.
func TestWheelOverflowCancel(t *testing.T) {
	s := New(1)
	var fired []int
	dead := s.After(25*Hour, func() { fired = append(fired, -1) })
	if l := dead.e.idx >> wheelBits; l != 5 {
		t.Fatalf("25 h timer filed at level %d, want 5", l)
	}
	s.After(26*Hour, func() { fired = append(fired, 2) })
	s.After(24*Hour, func() { fired = append(fired, 1) })
	s.Cancel(dead)
	if dead.Scheduled() || s.Pending() != 2 {
		t.Fatalf("after cancel: Scheduled=%v Pending=%d", dead.Scheduled(), s.Pending())
	}
	if next := s.After(Second, func() { fired = append(fired, 0) }); next.e != dead.e {
		t.Fatal("cancelled 25 h event was not recycled for the next timer")
	}
	s.Cancel(dead) // stale handle: no-op
	s.RunAll()
	if !reflect.DeepEqual(fired, []int{0, 1, 2}) {
		t.Fatalf("fired %v, want [0 1 2]", fired)
	}
}

// TestWheelCoversEveryTime files events out to math.MaxInt64, on levels 6
// and 7, and holds the wheel to the heap: the same firing order, NextAt
// naming the earliest, Pending right after a cancel, and the cancelled
// event recycled.
func TestWheelCoversEveryTime(t *testing.T) {
	whens := []Time{60 * 24 * Hour, 1 << 61, 1 << 62, 1 << 62, math.MaxInt64 - 1, math.MaxInt64}
	trace := func(engine Engine) []int {
		s := NewWithEngine(1, engine)
		var fired []int
		timers := make([]Timer, len(whens))
		for i := len(whens) - 1; i >= 0; i-- {
			i := i
			timers[i] = s.At(whens[i], func() {
				if s.Now() != whens[i] {
					t.Fatalf("%v: event %d fired at %v, want %v", engine, i, s.Now(), whens[i])
				}
				fired = append(fired, i)
			})
		}
		if engine == EngineWheel {
			for i, l := range []int{6, 7, 7, 7, 7, 7} {
				if got := timers[i].e.idx >> wheelBits; got != l {
					t.Fatalf("event at %d ns filed at level %d, want %d", int64(whens[i]), got, l)
				}
			}
		}
		if at, ok := s.NextAt(); !ok || at != whens[0] {
			t.Fatalf("%v: NextAt = %v,%v, want %v", engine, at, ok, whens[0])
		}
		victim := timers[2]
		s.Cancel(victim)
		if victim.Scheduled() || s.Pending() != len(whens)-1 {
			t.Fatalf("%v: after cancel Scheduled=%v Pending=%d", engine, victim.Scheduled(), s.Pending())
		}
		if next := s.At(whens[4], func() { fired = append(fired, -1) }); next.e != victim.e {
			t.Fatalf("%v: cancelled event was not recycled", engine)
		}
		s.RunAll()
		if s.Pending() != 0 {
			t.Fatalf("%v: %d events left after RunAll", engine, s.Pending())
		}
		return fired
	}
	heap, wheel := trace(EngineHeap), trace(EngineWheel)
	if want := []int{0, 1, 3, 4, -1, 5}; !reflect.DeepEqual(heap, want) {
		t.Fatalf("heap fired %v, want %v", heap, want)
	}
	if !reflect.DeepEqual(wheel, heap) {
		t.Fatalf("wheel fired %v, heap %v", wheel, heap)
	}
}
