package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30*Millisecond, func() { got = append(got, 3) })
	s.At(10*Millisecond, func() { got = append(got, 1) })
	s.At(20*Millisecond, func() { got = append(got, 2) })
	s.Run(Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if s.Now() != Second {
		t.Fatalf("time should advance to horizon, got %v", s.Now())
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5*Millisecond, func() { got = append(got, i) })
	}
	s.Run(Second)
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-timestamp events not FIFO: %v", got)
	}
}

func TestScheduleInPastClamps(t *testing.T) {
	s := New(1)
	fired := Time(-1)
	s.At(10*Millisecond, func() {
		s.At(Millisecond, func() { fired = s.Now() }) // in the past
	})
	s.Run(Second)
	if fired != 10*Millisecond {
		t.Fatalf("past event should fire immediately at now, got %v", fired)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.At(10*Millisecond, func() { fired = true })
	if !e.Scheduled() {
		t.Fatal("event should report scheduled")
	}
	s.Cancel(e)
	if e.Scheduled() {
		t.Fatal("cancelled event should not report scheduled")
	}
	s.Cancel(e) // double cancel is a no-op
	s.Run(Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New(1)
	var got []int
	var events []Timer
	for i := 0; i < 50; i++ {
		i := i
		events = append(events, s.At(Time(i+1)*Millisecond, func() { got = append(got, i) }))
	}
	// Cancel every third event.
	want := 0
	for i, e := range events {
		if i%3 == 1 {
			s.Cancel(e)
		} else {
			want++
		}
	}
	s.Run(Second)
	if len(got) != want {
		t.Fatalf("got %d events, want %d", len(got), want)
	}
	for _, v := range got {
		if v%3 == 1 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestRunHorizonLeavesLaterEvents(t *testing.T) {
	s := New(1)
	fired := 0
	s.At(10*Millisecond, func() { fired++ })
	s.At(20*Millisecond, func() { fired++ })
	s.Run(15 * Millisecond)
	if fired != 1 {
		t.Fatalf("fired=%d, want 1", fired)
	}
	s.Run(25 * Millisecond)
	if fired != 2 {
		t.Fatalf("fired=%d, want 2 after extended horizon", fired)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []int64 {
		s := New(seed)
		var trace []int64
		var tick func()
		tick = func() {
			trace = append(trace, int64(s.Now()), s.Rng63())
			if len(trace) < 200 {
				s.After(Duration(1+s.Rand().Intn(1000))*Microsecond, tick)
			}
		}
		s.After(0, tick)
		s.Run(Hour)
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// Rng63 is a tiny helper for the determinism test.
func (s *Sim) Rng63() int64 { return s.rng.Int63() }

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{150 * Microsecond, "150us"},
		{75 * Millisecond, "75.000ms"},
		{3600 * Second, "3600.000000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestClockPerfect(t *testing.T) {
	s := New(1)
	c := NewClock(s, 0)
	s.Run(Hour)
	if c.Now() != Hour {
		t.Fatalf("perfect clock drifted: %v", c.Now())
	}
}

func TestClockDriftMagnitude(t *testing.T) {
	s := New(1)
	fast := NewClock(s, 250)  // spec worst case, fast
	slow := NewClock(s, -250) // spec worst case, slow
	s.Run(Second)
	// 250 ppm over 1 s = 250 µs.
	if d := fast.Now() - Second; d < 249*Microsecond || d > 251*Microsecond {
		t.Fatalf("fast clock offset after 1s = %v, want ~250us", d)
	}
	if d := Second - slow.Now(); d < 249*Microsecond || d > 251*Microsecond {
		t.Fatalf("slow clock offset after 1s = %v, want ~250us", d)
	}
}

func TestClockLocalTimerFiresEarlyWhenFast(t *testing.T) {
	s := New(1)
	c := NewClock(s, 100) // fast clock
	var fired Time
	s.After(c.ToSim(Second), func() { fired = s.Now() }) // a timer set in local time
	s.Run(2 * Second)
	if fired >= Second {
		t.Fatalf("fast clock should fire local 1s timer early in sim time, fired at %v", fired)
	}
	if Second-fired > 110*Microsecond || Second-fired < 90*Microsecond {
		t.Fatalf("100ppm early offset = %v, want ~100us", Second-fired)
	}
}

func TestClockRelativeDriftMatchesPaperExample(t *testing.T) {
	// §6.2: two clocks with 5 µs/s relative drift and a 75 ms interval
	// shade every 75ms/5µs/s = 4.17 h. Verify our clock pair accumulates
	// 5 µs of relative offset per second.
	s := New(1)
	a := NewClock(s, +2.5)
	b := NewClock(s, -2.5)
	s.Run(1000 * Second)
	rel := a.Now() - b.Now()
	want := 5 * Microsecond * 1000
	if math.Abs(float64(rel-want)) > float64(10*Microsecond) {
		t.Fatalf("relative drift after 1000s = %v, want ~%v", rel, want)
	}
}

func TestClockRoundTripConversion(t *testing.T) {
	s := New(1)
	for _, ppm := range []float64{-250, -6, 0, 3, 250} {
		c := NewClock(s, ppm)
		for _, d := range []Duration{Microsecond, 150 * Microsecond, 75 * Millisecond, Hour} {
			back := c.ToLocal(c.ToSim(d))
			if diff := back - d; diff < -2 || diff > 2 {
				t.Errorf("ppm=%v dur=%v: round trip error %dns", ppm, d, diff)
			}
		}
	}
}

func TestQuickHeapOrdering(t *testing.T) {
	// Property: for any set of (timestamp, id) pairs, the engine executes
	// them sorted by timestamp, FIFO within equal timestamps.
	f := func(delays []uint16) bool {
		s := New(7)
		type rec struct {
			when Time
			id   int
		}
		var got []rec
		for i, d := range delays {
			i, when := i, Time(d)*Microsecond
			s.At(when, func() { got = append(got, rec{when, i}) })
		}
		s.Run(Hour)
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].when < got[i-1].when {
				return false
			}
			if got[i].when == got[i-1].when && got[i].id < got[i-1].id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickClockMonotone(t *testing.T) {
	// Property: local time is monotone non-decreasing for any ppm in the
	// spec range, sampled at random sim times.
	f := func(ppmRaw int16, steps []uint32) bool {
		ppm := float64(ppmRaw%250 + 250)
		s := New(3)
		c := NewClock(s, ppm)
		last := c.Now()
		for _, st := range steps {
			s.At(s.Now()+Time(st%1_000_000)*Microsecond, func() {})
			s.RunAll()
			now := c.Now()
			if now < last {
				return false
			}
			last = now
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// An Event is recycled, not freed, so a run holds as many as it ever had
// pending at once. Storing a Handler (two words) instead of a func (one)
// keeps it at exactly 64 B, one size class.
func TestEventFitsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Event{}); sz > 64 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, over the 64 B size class", sz)
	}
}

// counter is a Handler that is not a Func.
type counter int

func (c *counter) Fire() { *c++ }

// TestNilEventPanics: a nil func or Handler is refused when it is scheduled,
// not when it would fire, and on every scheduling entry point. (A nil func
// wrapped in Func would be a non-nil Handler that panics only at its
// timestamp.)
func TestNilEventPanics(t *testing.T) {
	s := New(1)
	for name, schedule := range map[string]func(){
		"At":       func() { s.At(Millisecond, nil) },
		"After":    func() { s.After(Millisecond, nil) },
		"Post":     func() { s.Post(Millisecond, nil) },
		"PostAt":   func() { s.PostAt(Millisecond, nil) },
		"Schedule": func() { s.Schedule(Millisecond, nil) },
	} {
		func() {
			defer func() {
				if r := recover(); r != "sim: nil event func" {
					t.Errorf("%s(nil) panicked with %v, want \"sim: nil event func\"", name, r)
				}
			}()
			schedule()
		}()
	}
	if n := s.Pending(); n != 0 {
		t.Fatalf("%d events queued by refused calls", n)
	}
	var c counter
	tm := s.Schedule(Millisecond, &c)
	s.Schedule(2*Millisecond, &c)
	if !tm.Scheduled() || tm.When() != Millisecond {
		t.Fatalf("Schedule returned a timer at %v (scheduled %v)", tm.When(), tm.Scheduled())
	}
	s.Cancel(tm)
	s.Run(Second)
	if c != 1 {
		t.Fatalf("handler fired %d times, want 1 (one of two cancelled)", c)
	}
}
