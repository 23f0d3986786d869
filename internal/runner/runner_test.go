package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"blemesh/internal/sim"
)

// TestMapOrderIndependentOfWorkers runs the same job set at several worker
// counts and requires identical results — the property the parallel sweep's
// byte-identical output rests on.
func TestMapOrderIndependentOfWorkers(t *testing.T) {
	const n = 64
	job := func(j int) (string, error) {
		// Real work: a seeded mini-simulation, so jobs finish out of
		// submission order under parallelism.
		s := sim.New(int64(j))
		ticks := 0
		var tick func()
		tick = func() {
			ticks++
			if ticks < 100*(j%7+1) {
				s.Post(sim.Millisecond, tick)
			}
		}
		s.Post(0, tick)
		s.RunAll()
		return fmt.Sprintf("job%d:%d:%d", j, ticks, s.Now()/sim.Millisecond), nil
	}
	var want []string
	for _, workers := range []int{1, 2, 4, 8, 0} {
		got, err := Map(n, Options{Workers: workers}, job)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result %d = %q, want %q", workers, i, got[i], want[i])
			}
		}
	}
}

// TestMapUnevenJobs makes every fourth job slow and checks every job still
// completes exactly once.
func TestMapUnevenJobs(t *testing.T) {
	const n = 32
	var ran [n]atomic.Int32
	_, err := Map(n, Options{Workers: 4}, func(j int) (int, error) {
		if j%4 == 0 {
			// The jobs a round-robin deal would give one worker are heavy.
			s := sim.New(int64(j))
			for i := 0; i < 2000; i++ {
				s.Post(sim.Duration(i), func() {})
			}
			s.RunAll()
		}
		ran[j].Add(1)
		return j, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := range ran {
		if got := ran[j].Load(); got != 1 {
			t.Fatalf("job %d ran %d times", j, got)
		}
	}
}

// TestMapPanicIsolation checks a panicking job is reported as a PanicError
// in job order while the remaining jobs complete.
func TestMapPanicIsolation(t *testing.T) {
	const n = 16
	got, err := Map(n, Options{Workers: 4}, func(j int) (int, error) {
		if j == 5 || j == 11 {
			panic(fmt.Sprintf("boom %d", j))
		}
		return j * j, nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a PanicError", err)
	}
	if pe.Job != 5 {
		t.Fatalf("first reported panic is job %d, want 5 (job order, not completion order)", pe.Job)
	}
	if !strings.Contains(err.Error(), "2 of 16 jobs failed") {
		t.Fatalf("error does not aggregate failures: %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
	for j := 0; j < n; j++ {
		if j == 5 || j == 11 {
			continue
		}
		if got[j] != j*j {
			t.Fatalf("job %d result lost after sibling panic: %d", j, got[j])
		}
	}
}

// TestMapErrorOrder checks plain errors are also reported in job order.
func TestMapErrorOrder(t *testing.T) {
	_, err := Map(8, Options{Workers: 8}, func(j int) (int, error) {
		if j >= 3 {
			return 0, fmt.Errorf("fail-%d", j)
		}
		return j, nil
	})
	if err == nil || !strings.Contains(err.Error(), "fail-3") {
		t.Fatalf("first error by job order should be fail-3, got: %v", err)
	}
}

// TestMapProgress checks the progress callback.
func TestMapProgress(t *testing.T) {
	var calls int
	last := -1
	_, err := Map(10, Options{
		Workers: 2,
		OnProgress: func(done, total int) {
			calls++
			if total != 10 || done < 1 || done > 10 {
				t.Errorf("bad progress %d/%d", done, total)
			}
			last = done
		},
	}, func(j int) (int, error) { return j, nil })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 10 || last != 10 {
		t.Fatalf("progress called %d times, last=%d", calls, last)
	}
}

// TestMapEmpty covers the n=0 edge.
func TestMapEmpty(t *testing.T) {
	got, err := Map(0, Options{}, func(j int) (int, error) { return j, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty map: %v, %v", got, err)
	}
}
