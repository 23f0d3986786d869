package ring

import (
	"slices"
	"testing"
	"testing/quick"
)

func drain(r *Ring[int]) []int {
	var out []int
	for r.Len() > 0 {
		out = append(out, r.Pop())
	}
	return out
}

func TestZeroValueIsEmpty(t *testing.T) {
	var r Ring[int]
	if r.Len() != 0 || r.buf != nil {
		t.Fatalf("zero ring: len %d, buf %v", r.Len(), r.buf)
	}
	for _, op := range []func(){func() { r.Front() }, func() { r.Pop() }, func() { r.At(0) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("access to an empty ring did not panic")
				}
			}()
			op()
		}()
	}
}

func TestWrapAround(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 3; i++ {
		r.Push(i)
	}
	// Three elements sit in four slots. Ten laps through a buffer that
	// never grows: the head crosses the seam and order holds across it.
	next, want := 3, 0
	for i := 0; i < 40; i++ {
		if got := r.Pop(); got != want {
			t.Fatalf("pop %d: got %d, want %d", i, got, want)
		}
		want++
		r.Push(next)
		next++
		if len(r.buf) != 4 {
			t.Fatalf("buffer grew to %d with 3 elements queued", len(r.buf))
		}
	}
	if got := drain(&r); !slices.Equal(got, []int{want, want + 1, want + 2}) {
		t.Fatalf("tail = %v, want %d..%d", got, want, want+2)
	}
}

func TestGrowthPreservesOrder(t *testing.T) {
	var r Ring[int]
	// Move the head off slot 0 so every doubling copies a wrapped queue.
	for i := 0; i < 3; i++ {
		r.Push(-1)
	}
	for i := 0; i < 3; i++ {
		r.Pop()
	}
	const n = 1000
	for i := 0; i < n; i++ {
		r.Push(i)
		if r.At(i) != i || r.Front() != 0 {
			t.Fatalf("after push %d: At(%d)=%d Front=%d", i, i, r.At(i), r.Front())
		}
	}
	if c := len(r.buf); c&(c-1) != 0 || c < n || c >= 2*n {
		t.Fatalf("capacity %d for %d elements: want the next power of two", c, n)
	}
	for i, v := range drain(&r) {
		if v != i {
			t.Fatalf("element %d = %d after growth", i, v)
		}
	}
}

func TestFrontAfterPop(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 6; i++ {
		r.Push(i)
	}
	for i := 0; i < 5; i++ {
		if r.Pop() != i || r.Front() != i+1 || r.Len() != 5-i {
			t.Fatalf("after pop %d: front %d, len %d", i, r.Front(), r.Len())
		}
	}
}

// TestPopZeroesSlot pins the leak the slice-shift queues had: `q = q[1:]`
// left the popped buffer and completion closure reachable through the
// backing array. After draining, no slot of the ring holds anything.
func TestPopZeroesSlot(t *testing.T) {
	type frame struct {
		buf    *[64]byte
		onDone func()
	}
	var r Ring[frame]
	for round := 0; round < 3; round++ {
		for i := 0; i < 11; i++ {
			r.Push(frame{buf: new([64]byte), onDone: func() {}})
		}
		for r.Len() > 0 {
			r.Pop()
		}
		for i, f := range r.buf {
			if f.buf != nil || f.onDone != nil {
				t.Fatalf("round %d: slot %d of %d still holds a popped element", round, i, len(r.buf))
			}
		}
	}
	r.Push(frame{buf: new([64]byte)})
	r.Reset()
	if r.buf != nil || r.Len() != 0 {
		t.Fatal("Reset kept the buffer")
	}
}

// TestQuickMatchesSlice replays a random push/pop script on the ring and on
// the slice idiom it replaces.
func TestQuickMatchesSlice(t *testing.T) {
	check := func(script []int16) bool {
		var r Ring[int]
		var ref []int
		for _, op := range script {
			if op%3 == 0 && len(ref) > 0 {
				if r.Pop() != ref[0] {
					return false
				}
				ref = ref[1:]
			} else {
				r.Push(int(op))
				ref = append(ref, int(op))
			}
			if r.Len() != len(ref) {
				return false
			}
			for i, v := range ref {
				if r.At(i) != v {
					return false
				}
			}
		}
		return slices.Equal(drain(&r), ref)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
